#include "model/power_model.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.h"

namespace dvs::model {

double DvsModel::ClampVoltage(double v) const {
  return std::min(std::max(v, vmin()), vmax());
}

double DvsModel::VoltageForWork(double cycles, double window) const {
  ACS_REQUIRE(cycles >= 0.0, "negative cycle count");
  if (cycles == 0.0) {
    return vmin();
  }
  if (window <= 0.0) {
    return vmax();
  }
  return ClampVoltage(VoltageForSpeed(cycles / window));
}

LinearDvsModel::LinearDvsModel(double vmin, double vmax, double ceff,
                               double cycles_per_ms_per_volt)
    : vmin_(vmin), vmax_(vmax), ceff_(ceff), k_(cycles_per_ms_per_volt) {
  // The ordering checks reject NaN but not +inf, which would plan infinite
  // energies or overflow the solver's speed bounds.
  ACS_REQUIRE(std::isfinite(vmax) && std::isfinite(ceff) && std::isfinite(k_),
              "DVS model parameters must be finite");
  ACS_REQUIRE(vmin > 0.0, "vmin must be positive");
  ACS_REQUIRE(vmax > vmin, "vmax must exceed vmin");
  ACS_REQUIRE(ceff > 0.0, "ceff must be positive");
  ACS_REQUIRE(k_ > 0.0, "speed constant must be positive");
}

double LinearDvsModel::SpeedAt(double v) const {
  ACS_REQUIRE(v > 0.0, "voltage must be positive");
  return k_ * v;
}

double LinearDvsModel::VoltageForSpeed(double speed) const {
  ACS_REQUIRE(speed > 0.0, "speed must be positive");
  return speed / k_;
}

DiscreteDvsModel::DiscreteDvsModel(std::shared_ptr<const DvsModel> base,
                                   std::vector<double> levels)
    : base_(std::move(base)), levels_(std::move(levels)) {
  ACS_REQUIRE(base_ != nullptr, "base model must not be null");
  ACS_REQUIRE(!levels_.empty(), "at least one voltage level is required");
  std::sort(levels_.begin(), levels_.end());
  for (double v : levels_) {
    ACS_REQUIRE(v >= base_->vmin() && v <= base_->vmax(),
                "discrete level outside base model's voltage range");
  }
}

double DiscreteDvsModel::VoltageForSpeed(double speed) const {
  for (double v : levels_) {
    if (base_->SpeedAt(v) >= speed) {
      return v;
    }
  }
  return levels_.back();
}

std::vector<double> DiscreteDvsModel::EvenLevels(const DvsModel& base,
                                                 int count) {
  ACS_REQUIRE(count >= 1, "need at least one level");
  std::vector<double> levels;
  if (count == 1) {
    levels.push_back(base.vmax());
    return levels;
  }
  const double step = (base.vmax() - base.vmin()) / (count - 1);
  for (int i = 0; i < count; ++i) {
    levels.push_back(base.vmin() + step * i);
  }
  levels.back() = base.vmax();
  return levels;
}

void TransitionOverhead::Validate() const {
  const auto check = [](const char* field, double value) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      throw util::InvalidArgumentError(std::string("transition ") + field +
                                       " must be finite and non-negative, "
                                       "got " + std::to_string(value));
    }
  };
  check("time_per_volt", time_per_volt);
  check("energy_per_volt", energy_per_volt);
}

}  // namespace dvs::model
