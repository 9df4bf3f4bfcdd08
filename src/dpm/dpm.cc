#include "dpm/dpm.h"

#include <memory>
#include <string>

#include "util/error.h"

namespace dvs::dpm {
namespace {

/// Total energy per cycle at speed `s` under an always-on floor.
double EnergyPerCycle(const model::DvsModel& dvs, double s, double leak) {
  const double v = dvs.ClampVoltage(dvs.VoltageForSpeed(s));
  return dvs.ceff() * v * v + leak / s;
}

}  // namespace

double CriticalSpeed(const model::DvsModel& dvs, double leak_power_per_ms) {
  const double lo_bound = dvs.MinSpeed();
  const double hi_bound = dvs.MaxSpeed();
  if (leak_power_per_ms <= 0.0) {
    return lo_bound;
  }
  // Fixed-iteration ternary search: the objective is unimodal (convex for
  // the linear and alpha-power models; the discrete wrapper's staircase is
  // still unimodal in the quantised voltage), and 200 thirds shrink the
  // bracket far below double resolution, so the result is a deterministic
  // pure function of (model, leak).
  double lo = lo_bound;
  double hi = hi_bound;
  for (int i = 0; i < 200; ++i) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (EnergyPerCycle(dvs, m1, leak_power_per_ms) <=
        EnergyPerCycle(dvs, m2, leak_power_per_ms)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return 0.5 * (lo + hi);
}

std::unique_ptr<const model::DvsModel> FlooredModel(
    const model::DvsModel& base, const Options& options) {
  if (!options.enabled || options.critical_speed < 0.0) {
    return nullptr;
  }
  const double target =
      options.critical_speed > 0.0
          ? options.critical_speed * base.MaxSpeed()
          : CriticalSpeed(base, options.idle.power_per_ms);
  if (target <= base.MinSpeed()) {
    return nullptr;  // the base range already respects the critical speed
  }
  const double floor_voltage = base.VoltageForSpeed(target);
  if (floor_voltage <= base.vmin()) {
    return nullptr;
  }
  if (target >= base.MaxSpeed() || floor_voltage >= base.vmax()) {
    throw util::InvalidArgumentError(
        "critical-speed floor " + std::to_string(target) +
        " cycles/ms leaves no speed range below the top speed " +
        std::to_string(base.MaxSpeed()));
  }
  if (const auto* linear = dynamic_cast<const model::LinearDvsModel*>(&base)) {
    return std::make_unique<model::LinearDvsModel>(
        floor_voltage, linear->vmax(), linear->ceff(), linear->k());
  }
  if (const auto* alpha = dynamic_cast<const model::AlphaDvsModel*>(&base)) {
    return std::make_unique<model::AlphaDvsModel>(
        floor_voltage, alpha->vmax(), alpha->ceff(), alpha->k_delay(),
        alpha->vth(), alpha->alpha());
  }
  throw util::InvalidArgumentError(
      "the critical-speed floor needs a linear or alpha-law DVS model");
}

model::SleepState ResolveSleepState(const std::string& name,
                                    const model::IdlePower& idle) {
  const double p = idle.power_per_ms;
  model::SleepState state;
  if (name == "ideal") {
    return state;  // all-zero: free instant power gating
  }
  if (name == "shallow") {
    state.power_per_ms = 0.3 * p;
    state.enter_latency = 0.1;
    state.exit_latency = 0.1;
    state.enter_energy = 0.05 * p;
    state.exit_energy = 0.05 * p;
    return state;
  }
  if (name == "deep") {
    state.power_per_ms = 0.02 * p;
    state.enter_latency = 0.5;
    state.exit_latency = 0.5;
    state.enter_energy = 0.5 * p;
    state.exit_energy = 0.5 * p;
    return state;
  }
  std::string known;
  for (const std::string& preset : SleepStateNames()) {
    known += known.empty() ? preset : ", " + preset;
  }
  throw util::InvalidArgumentError("unknown sleep state \"" + name +
                                   "\" (known: " + known + ")");
}

const std::vector<std::string>& SleepStateNames() {
  static const std::vector<std::string> names = {"ideal", "shallow", "deep"};
  return names;
}

}  // namespace dvs::dpm
