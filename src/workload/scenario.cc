#include "workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "stats/distributions.h"
#include "util/error.h"
#include "util/strings.h"

namespace dvs::workload {
namespace {

/// One task's workload window.  span == 0 (BCEC == WCEC) collapses every
/// scenario to the fixed WCEC draw, mirroring TruncatedNormalWorkload.
struct Window {
  double bcec = 0.0;
  double wcec = 0.0;
  double acec = 0.0;
  double span = 0.0;
};

std::vector<Window> Windows(const model::TaskSet& set) {
  std::vector<Window> windows;
  windows.reserve(set.size());
  for (model::TaskIndex i = 0; i < set.size(); ++i) {
    const model::Task& t = set.task(i);
    windows.push_back(Window{t.bcec, t.wcec, t.acec, t.wcec - t.bcec});
  }
  return windows;
}

double Clamp01(double f) { return std::min(1.0, std::max(0.0, f)); }

// ----------------------------------------------------------------- bimodal --

/// Cache-hit/miss mixture: 3/4 of jobs from a narrow mode near BCEC, 1/4
/// from a narrow mode near WCEC.  Mode width span / (2 * sigma_divisor) —
/// half the i.i.d. scenario's sigma, so the modes stay separated.
class BimodalWorkload final : public model::WorkloadSampler {
 public:
  BimodalWorkload(const model::TaskSet& set, double sigma_divisor) {
    for (const Window& w : Windows(set)) {
      const double sigma = w.span / (2.0 * sigma_divisor);
      hit_.emplace_back(w.bcec + 0.2 * w.span, sigma, w.bcec, w.wcec);
      miss_.emplace_back(w.wcec - 0.1 * w.span, sigma, w.bcec, w.wcec);
    }
  }

  double SampleCycles(model::TaskIndex task, stats::Rng& rng) const override {
    ACS_REQUIRE(task < hit_.size(), "task index out of range");
    const bool hit = rng.NextDouble() < kHitProbability;
    return (hit ? hit_[task] : miss_[task]).Sample(rng);
  }

  static constexpr double kHitProbability = 0.75;

 private:
  std::vector<stats::TruncatedNormal> hit_;
  std::vector<stats::TruncatedNormal> miss_;
};

// ------------------------------------------------------------------ bursty --

/// Two-state Markov-modulated process per task: a light phase drawing near
/// BCEC + 0.25 span alternates with sticky heavy phases near BCEC + 0.85
/// span.  P(light -> heavy) = 0.1 and P(heavy -> light) = 0.2 per job, so
/// phases last 10 / 5 jobs on average — long enough that the online
/// reclamation sees sustained slack droughts, not i.i.d. noise.
class BurstyWorkload final : public model::WorkloadSampler {
 public:
  BurstyWorkload(const model::TaskSet& set, double sigma_divisor) {
    for (const Window& w : Windows(set)) {
      const double sigma = w.span / (2.0 * sigma_divisor);
      light_.emplace_back(w.bcec + 0.25 * w.span, sigma, w.bcec, w.wcec);
      heavy_.emplace_back(w.bcec + 0.85 * w.span, sigma, w.bcec, w.wcec);
    }
    heavy_phase_.assign(light_.size(), 0);
  }

  double SampleCycles(model::TaskIndex task, stats::Rng& rng) const override {
    ACS_REQUIRE(task < light_.size(), "task index out of range");
    const bool heavy = heavy_phase_[task] != 0;
    const double cycles = (heavy ? heavy_[task] : light_[task]).Sample(rng);
    const double u = rng.NextDouble();
    if (heavy ? u < kHeavyToLight : u < kLightToHeavy) {
      heavy_phase_[task] = heavy ? 0 : 1;
    }
    return cycles;
  }

  static constexpr double kLightToHeavy = 0.1;
  static constexpr double kHeavyToLight = 0.2;

 private:
  std::vector<stats::TruncatedNormal> light_;
  std::vector<stats::TruncatedNormal> heavy_;
  mutable std::vector<unsigned char> heavy_phase_;  // per-run state
};

// -------------------------------------------------------------- heavy-tail --

/// Truncated Pareto in *fraction* space: a workload fraction f is drawn
/// from TruncatedPareto(shape, [0, kCap - 1]) / (kCap - 1) and mapped to
/// BCEC + f span, so the process is scale-free — the same distribution of
/// fractions whatever the window's magnitude (unlike a Pareto in absolute
/// cycles, whose shape would silently change when ScaleToUtilization or
/// the utilization axis rescales the task set).  With shape 1.1 and cap
/// 100, ~94% of jobs land within a ninth of the window above BCEC and a
/// few per thousand straggle past the midpoint toward WCEC.  The tail
/// index is a property of the process (not the dispersion knob), so
/// sigma_divisor is ignored.
class HeavyTailWorkload final : public model::WorkloadSampler {
 public:
  explicit HeavyTailWorkload(const model::TaskSet& set)
      : fraction_(kShape, 0.0, kCap - 1.0) {
    windows_ = Windows(set);
  }

  double SampleCycles(model::TaskIndex task, stats::Rng& rng) const override {
    ACS_REQUIRE(task < windows_.size(), "task index out of range");
    const Window& w = windows_[task];
    const double f = fraction_.Sample(rng) / (kCap - 1.0);
    return w.span > 0.0 ? w.bcec + f * w.span : w.wcec;
  }

  static constexpr double kShape = 1.1;
  static constexpr double kCap = 100.0;

 private:
  std::vector<Window> windows_;
  stats::TruncatedPareto fraction_;
};

// -------------------------------------------------------------- correlated --

/// AR(1) across successive jobs of one task, in workload-fraction space:
///   f_j = mu + rho (f_{j-1} - mu) + N(0, sigma_f),  x_j = BCEC + f_j span
/// with mu = (ACEC - BCEC) / span, rho = 0.8 and sigma_f chosen so the
/// stationary standard deviation equals the i.i.d. scenario's 1 /
/// sigma_divisor (in fraction units) — same long-run dispersion, opposite
/// short-run predictability.  Fractions clamp to [0, 1], which keeps every
/// draw inside the window (and is exactly the truncation the i.i.d. law
/// applies by rejection).
class CorrelatedWorkload final : public model::WorkloadSampler {
 public:
  CorrelatedWorkload(const model::TaskSet& set, double sigma_divisor)
      : innovation_sigma_((1.0 / sigma_divisor) *
                          std::sqrt(1.0 - kRho * kRho)) {
    windows_ = Windows(set);
    mu_.reserve(windows_.size());
    prev_.reserve(windows_.size());
    for (const Window& w : windows_) {
      const double mu = w.span > 0.0 ? (w.acec - w.bcec) / w.span : 0.0;
      mu_.push_back(Clamp01(mu));
      prev_.push_back(Clamp01(mu));
    }
  }

  double SampleCycles(model::TaskIndex task, stats::Rng& rng) const override {
    ACS_REQUIRE(task < windows_.size(), "task index out of range");
    const Window& w = windows_[task];
    if (w.span <= 0.0) {
      return w.wcec;
    }
    const double f =
        Clamp01(mu_[task] + kRho * (prev_[task] - mu_[task]) +
                rng.Normal(0.0, innovation_sigma_));
    prev_[task] = f;
    return w.bcec + f * w.span;
  }

  static constexpr double kRho = 0.8;

 private:
  std::vector<Window> windows_;
  std::vector<double> mu_;
  double innovation_sigma_;
  mutable std::vector<double> prev_;  // per-run AR(1) state
};

// ------------------------------------------------------------------- trace --

/// Deterministic replay of normalised per-job fractions (see scenario.h).
class TraceWorkload final : public model::WorkloadSampler {
 public:
  TraceWorkload(const model::TaskSet& set,
                std::shared_ptr<const std::vector<double>> fractions)
      : fractions_(std::move(fractions)) {
    windows_ = Windows(set);
    cursor_.reserve(windows_.size());
    for (model::TaskIndex i = 0; i < windows_.size(); ++i) {
      cursor_.push_back(i % fractions_->size());  // per-task phase offset
    }
  }

  double SampleCycles(model::TaskIndex task, stats::Rng&) const override {
    ACS_REQUIRE(task < windows_.size(), "task index out of range");
    const Window& w = windows_[task];
    std::size_t& cursor = cursor_[task];
    const double f = (*fractions_)[cursor];
    cursor = (cursor + 1) % fractions_->size();
    return w.span > 0.0 ? w.bcec + f * w.span : w.wcec;
  }

 private:
  std::vector<Window> windows_;
  std::shared_ptr<const std::vector<double>> fractions_;
  mutable std::vector<std::size_t> cursor_;  // per-run replay positions
};

// --------------------------------------------------------------- factories --

class IidNormalScenario final : public model::WorkloadScenario {
 public:
  std::unique_ptr<model::WorkloadSampler> MakeSampler(
      const model::TaskSet& set, double sigma_divisor) const override {
    return std::make_unique<model::TruncatedNormalWorkload>(set,
                                                            sigma_divisor);
  }
};

class BimodalScenario final : public model::WorkloadScenario {
 public:
  std::unique_ptr<model::WorkloadSampler> MakeSampler(
      const model::TaskSet& set, double sigma_divisor) const override {
    return std::make_unique<BimodalWorkload>(set, sigma_divisor);
  }
};

class BurstyScenario final : public model::WorkloadScenario {
 public:
  std::unique_ptr<model::WorkloadSampler> MakeSampler(
      const model::TaskSet& set, double sigma_divisor) const override {
    return std::make_unique<BurstyWorkload>(set, sigma_divisor);
  }
};

class HeavyTailScenario final : public model::WorkloadScenario {
 public:
  std::unique_ptr<model::WorkloadSampler> MakeSampler(
      const model::TaskSet& set, double /*sigma_divisor*/) const override {
    return std::make_unique<HeavyTailWorkload>(set);
  }

  bool UsesSigmaDivisor() const override { return false; }
};

class CorrelatedScenario final : public model::WorkloadScenario {
 public:
  std::unique_ptr<model::WorkloadSampler> MakeSampler(
      const model::TaskSet& set, double sigma_divisor) const override {
    return std::make_unique<CorrelatedWorkload>(set, sigma_divisor);
  }
};

class TraceScenario final : public model::WorkloadScenario {
 public:
  explicit TraceScenario(std::vector<double> fractions) {
    ACS_REQUIRE(!fractions.empty(),
                "trace scenario needs at least one workload fraction");
    for (double& f : fractions) {
      f = Clamp01(f);
    }
    fractions_ = std::make_shared<const std::vector<double>>(
        std::move(fractions));
  }

  std::unique_ptr<model::WorkloadSampler> MakeSampler(
      const model::TaskSet& set, double /*sigma_divisor*/) const override {
    return std::make_unique<TraceWorkload>(set, fractions_);
  }

  bool UsesSigmaDivisor() const override { return false; }

 private:
  std::shared_ptr<const std::vector<double>> fractions_;
};

/// The built-in "trace" entry's synthetic recording: a fixed 16-job pattern
/// mixing near-best, mid and near-worst jobs, so the replay path exercises
/// the whole window without needing a file.  Real recordings come in via
/// LoadTraceScenario.
std::vector<double> BuiltinTraceFractions() {
  return {0.08, 0.45, 0.92, 0.30, 0.64, 0.15, 0.78, 0.50,
          0.22, 0.99, 0.40, 0.02, 0.70, 0.35, 0.85, 0.55};
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::Builtin() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry built;
    RegisterBuiltinScenarios(built);
    return built;
  }();
  return registry;
}

void RegisterBuiltinScenarios(ScenarioRegistry& registry) {
  registry.Register("iid-normal",
                    "i.i.d. truncated normal (the paper's process)",
                    std::make_unique<IidNormalScenario>());
  registry.Register("bimodal", "cache-hit/miss mixture of two narrow modes",
                    std::make_unique<BimodalScenario>());
  registry.Register("bursty",
                    "two-state Markov-modulated light/heavy phases",
                    std::make_unique<BurstyScenario>());
  registry.Register("heavy-tail",
                    "truncated Pareto: rare near-WCEC stragglers",
                    std::make_unique<HeavyTailScenario>());
  registry.Register("correlated", "AR(1) across successive jobs of a task",
                    std::make_unique<CorrelatedScenario>());
  registry.Register("trace",
                    "deterministic replay of recorded workload fractions",
                    std::make_unique<TraceScenario>(BuiltinTraceFractions()));
}

std::unique_ptr<model::WorkloadScenario> MakeTraceScenario(
    std::vector<double> fractions) {
  return std::make_unique<TraceScenario>(std::move(fractions));
}

std::unique_ptr<model::WorkloadScenario> LoadTraceScenario(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw util::Error("cannot open trace CSV: " + path);
  }
  std::vector<double> fractions;
  std::string line;
  bool first_row = true;
  while (std::getline(in, line)) {
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') {
      continue;
    }
    const std::string field(util::Trim(util::Split(trimmed, ',').front()));
    char* end = nullptr;
    const double value = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0') {
      if (first_row) {
        first_row = false;  // header row
        continue;
      }
      throw util::Error("trace CSV " + path + ": unparsable fraction \"" +
                        field + "\"");
    }
    first_row = false;
    // strtod accepts "nan" and "inf", and NaN passes every range test
    // below, so a NaN row would clamp to BCEC and replay silently.
    if (!std::isfinite(value)) {
      throw util::Error("trace CSV " + path + ": non-finite fraction \"" +
                        field + "\"");
    }
    // The file-format boundary rejects out-of-range values outright (FP
    // noise excepted): a recording in absolute cycles would otherwise
    // clamp every job to fraction 1.0 and silently replay all-WCEC.
    if (value < -1e-9 || value > 1.0 + 1e-9) {
      throw util::Error("trace CSV " + path + ": fraction " + field +
                        " outside [0, 1] — recordings must be normalised "
                        "(0 = BCEC, 1 = WCEC), not absolute cycles");
    }
    fractions.push_back(value);
  }
  if (fractions.empty()) {
    throw util::Error("trace CSV " + path + " yields no workload fractions");
  }
  return MakeTraceScenario(std::move(fractions));
}

}  // namespace dvs::workload
