#include "core/method_registry.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <variant>

#include "core/eval_workspace.h"
#include "core/formulation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "util/error.h"
#include "workload/calibrator.h"

namespace dvs::core {
namespace {

/// Average-scenario energy of running every instance at Vmax (the no-DVS
/// ceiling): voltage is fixed, so the estimate is exact, not a replay.
double VmaxAverageEnergy(const fps::FullyPreemptiveSchedule& fps,
                         const model::DvsModel& dvs) {
  const model::TaskSet& set = fps.task_set();
  double energy = 0.0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    energy += static_cast<double>(set.InstanceCount(i)) *
              dvs.Energy(dvs.vmax(), set.task(i).acec);
  }
  return energy;
}

/// Average-scenario greedy-runtime energy of an arbitrary feasible schedule
/// (the same forward replay the NLP objective optimises).
double GreedyAverageEnergy(MethodContext& context,
                           const sim::StaticSchedule& schedule) {
  EvalWorkspace* ws = context.workspace();
  const EnergyObjective objective(
      context.fps(), context.dvs(), Scenario::kAverage,
      ws != nullptr ? &ws->objective_scratch() : nullptr);
  return objective.Replay(objective.PackSchedule(schedule)).total_energy;
}

class AcsMethod final : public ScheduleMethod {
 public:
  MethodPlan Plan(MethodContext& context) const override {
    const ScheduleResult& acs = context.Acs();
    MethodPlan plan{acs.schedule, sim::GreedyReclaimPolicy(context.dvs()),
                    acs.predicted_energy, acs.used_fallback};
    plan.ChargeSolver(acs.alm);
    return plan;
  }
};

class WcsMethod final : public ScheduleMethod {
 public:
  MethodPlan Plan(MethodContext& context) const override {
    const ScheduleResult& wcs = context.Wcs();
    MethodPlan plan{wcs.schedule, sim::GreedyReclaimPolicy(context.dvs()),
                    wcs.predicted_energy, wcs.used_fallback};
    plan.ChargeSolver(wcs.alm);
    return plan;
  }
};

class WcsStaticMethod final : public ScheduleMethod {
 public:
  MethodPlan Plan(MethodContext& context) const override {
    const ScheduleResult& wcs = context.Wcs();
    MethodPlan plan{wcs.schedule,
                    sim::StaticOnlyPolicy(context.fps(), wcs.schedule,
                                          context.dvs()),
                    wcs.predicted_energy, wcs.used_fallback};
    plan.ChargeSolver(wcs.alm);
    return plan;
  }
};

class GreedyReclaimMethod final : public ScheduleMethod {
 public:
  MethodPlan Plan(MethodContext& context) const override {
    const sim::StaticSchedule& asap = context.VmaxAsap();
    MethodPlan plan{asap, sim::GreedyReclaimPolicy(context.dvs()),
                    GreedyAverageEnergy(context, asap), false};
    return plan;
  }
};

class StaticVmaxMethod final : public ScheduleMethod {
 public:
  MethodPlan Plan(MethodContext& context) const override {
    MethodPlan plan{context.VmaxAsap(), sim::VmaxPolicy(context.dvs()),
                    VmaxAverageEnergy(context.fps(), context.dvs()), false};
    return plan;
  }
};

/// Shared skeleton of the scenario-conditioned arms: calibrate the cell's
/// scenario offline (paired CalibrationSeed stream), derive the arm's
/// PlanningPoint from the calibration, solve through the value-keyed
/// planned-solve cache, dispatch through MakePolicy (greedy reclamation by
/// default; the online arms substitute the expected-case DP policy).
class ScenarioPlannedMethod : public ScheduleMethod {
 public:
  explicit ScenarioPlannedMethod(std::string name) : name_(std::move(name)) {}

  MethodPlan Plan(MethodContext& context) const override {
    const ExperimentOptions* experiment = context.experiment();
    ACS_REQUIRE(experiment != nullptr,
                "method \"" + name_ +
                    "\" needs experiment options on the context — evaluate "
                    "through EvaluateMethod or call AttachExperiment first");

    // Resolve the arm's solve — either the single planned solve or the
    // sigma-axis continuation chain (ExperimentOptions::sigma_chain): the
    // cell's prefix chain of sigma divisors in axis order, each link seeded
    // from the previous converged schedule (the base link seeds from WCS
    // exactly like the unchained path).  The chain is a pure function of
    // the cell's grid coordinates, so results are thread-count
    // independent; links land in the per-task-set SolveCache, where
    // sibling cells at deeper sigma indices extend the chain instead of
    // re-solving its prefix.  Counters charge every link's report —
    // deterministic whether this cell solved the link or a cache served
    // it.
    const workload::Calibration* calibration = nullptr;
    std::vector<PlanningPoint> ancestry;
    std::vector<const ScheduleResult*> links;
    const ScheduleResult* solved = nullptr;
    if (experiment->sigma_chain.size() > 1) {
      ACS_REQUIRE(experiment->sigma_chain.back() == experiment->sigma_divisor,
                  "sigma_chain must end at the cell's own sigma divisor");
      ExperimentOptions step = *experiment;
      ancestry.reserve(experiment->sigma_chain.size());
      links.reserve(experiment->sigma_chain.size());
      for (const double sigma : experiment->sigma_chain) {
        obs::Span link_span("warm-link", "solve");
        if (link_span.enabled()) {
          link_span.Arg("sigma", sigma);
          link_span.Arg("link", static_cast<std::int64_t>(ancestry.size()));
        }
        step.sigma_divisor = sigma;
        calibration = &context.ScenarioCalibration(step);
        PlanningPoint point = BuildPoint(*calibration, step.planning);
        solved = &context.PlannedChained(point, ancestry, solved);
        links.push_back(solved);
        ancestry.push_back(std::move(point));
      }
    } else {
      calibration = &context.ScenarioCalibration(*experiment);
      PlanningPoint point = BuildPoint(*calibration, experiment->planning);
      solved = &context.Planned(point);
      links.push_back(solved);
      ancestry.push_back(std::move(point));
    }

    MethodPlan plan{solved->schedule,
                    MakePolicy(context, solved->schedule, *calibration,
                               *experiment),
                    solved->predicted_energy, solved->used_fallback};
    for (const ScheduleResult* link : links) {
      plan.ChargeSolver(link->alm);
    }
    Decorate(plan, *calibration, std::move(ancestry), solved);
    return plan;
  }

 protected:
  virtual PlanningPoint BuildPoint(const workload::Calibration& calibration,
                                   const PlanningOptions& options) const = 0;

  /// The online half the plan dispatches through; greedy reclamation unless
  /// an arm overrides.
  virtual sim::AnyPolicy MakePolicy(MethodContext& context,
                                    const sim::StaticSchedule& /*schedule*/,
                                    const workload::Calibration& /*calibration*/,
                                    const ExperimentOptions& /*experiment*/)
      const {
    return sim::GreedyReclaimPolicy(context.dvs());
  }

  /// Post-solve hook: the drift arm attaches its MethodPlan::DriftSpec
  /// here.  `ancestry` is the full warm-start chain including the final
  /// solve's own point; `solved` is the final (incumbent) solve.
  virtual void Decorate(MethodPlan& /*plan*/,
                        const workload::Calibration& /*calibration*/,
                        std::vector<PlanningPoint> /*ancestry*/,
                        const ScheduleResult* /*solved*/) const {}

 private:
  std::string name_;
};

class AcsScenarioMethod final : public ScenarioPlannedMethod {
 public:
  AcsScenarioMethod() : ScenarioPlannedMethod("acs-scenario") {}

 protected:
  PlanningPoint BuildPoint(const workload::Calibration& calibration,
                           const PlanningOptions&) const override {
    PlanningPoint point;
    point.cycles = calibration.mean;
    return point;
  }
};

class AcsMixtureMethod final : public ScenarioPlannedMethod {
 public:
  AcsMixtureMethod() : ScenarioPlannedMethod("acs-mixture") {}

 protected:
  PlanningPoint BuildPoint(const workload::Calibration& calibration,
                           const PlanningOptions& options) const override {
    PlanningPoint point;
    point.mixture = calibration.SampleVectors(options.mixture_samples);
    return point;
  }
};

/// Online expected-case arm: the same calibrated-mean planned schedule as
/// acs-scenario, dispatched through the expected-case DP policy instead of
/// greedy reclamation — each dispatch shapes the sub-instance's speed
/// profile by the calibrated probability the work is actually reached.
class AcsOnlineMethod : public ScenarioPlannedMethod {
 public:
  AcsOnlineMethod() : ScenarioPlannedMethod("acs-online") {}

 protected:
  explicit AcsOnlineMethod(std::string name)
      : ScenarioPlannedMethod(std::move(name)) {}

  PlanningPoint BuildPoint(const workload::Calibration& calibration,
                           const PlanningOptions&) const override {
    PlanningPoint point;
    point.cycles = calibration.mean;
    return point;
  }

  sim::AnyPolicy MakePolicy(MethodContext& context,
                            const sim::StaticSchedule& schedule,
                            const workload::Calibration& calibration,
                            const ExperimentOptions& experiment)
      const override {
    return sim::ExpectedCasePolicy(context.fps(), schedule, context.dvs(),
                                   calibration.sorted,
                                   experiment.online.dp_bins);
  }
};

/// acs-online plus mid-run drift adaptation: EvaluateMethod consumes the
/// DriftSpec and replans when the realised per-task EWMA strays from the
/// planned point (see MethodPlan::DriftSpec).
class AcsOnlineDriftMethod final : public AcsOnlineMethod {
 public:
  AcsOnlineDriftMethod() : AcsOnlineMethod("acs-online-drift") {}

 protected:
  void Decorate(MethodPlan& plan, const workload::Calibration& calibration,
                std::vector<PlanningPoint> ancestry,
                const ScheduleResult* solved) const override {
    MethodPlan::DriftSpec spec;
    spec.calibration = &calibration;
    spec.base = solved;
    spec.ancestry = std::move(ancestry);
    plan.drift = std::move(spec);
  }
};

}  // namespace

const ScheduleResult& MethodContext::Wcs() {
  obs::Span span("wcs", "solve");
  if (cache_->wcs.has_value()) {
    if (span.enabled()) {
      span.Arg("cache", "hit");
    }
    obs::Count(obs::metric::kSolveCacheHits);
    return *cache_->wcs;
  }
  if (span.enabled()) {
    span.Arg("cache", "miss");
  }
  cache_->wcs = SolveWcs(*fps_, *dvs_, workspace_);
  return *cache_->wcs;
}

const ScheduleResult& MethodContext::Acs() {
  obs::Span span("acs", "solve");
  if (cache_->acs.has_value()) {
    if (span.enabled()) {
      span.Arg("cache", "hit");
    }
    obs::Count(obs::metric::kSolveCacheHits);
    return *cache_->acs;
  }
  if (span.enabled()) {
    span.Arg("cache", "miss");
  }
  // SolveAcs, warm-started from the cached WCS instead of a fresh one.
  cache_->acs = SolveAcsFrom(*fps_, *dvs_, Wcs().schedule, workspace_);
  return *cache_->acs;
}

const sim::StaticSchedule& MethodContext::VmaxAsap() {
  if (!cache_->vmax_asap.has_value()) {
    cache_->vmax_asap = sim::BuildVmaxAsapSchedule(*fps_, *dvs_);
  }
  return *cache_->vmax_asap;
}

const workload::Calibration& MethodContext::ScenarioCalibration(
    const ExperimentOptions& options) {
  obs::Span span("calibrate", "solve");
  const std::uint64_t seed = CalibrationSeed(options);
  const std::int64_t samples = options.planning.calibration_samples;
  for (const std::unique_ptr<SolveCache::CalibrationEntry>& entry :
       cache_->calibrations) {
    // Scenario identity: pointer + persist key for live entries, persist
    // key alone for entries restored from the persistent solve cache
    // (null pointer, non-empty key) — see SolveCache::CalibrationEntry.
    const bool same_scenario =
        (entry->scenario == options.scenario &&
         entry->persist_key == options.scenario_key) ||
        (entry->scenario == nullptr && !entry->persist_key.empty() &&
         entry->persist_key == options.scenario_key);
    if (same_scenario && entry->sigma_divisor == options.sigma_divisor &&
        entry->seed == seed && entry->samples == samples) {
      if (span.enabled()) {
        span.Arg("cache", "hit");
      }
      obs::Count(obs::metric::kCalibrationHits);
      return entry->calibration;
    }
  }
  if (span.enabled()) {
    span.Arg("cache", "miss");
    span.Arg("sigma", options.sigma_divisor);
  }
  obs::Count(obs::metric::kCalibrations);
  workload::CalibratorOptions copts;
  copts.samples_per_task = samples;
  const workload::ScenarioCalibrator calibrator(
      options.scenario, options.sigma_divisor, copts);
  cache_->calibrations.push_back(
      std::make_unique<SolveCache::CalibrationEntry>(
          SolveCache::CalibrationEntry{
              options.scenario, options.sigma_divisor, seed, samples,
              calibrator.Calibrate(fps_->task_set(), seed),
              options.scenario_key}));
  return cache_->calibrations.back()->calibration;
}

const ScheduleResult& MethodContext::Planned(const PlanningPoint& planning) {
  return PlannedChained(planning, {}, nullptr);
}

const ScheduleResult& MethodContext::PlannedChained(
    const PlanningPoint& planning, const std::vector<PlanningPoint>& chain,
    const ScheduleResult* warm) {
  obs::Span span("planned", "solve");
  const std::uint64_t key = planning.Fingerprint();
  for (const std::unique_ptr<SolveCache::PlannedSolve>& entry :
       cache_->planned) {
    // Fingerprint is a fast reject; the full value comparison (point AND
    // warm-start ancestry) is the hit condition, so colliding hashes — and
    // chained-vs-unchained solves of one point — re-solve instead of
    // cross-reusing.
    if (entry->key == key && entry->planning == planning &&
        entry->chain == chain) {
      if (span.enabled()) {
        span.Arg("cache", "hit");
      }
      obs::Count(obs::metric::kSolveCacheHits);
      return entry->result;
    }
  }
  if (span.enabled()) {
    span.Arg("cache", "miss");
    span.Arg("chain_depth", static_cast<std::int64_t>(chain.size()));
  }
  std::optional<sim::StaticSchedule> warm_start;
  const opt::AlmReport* dual_seed = nullptr;
  if (warm != nullptr) {
    // Chain continuation: the neighbor's converged schedule seeds the
    // primal and its multipliers/penalty seed the ALM dual, so the link
    // polishes instead of re-running the cold tolerance ramp.
    warm_start = warm->schedule;
    dual_seed = &warm->alm;
  } else {
    warm_start = Wcs().schedule;
  }
  cache_->planned.push_back(std::make_unique<SolveCache::PlannedSolve>(
      key, planning, chain,
      SolvePlanned(*fps_, *dvs_, planning, warm_start, workspace_,
                   dual_seed)));
  return cache_->planned.back()->result;
}

const MethodRegistry& MethodRegistry::Builtin() {
  static const MethodRegistry registry = [] {
    MethodRegistry built;
    RegisterBuiltins(built);
    return built;
  }();
  return registry;
}

void RegisterBuiltins(MethodRegistry& registry) {
  registry.Register("acs", "ACS full-NLP schedule + greedy online reclamation",
                    std::make_unique<AcsMethod>());
  registry.Register("wcs", "WCS schedule + greedy online reclamation",
                    std::make_unique<WcsMethod>());
  registry.Register("wcs-static",
                    "WCS schedule, offline voltages only (no reclamation)",
                    std::make_unique<WcsStaticMethod>());
  registry.Register("greedy-reclaim",
                    "Vmax-ASAP schedule + greedy reclamation (online only)",
                    std::make_unique<GreedyReclaimMethod>());
  registry.Register("static-vmax", "Vmax throughout (the no-DVS ceiling)",
                    std::make_unique<StaticVmaxMethod>());
  registry.Register("acs-scenario",
                    "ACS planned at the scenario's calibrated per-task mean",
                    std::make_unique<AcsScenarioMethod>());
  registry.Register("acs-mixture",
                    "ACS whose objective averages K calibrated sample "
                    "vectors",
                    std::make_unique<AcsMixtureMethod>());
  registry.Register("acs-online",
                    "calibrated-mean plan + expected-case online DP "
                    "dispatch (--online-dp-bins)",
                    std::make_unique<AcsOnlineMethod>());
  registry.Register("acs-online-drift",
                    "acs-online + EWMA drift detector with warm-started "
                    "mid-run replans (--drift-ewma / --drift-threshold)",
                    std::make_unique<AcsOnlineDriftMethod>());
}

namespace {

/// DP-dispatch count of a plan's policy (0 for non-expected-case policies).
std::int64_t PolicyDpDispatches(const sim::AnyPolicy& policy) {
  if (const auto* expected =
          std::get_if<sim::ExpectedCasePolicy>(&policy.builtin())) {
    return expected->dp_dispatches();
  }
  return 0;
}

/// The engine options of one evaluation run of `hyper_periods`.
sim::SimOptions RunSimOptions(const ExperimentOptions& options,
                              std::int64_t hyper_periods) {
  sim::SimOptions sim_options;
  sim_options.hyper_periods = hyper_periods;
  sim_options.transition = options.transition;
  if (options.dpm.enabled) {
    sim_options.dpm = true;
    sim_options.idle_power = options.dpm.idle;
    sim_options.sleep = options.dpm.sleep;
  }
  return sim_options;
}

/// Sampler draws a run made: one per activated release.
std::int64_t DrawCount(const sim::SimResult& sim) {
  std::int64_t draws = 0;
  for (const std::int64_t count : sim.sampled_counts) {
    draws += count;
  }
  return draws;
}

/// The outcome of one evaluation: the plan's offline fields plus the run's
/// simulated totals, energies normalised per hyper-period.  `Run` is a
/// sim::SimResult or the drift loop's RunTotals (same member names).
template <typename Run>
MethodOutcome AssembleOutcome(const MethodPlan& plan, const Run& run,
                              std::int64_t hyper_periods) {
  const double norm =
      hyper_periods > 0 ? 1.0 / static_cast<double>(hyper_periods) : 0.0;
  MethodOutcome outcome;
  outcome.predicted_energy = plan.predicted_energy;
  outcome.measured_energy =
      hyper_periods > 0
          ? run.total_energy / static_cast<double>(hyper_periods)
          : 0.0;
  outcome.deadline_misses = run.deadline_misses;
  outcome.voltage_switches = run.voltage_switches;
  outcome.used_fallback = plan.used_fallback;
  outcome.solver_outer_iterations = plan.solver_outer_iterations;
  outcome.solver_inner_iterations = plan.solver_inner_iterations;
  outcome.solver_evaluations = plan.solver_evaluations;
  outcome.solver_inner_capped = plan.solver_inner_capped;
  outcome.solver_max_violation = plan.solver_max_violation;
  outcome.idle_energy = run.idle_energy * norm;
  outcome.sleep_energy = run.sleep_energy * norm;
  outcome.sleep_time = run.sleep_time;
  outcome.sleeps = run.sleeps;
  return outcome;
}

/// A drift run's totals, summed over its one-hyper-period chunks.
struct RunTotals {
  double total_energy = 0.0;
  std::int64_t deadline_misses = 0;
  std::int64_t voltage_switches = 0;
  double idle_energy = 0.0;
  double sleep_energy = 0.0;
  double sleep_time = 0.0;
  std::int64_t sleeps = 0;

  void Add(const sim::SimResult& sim) {
    total_energy += sim.total_energy;
    deadline_misses += sim.deadline_misses;
    voltage_switches += sim.voltage_switches;
    idle_energy += sim.idle_energy;
    sleep_energy += sim.sleep_energy;
    sleep_time += sim.sleep_time;
    sleeps += sim.sleeps;
  }
};

/// The drift-adaptive evaluation loop (MethodPlan::DriftSpec): simulate one
/// hyper-period at a time against the *same* sampler and rng stream (so
/// stateful scenarios keep their phase across chunks and energy sums
/// exactly), fold each batch's realised per-task mean cycles into an EWMA,
/// and replan at the EWMA point through PlannedChained — seeded from the
/// incumbent solve, cached by exact point + ancestry — whenever the drift
/// exceeds the configured threshold.  Every input of a replan (the EWMA) is
/// a pure function of (options.seed, scenario), so replan points, counters
/// and energies are bit-identical at any thread count.
MethodOutcome EvaluateWithDrift(MethodContext& context,
                                const ExperimentOptions& options,
                                MethodPlan& plan,
                                EvaluationCounters& counters) {
  const model::TaskSet& set = context.fps().task_set();
  const MethodPlan::DriftSpec& spec = *plan.drift;
  const workload::Calibration& calibration = *spec.calibration;
  const OnlineOptions& online = options.online;
  online.Validate();

  const std::unique_ptr<model::WorkloadSampler> sampler =
      MakeRunSampler(options, set);
  stats::Rng rng(options.seed);
  const sim::SimOptions chunk_options = RunSimOptions(options, 1);

  EvalWorkspace* ws = context.workspace();
  sim::EngineWorkspace own_engine;
  sim::EngineWorkspace& engine = ws != nullptr ? ws->engine() : own_engine;

  // Current plan state; replans swap these.  The replanned solves live in
  // the context's SolveCache, so the references outlive the loop.
  const sim::StaticSchedule* schedule = &plan.schedule;
  std::vector<PlanningPoint> ancestry = spec.ancestry;
  const ScheduleResult* incumbent = spec.base;
  std::vector<double> planned(set.size(), 0.0);
  std::vector<double> ewma(set.size(), 0.0);
  for (std::size_t i = 0; i < set.size(); ++i) {
    planned[i] = PlanningPoint::ResolveFor(ancestry.back().cycles, set, i);
    ewma[i] = planned[i];
  }

  RunTotals run;
  std::int64_t dp_dispatches = 0;
  std::int64_t replans = 0;
  std::int64_t draws = 0;
  std::vector<double> scale(set.size(), 1.0);

  for (std::int64_t hp = 0; hp < options.hyper_periods; ++hp) {
    const sim::SimResult& sim =
        sim::Simulate(context.fps(), *schedule, context.dvs(), plan.policy,
                      *sampler, rng, chunk_options, engine);
    run.Add(sim);
    draws += DrawCount(sim);

    // EWMA over this hyper-period's realised per-task mean cycles.
    double drift = 0.0;
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (sim.sampled_counts[i] > 0) {
        const double batch = sim.sampled_cycles[i] /
                             static_cast<double>(sim.sampled_counts[i]);
        ewma[i] = (1.0 - online.drift_ewma) * ewma[i] +
                  online.drift_ewma * batch;
      }
      const model::Task& task = set.task(i);
      const double span = task.wcec - task.bcec;
      if (span > 0.0) {
        drift = std::max(drift, std::fabs(ewma[i] - planned[i]) / span);
      }
    }
    if (drift <= online.drift_threshold || hp + 1 >= options.hyper_periods) {
      continue;
    }

    // Replan at the drifted point, warm-started from the incumbent.
    ++replans;
    obs::Span replan_span("drift-replan", "solve");
    if (replan_span.enabled()) {
      replan_span.Arg("hyper_period", hp);
      replan_span.Arg("drift", drift);
    }
    PlanningPoint point;
    point.cycles = ewma;
    const ScheduleResult& replanned =
        context.PlannedChained(point, ancestry, incumbent);
    plan.ChargeSolver(replanned.alm);
    plan.used_fallback = plan.used_fallback || replanned.used_fallback;
    ancestry.push_back(std::move(point));
    incumbent = &replanned;
    schedule = &replanned.schedule;
    for (std::size_t i = 0; i < set.size(); ++i) {
      planned[i] = PlanningPoint::ResolveFor(ancestry.back().cycles, set, i);
      scale[i] = calibration.mean[i] > 0.0 ? ewma[i] / calibration.mean[i]
                                           : 1.0;
    }
    // Rebuild the DP tables against the replanned schedule with the law
    // stretched to the EWMA (sub-instance budgets changed, so the old
    // tables no longer describe the plan).
    dp_dispatches += PolicyDpDispatches(plan.policy);
    plan.policy = sim::ExpectedCasePolicy(context.fps(), replanned.schedule,
                                          context.dvs(), calibration.sorted,
                                          online.dp_bins, &scale);
  }
  dp_dispatches += PolicyDpDispatches(plan.policy);
  // Result-charged telemetry: replans and DP dispatches are pure functions
  // of the cell, so the aggregated counters stay thread-count invariant.
  counters.drift_replans = replans;
  counters.dp_dispatches = dp_dispatches;
  counters.sampler_draws = draws;
  return AssembleOutcome(plan, run, options.hyper_periods);
}

}  // namespace

std::vector<MethodOutcome> EvaluateMethods(
    const std::vector<const ScheduleMethod*>& methods, MethodContext& context,
    const ExperimentOptions& options, EvaluationCounters* counters) {
  // Scenario-conditioned arms read the experiment (scenario, seed,
  // planning knobs) at Plan() time; attaching here makes every evaluation
  // funnel — runner cells, mp per-core fan-out, the CompareAcsWcs shim —
  // planning-capable without call-site changes.
  context.AttachExperiment(options);
  const sim::SimOptions sim_options =
      RunSimOptions(options, options.hyper_periods);
  EvalWorkspace* ws = context.workspace();
  sim::EngineWorkspace own_engine;
  sim::EngineWorkspace& engine = ws != nullptr ? ws->engine() : own_engine;
  std::vector<model::RecordedDraw> own_record;
  std::vector<model::RecordedDraw>& record =
      ws != nullptr ? ws->realisation() : own_record;
  bool recorded = false;

  std::vector<MethodOutcome> outcomes;
  outcomes.reserve(methods.size());
  // Each arm's counters are charged once the arm has finished, so a failing
  // arm charges nothing.
  const auto charge = [counters](const EvaluationCounters& arm) {
    arm.Charge();
    if (counters != nullptr) {
      *counters += arm;
    }
  };
  for (const ScheduleMethod* method : methods) {
    MethodPlan plan = method->Plan(context);
    EvaluationCounters arm;
    if (plan.drift.has_value()) {
      // Drift arms simulate chunk by chunk against their own fresh
      // sampler, which continues across chunks.
      outcomes.push_back(EvaluateWithDrift(context, options, plan, arm));
      charge(arm);
      continue;
    }

    obs::Span span("simulate", "sim");
    if (span.enabled()) {
      span.Arg("hyper_periods", options.hyper_periods);
    }
    // One realisation per (context, options.seed, scenario): the engine
    // draws once per release in global release order whatever the policy
    // does, so the first arm's draws are exactly what a fresh sampler would
    // hand every later arm.  The first arm records them through the real
    // sampler (fresh per evaluation: stateful scenarios restart per run);
    // later arms replay the record, checked draw by draw.  The record
    // counts only once its simulation returned normally.
    stats::Rng rng(options.seed);
    const sim::SimResult* sim = nullptr;
    if (recorded) {
      const model::ReplaySampler replay(record);
      sim = &sim::Simulate(context.fps(), plan.schedule, context.dvs(),
                           plan.policy, replay, rng, sim_options, engine);
      replay.CheckFullyUsed();
      arm.replayed_draws = static_cast<std::int64_t>(replay.used());
    } else {
      const std::unique_ptr<model::WorkloadSampler> sampler =
          MakeRunSampler(options, context.fps().task_set());
      record.clear();
      const model::RecordingSampler recorder(*sampler, record);
      sim = &sim::Simulate(context.fps(), plan.schedule, context.dvs(),
                           plan.policy, recorder, rng, sim_options, engine);
      recorded = true;
      arm.sampler_draws = static_cast<std::int64_t>(record.size());
    }

    // Result-charged: the DP-dispatch count is part of the deterministic
    // simulation outcome, so the aggregate is thread-count invariant.
    arm.dp_dispatches = PolicyDpDispatches(plan.policy);
    outcomes.push_back(AssembleOutcome(plan, *sim, options.hyper_periods));
    charge(arm);
  }
  return outcomes;
}

MethodOutcome EvaluateMethod(const ScheduleMethod& method,
                             MethodContext& context,
                             const ExperimentOptions& options) {
  return EvaluateMethods({&method}, context, options).front();
}

}  // namespace dvs::core
