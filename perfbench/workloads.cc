// The perfbench workloads.  Each is closed loop with one client and reaches
// the library only through its public entry points:
//
//   sim-online  set-up plans a few dozen small sets; one op simulates one
//               set under one of its realisation streams and five arms
//               (expected-case DP dispatch included), all arms on identical
//               realisations;
//   grid-warm   set-up runs a multi-core DPM grid cold into a fresh
//               SolveStore and writes it back; each timed boot reruns the
//               grid on fresh workspaces over a read-only store handle, and
//               one op is one cell.
//
// Inputs are pure functions of --seed.  Each workload's task sets come from
// a fixed corpus drawn stratified by sub-instance count, so op sizes spread
// evenly over a fixed range; the seed drives the grid's master seed and
// every visiting order.  The sim-online plans and realisation streams are
// fixed as well: realised heavy-tail work moved its median op by a quarter
// from seed to seed.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench.h"
#include "core/eval_workspace.h"
#include "core/method_registry.h"
#include "core/pipeline.h"
#include "core/solve_store.h"
#include "dpm/dpm.h"
#include "dpm/reallocate.h"
#include "fps/expansion.h"
#include "mp/partition.h"
#include "mp/partitioner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/run_grid.h"
#include "sim/engine.h"
#include "sim/static_schedule.h"
#include "stats/rng.h"
#include "util/error.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using namespace dvs;

/// Seed of the fixed task-set corpora (and of the sim-online inputs).  Op
/// time depends on the sets far more than on anything else, so the corpora
/// stay fixed and run-to-run spread measures the program, not the draw.
constexpr std::uint64_t kCorpusSeed = 20050307;

std::uint64_t Derive(std::uint64_t seed, std::uint64_t label) {
  return stats::Rng(seed).ForkWith(label).NextU64();
}

// ------------------------------------------------------------ inputs ---

struct CorpusSpec {
  std::vector<int> task_counts;
  std::vector<double> ratios;
  std::size_t per_combo = 1;    // sets per (task count, ratio) combination
  std::size_t min_subs = 20;    // sub-instance strata span [min, max]
  std::size_t max_subs = 200;
  double utilization = 0.7;
  bool multi_core = false;
  /// Extra admission test a drawn set must pass (null accepts every set).
  std::function<bool(const model::TaskSet&)> accept;
};

/// Draws per_combo sets for every (task count, ratio) combination, one per
/// equal-width stratum of the sub-instance range, and interleaves them so
/// any prefix of the corpus mixes every combination and size.
std::vector<model::TaskSet> StratifiedCorpus(const CorpusSpec& spec,
                                             const model::DvsModel& dvs,
                                             std::uint64_t seed) {
  const std::size_t combos = spec.task_counts.size() * spec.ratios.size();
  std::vector<std::vector<std::optional<model::TaskSet>>> strata(
      combos, std::vector<std::optional<model::TaskSet>>(spec.per_combo));
  const double width = static_cast<double>(spec.max_subs - spec.min_subs) /
                       static_cast<double>(spec.per_combo);
  for (std::size_t c = 0; c < combos; ++c) {
    workload::RandomTaskSetOptions gen;
    gen.num_tasks = spec.task_counts[c / spec.ratios.size()];
    gen.bcec_wcec_ratio = spec.ratios[c % spec.ratios.size()];
    gen.utilization = spec.utilization;
    gen.multi_core = spec.multi_core;
    gen.max_sub_instances =
        spec.multi_core ? spec.max_subs / 2 : spec.max_subs;
    stats::Rng rng = stats::Rng(seed).ForkWith(c);
    std::size_t filled = 0;
    const std::size_t budget = 50 * spec.per_combo;
    for (std::size_t attempt = 0; filled < spec.per_combo; ++attempt) {
      std::optional<model::TaskSet> set;
      try {
        set.emplace(workload::GenerateRandomTaskSet(gen, dvs, rng));
      } catch (const util::Error&) {
        continue;
      }
      const std::size_t subs = fps::FullyPreemptiveSchedule(*set).sub_count();
      if (subs > spec.max_subs || (spec.accept && !spec.accept(*set))) {
        continue;
      }
      const double position =
          (static_cast<double>(subs) - static_cast<double>(spec.min_subs)) /
          width;
      std::size_t stratum = spec.per_combo;
      if (position >= 0.0 &&
          position < static_cast<double>(spec.per_combo)) {
        stratum = static_cast<std::size_t>(position);
      }
      if (stratum < spec.per_combo && !strata[c][stratum].has_value()) {
        strata[c][stratum] = std::move(set);
        ++filled;
      } else if (attempt >= budget) {
        // A stratum this combination cannot reach: take the first free.
        for (std::optional<model::TaskSet>& slot : strata[c]) {
          if (!slot.has_value()) {
            slot = std::move(set);
            ++filled;
            break;
          }
        }
      }
    }
  }
  std::vector<model::TaskSet> corpus;
  for (std::size_t s = 0; s < spec.per_combo; ++s) {
    for (std::size_t c = 0; c < combos; ++c) {
      corpus.push_back(std::move(*strata[c][s]));
    }
  }
  return corpus;
}

/// A seeded visiting order of `n` items.
std::vector<std::size_t> Permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  stats::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.UniformInt(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  return order;
}

// ------------------------------------------------------ layer sums ---

/// Per-layer accumulators of a traced run.  Each workload fills what its
/// ops exercise; layers a workload never touches stay at zero.
struct LayerSums {
  double expand_ms = 0.0;
  double sub_instances = 0.0;
  std::int64_t expansions = 0;
  double calibrate_ms = 0.0;
  double wcs_ms = 0.0;
  double acs_ms = 0.0;
  double planned_ms = 0.0;
  std::int64_t plans = 0;

  std::int64_t solves = 0;
  double evaluations = 0.0;
  double inner = 0.0;
  double outer = 0.0;
  std::int64_t capped = 0;
  std::int64_t fallbacks = 0;
  double max_violation = 0.0;

  double greedy_us = 0.0;
  double greedy_hp = 0.0;
  double dp_us = 0.0;
  double dp_hp = 0.0;
  double dispatches = 0.0;
  double dp_dispatches = 0.0;
  double switches = 0.0;
  double sim_hp = 0.0;

  double untraced_ms = 0.0;  // paired untraced / traced wall of one work unit
  double traced_ms = 0.0;
  std::int64_t timed_solves = 0;

  void AddSolve(const opt::AlmReport& alm, bool used_fallback) {
    ++solves;
    evaluations += static_cast<double>(alm.evaluations);
    inner += static_cast<double>(alm.total_inner_iterations);
    outer += static_cast<double>(alm.outer_iterations);
    capped += alm.inner_status == opt::SolveStatus::kMaxIterations ? 1 : 0;
    fallbacks += used_fallback ? 1 : 0;
    max_violation = std::max(max_violation, alm.max_violation);
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Writes every per-layer metric of the benchmark; `extra` carries the
/// grid-only layers (mp, dpm, store, runner).
void EmitLayers(const LayerSums& s, const std::map<std::string, double>& extra,
                Report& report) {
  const double plans = static_cast<double>(s.plans);
  const double solves = static_cast<double>(s.solves);
  std::map<std::string, double>& l = report.layers;
  l["workload.calibrate_ms"] = Ratio(s.calibrate_ms, plans);
  l["fps.expand_ms"] = Ratio(s.expand_ms, static_cast<double>(s.expansions));
  l["fps.sub_instances"] =
      Ratio(s.sub_instances, static_cast<double>(s.expansions));
  l["core.solve_wcs_ms"] = Ratio(s.wcs_ms, plans);
  l["core.solve_acs_ms"] = Ratio(s.acs_ms, plans);
  l["core.solve_planned_ms"] = Ratio(s.planned_ms, plans);
  l["core.timed_solves"] = static_cast<double>(s.timed_solves);
  l["opt.evaluations_per_solve"] = Ratio(s.evaluations, solves);
  l["opt.inner_iterations_per_solve"] = Ratio(s.inner, solves);
  l["opt.outer_iterations_per_solve"] = Ratio(s.outer, solves);
  l["opt.capped_ratio"] = Ratio(static_cast<double>(s.capped), solves);
  l["opt.max_violation"] = s.max_violation;
  l["core.fallback_ratio"] = Ratio(static_cast<double>(s.fallbacks), solves);
  l["sim.greedy_us_per_hp"] = Ratio(s.greedy_us, s.greedy_hp);
  l["sim.expected_case_us_per_hp"] = Ratio(s.dp_us, s.dp_hp);
  l["sim.dispatches_per_hp"] = Ratio(s.dispatches, s.sim_hp);
  l["sim.dp_dispatches_per_hp"] = Ratio(s.dp_dispatches, s.dp_hp);
  l["sim.voltage_switches_per_hp"] = Ratio(s.switches, s.sim_hp);
  for (const char* name :
       {"mp.partition_us", "mp.fleet_ms", "dpm.consolidate_us",
        "dpm.sleeps_per_hp", "dpm.migrations", "core.store_load_us",
        "core.store_writeback_ms", "core.store_entry_bytes",
        "core.persist_hit_ratio", "core.prepare_hit_ratio",
        "runner.worker_busy_ratio", "runner.overhead_ms",
        "runner.family_steals"}) {
    l[name] = 0.0;
  }
  for (const auto& [name, value] : extra) {
    l[name] = value;
  }
  l["obs.overhead_ratio"] = Ratio(s.traced_ms, s.untraced_ms);
}

/// Installs a fresh trace recorder and metrics registry (with a shard for
/// the calling thread) for one traced unit of work.
class TracedScope {
 public:
  TracedScope() {
    metrics_.EnsureShards(1);
    obs::InstallMetrics(&metrics_);
    obs::TraceRecorder::Install(&recorder_);
    shard_.emplace(&metrics_.Shard(0));
  }
  ~TracedScope() { Stop(); }
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;

  /// Uninstalls both (idempotent); the recordings stay readable.
  void Stop() {
    shard_.reset();
    obs::TraceRecorder::Install(nullptr);
    obs::InstallMetrics(nullptr);
  }

  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::TraceRecorder& recorder() const { return recorder_; }

  std::int64_t Counter(const std::string& name) const {
    for (const obs::AggregatedMetric& metric : metrics_.Aggregate()) {
      if (metric.name == name) {
        return metric.count;
      }
    }
    return 0;
  }

  std::int64_t Solves() const {
    return Counter("solve.wcs_solves") + Counter("solve.acs_solves") +
           Counter("solve.planned_solves");
  }

 private:
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder recorder_;
  std::optional<obs::ScopedMetricsShard> shard_;
};

// ------------------------------------------------- single-set plans ---

const char* const kArmNames[] = {"static-vmax", "wcs", "acs", "acs-scenario",
                                 "acs-online"};
constexpr std::size_t kVmax = 0;
constexpr std::size_t kOnline = 4;

/// One task set with its expansion and solve context.  Heap-held so the
/// expansion's and context's references into it stay valid.
struct SetPlan {
  SetPlan(model::TaskSet task_set, const model::DvsModel& dvs,
          const core::SchedulerOptions& scheduler,
          core::ExperimentOptions experiment, LayerSums* sums)
      : set(std::move(task_set)), options(std::move(experiment)) {
    const Clock::time_point start = Clock::now();
    fps.emplace(set);
    if (sums != nullptr) {
      sums->expand_ms += MsSince(start);
      sums->sub_instances += static_cast<double>(fps->sub_count());
      ++sums->expansions;
    }
    context.emplace(*fps, dvs, scheduler);
    context->AttachExperiment(options);
  }

  model::TaskSet set;
  core::ExperimentOptions options;
  std::optional<fps::FullyPreemptiveSchedule> fps;
  std::optional<core::MethodContext> context;
};

/// Runs the offline solves every arm needs (WCS, ACS, calibration, the
/// calibrated-mean planned solve) and audits each schedule with the
/// independent worst-case checker.  Returns an empty string or the first
/// failure.
std::string SolveAll(SetPlan& plan, LayerSums* sums) {
  core::MethodContext& ctx = *plan.context;
  Clock::time_point start = Clock::now();
  const core::ScheduleResult& wcs = ctx.Wcs();
  const double wcs_ms = MsSince(start);
  start = Clock::now();
  const core::ScheduleResult& acs = ctx.Acs();
  const double acs_ms = MsSince(start);
  start = Clock::now();
  const workload::Calibration& calibration =
      ctx.ScenarioCalibration(plan.options);
  const double calibrate_ms = MsSince(start);
  start = Clock::now();
  core::PlanningPoint point;
  point.cycles = calibration.mean;
  const core::ScheduleResult& planned = ctx.Planned(point);
  const double planned_ms = MsSince(start);
  if (sums != nullptr) {
    sums->wcs_ms += wcs_ms;
    sums->acs_ms += acs_ms;
    sums->calibrate_ms += calibrate_ms;
    sums->planned_ms += planned_ms;
    ++sums->plans;
    for (const core::ScheduleResult* result : {&wcs, &acs, &planned}) {
      sums->AddSolve(result->alm, result->used_fallback);
    }
  }
  const model::DvsModel& dvs = ctx.dvs();
  for (const auto& [name, schedule] :
       {std::pair<const char*, const sim::StaticSchedule*>{"wcs",
                                                           &wcs.schedule},
        {"acs", &acs.schedule},
        {"acs-scenario", &planned.schedule},
        {"vmax-asap", &ctx.VmaxAsap()}}) {
    const sim::FeasibilityReport audit =
        sim::VerifyWorstCase(*plan.fps, *schedule, dvs);
    if (!audit.feasible) {
      return std::string(name) + " schedule fails VerifyWorstCase: " +
             audit.detail;
    }
  }
  return {};
}

/// Solver work of a planned set (the deterministic opt counts).
double SolverEvaluations(SetPlan& plan) {
  core::MethodContext& ctx = *plan.context;
  core::PlanningPoint point;
  point.cycles = ctx.ScenarioCalibration(plan.options).mean;
  return static_cast<double>(ctx.Wcs().alm.evaluations +
                             ctx.Acs().alm.evaluations +
                             ctx.Planned(point).alm.evaluations);
}

/// Simulates arms [0, arm_count) of `plan` for `hyper_periods` on the
/// identical realisation stream `sim_seed`, exactly like
/// core::EvaluateMethod.  Fills `energy` (per hyper-period) and returns an
/// empty string or the first failure.
std::string SimulateArms(SetPlan& plan, std::size_t arm_count,
                         std::int64_t hyper_periods, std::uint64_t sim_seed,
                         sim::EngineWorkspace& engine,
                         std::vector<double>& energy, LayerSums* sums) {
  const core::MethodRegistry& registry = core::MethodRegistry::Builtin();
  energy.assign(arm_count, 0.0);
  sim::SimOptions sim_options;
  sim_options.hyper_periods = hyper_periods;
  sim_options.transition = plan.options.transition;
  for (std::size_t a = 0; a < arm_count; ++a) {
    const Clock::time_point start = Clock::now();
    const core::MethodPlan method_plan =
        registry.Get(kArmNames[a]).Plan(*plan.context);
    const std::unique_ptr<model::WorkloadSampler> sampler =
        core::MakeRunSampler(plan.options, plan.set);
    stats::Rng rng(sim_seed);
    const sim::SimResult& result =
        sim::Simulate(*plan.fps, method_plan.schedule, plan.context->dvs(),
                      method_plan.policy, *sampler, rng, sim_options, engine);
    if (sums != nullptr) {
      const double us = MsSince(start) * 1000.0;
      const double hp = static_cast<double>(hyper_periods);
      if (a == kOnline) {
        sums->dp_us += us;
        sums->dp_hp += hp;
        if (const auto* expected = std::get_if<sim::ExpectedCasePolicy>(
                &method_plan.policy.builtin())) {
          sums->dp_dispatches += static_cast<double>(expected->dp_dispatches());
        }
      } else {
        sums->greedy_us += us;
        sums->greedy_hp += hp;
      }
      sums->dispatches += static_cast<double>(result.dispatches);
      sums->switches += static_cast<double>(result.voltage_switches);
      sums->sim_hp += hp;
    }
    if (result.deadline_misses != 0) {
      return std::string(kArmNames[a]) + " missed " +
             std::to_string(result.deadline_misses) + " deadlines: " +
             result.first_miss;
    }
    energy[a] = result.EnergyPerHyperPeriod(hyper_periods);
  }
  for (std::size_t a = 0; a < arm_count; ++a) {
    const double norm = energy[a] / energy[kVmax];
    if (!std::isfinite(norm) || norm <= 0.0 || norm > 1.0) {
      return std::string(kArmNames[a]) + " energy norm out of (0, 1]: " +
             std::to_string(norm);
    }
  }
  return {};
}

/// The deterministic outputs of one input: per-arm energy (arm order of
/// kArmNames) and the solver evaluations its plans took.
struct Outputs {
  std::vector<double> energy;
  double evaluations = 0.0;

  bool operator==(const Outputs& other) const {
    return energy == other.energy && evaluations == other.evaluations;
  }
};

/// Each input's outputs on its first visit; every revisit must reproduce
/// them bit for bit.
class FirstVisits {
 public:
  explicit FirstVisits(std::size_t inputs) : outputs_(inputs) {}

  /// Records a first visit; returns false when a revisit differs from it.
  bool Record(std::size_t input, Outputs outputs) {
    if (!outputs_[input].has_value()) {
      outputs_[input] = std::move(outputs);
      return true;
    }
    return *outputs_[input] == outputs;
  }

  /// Writes the mean per-arm energy norms (arm / static-vmax) and the mean
  /// solver evaluations over the visited inputs, summed in input order.
  void Emit(Report& report, const std::string& evaluations_key) const {
    std::vector<double> sum(std::size(kArmNames), 0.0);
    double evaluations = 0.0;
    double count = 0.0;
    std::size_t arms = 0;
    for (const std::optional<Outputs>& out : outputs_) {
      if (!out.has_value()) {
        continue;
      }
      arms = std::max(arms, out->energy.size());
      for (std::size_t a = 0; a < out->energy.size(); ++a) {
        sum[a] += out->energy[a] / out->energy[kVmax];
      }
      evaluations += out->evaluations;
      count += 1.0;
    }
    report.norms["wcs_energy_norm"] = sum[1] / count;
    report.norms["acs_energy_norm"] = sum[2] / count;
    report.norms["scenario_energy_norm"] = sum[3] / count;
    if (arms > kOnline) {
      report.norms["online_energy_norm"] = sum[kOnline] / count;
    }
    report.digest[evaluations_key] = evaluations / count;
  }

 private:
  std::vector<std::optional<Outputs>> outputs_;
};

core::ExperimentOptions SetOptions(const std::string& scenario,
                                   std::uint64_t seed) {
  core::ExperimentOptions options;
  options.scenario = &workload::ScenarioRegistry::Builtin().Get(scenario);
  options.scenario_key = scenario;
  options.seed = seed;
  return options;
}

/// Pins the calling thread to the CPUs of its starting affinity mask in
/// turn, and restores that mask when destroyed.  Pinning is best effort: a
/// failed call leaves the thread where the scheduler put it.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof allowed_, &allowed_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void PinTo(std::size_t turn) {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

/// Complete passes every run makes at least: each input is visited twice,
/// so every run checks that a revisit reproduces the first visit's outputs.
constexpr std::size_t kMinPasses = 2;

/// Time-boxed timed loop of the single-thread workload.  Visits the
/// `inputs` distinct inputs in passes, each pass in its own seeded order,
/// until `seconds` have passed and at least kMinPasses passes are complete
/// (the time box may cut the last pass short).  An input's latency is its
/// fastest visit: the host is shared, contention only ever adds time, and
/// visits of one input lie seconds apart, so the best of them estimates
/// the program's own cost.  Passes take the CPUs in turn, so a neighbour
/// that slows floating-point code on one vCPU costs an input only the
/// visits made there.  In a traced run every visit runs twice on the same
/// input — untraced, then traced — so obs.overhead_ratio compares like with
/// like.
void TimedPasses(const Config& config, std::size_t inputs, Report& report,
                 LayerSums* sums,
                 const std::function<void(std::size_t, LayerSums*)>& op) {
  report.op_ms.assign(inputs, std::numeric_limits<double>::infinity());
  const Clock::time_point begin = Clock::now();
  const auto done = [&] {
    return report.passes >= kMinPasses && SecondsSince(begin) >= config.seconds;
  };
  CpuRotation cpus;
  for (std::size_t pass = 0; !done(); ++pass) {
    cpus.PinTo(pass);
    std::size_t visited = 0;
    for (std::size_t i :
         Permutation(inputs, Derive(config.seed, 1000 + report.passes))) {
      if (done()) {
        break;
      }
      ++visited;
      Clock::time_point start = Clock::now();
      op(i, nullptr);
      const double ms = MsSince(start);
      report.op_ms[i] = std::min(report.op_ms[i], ms);
      ++report.attempted;
      if (sums != nullptr) {
        sums->untraced_ms += ms;
        TracedScope traced;
        start = Clock::now();
        op(i, sums);
        sums->traced_ms += MsSince(start);
        traced.Stop();
        sums->timed_solves += traced.Solves();
      }
    }
    if (visited == inputs) {
      ++report.passes;
    }
  }
}

}  // namespace

// ------------------------------------------------------ sim-online ---

void RunSimOnline(const Config& config, Report& report) {
  const model::LinearDvsModel dvs = workload::DefaultModel();
  const core::SchedulerOptions scheduler;
  CorpusSpec spec;
  spec.task_counts = {3, 4, 5};
  spec.ratios = {0.1, 0.5, 0.9};
  spec.per_combo = 3;
  spec.min_subs = 20;
  spec.max_subs = config.smoke ? 40 : 60;
  const std::int64_t hyper_periods = 32;
  const char* const scenarios[] = {"bursty", "heavy-tail"};

  std::vector<std::unique_ptr<SetPlan>> plans;
  LayerSums sums;
  std::vector<double> energy;
  sim::EngineWorkspace engine;
  for (int r = 0; r < kSetupRepeats; ++r) {
    // Layer sums take the first set-up only, so they describe one planning
    // of the corpus.
    LayerSums* layer = config.trace && r == 0 ? &sums : nullptr;
    const Clock::time_point start = Clock::now();
    const std::vector<model::TaskSet> corpus =
        StratifiedCorpus(spec, dvs, kCorpusSeed);
    std::vector<std::unique_ptr<SetPlan>> fresh;
    for (std::size_t j = 0; j < corpus.size(); ++j) {
      fresh.push_back(std::make_unique<SetPlan>(
          corpus[j], dvs, scheduler,
          SetOptions(scenarios[j % 2], Derive(kCorpusSeed, 100 + j)), layer));
      const std::string error = SolveAll(*fresh.back(), layer);
      if (!error.empty()) {
        report.Fail("set " + std::to_string(j) + ": " + error);
      }
    }
    // Untimed warm-up op.
    const std::string error =
        SimulateArms(*fresh[0], std::size(kArmNames), hyper_periods,
                     kCorpusSeed, engine, energy, nullptr);
    report.setup_s.push_back(SecondsSince(start));
    if (!error.empty()) {
      report.Fail("warm-up: " + error);
    }
    if (r > 0) {
      for (std::size_t j = 0; j < fresh.size(); ++j) {
        if (SolverEvaluations(*fresh[j]) != SolverEvaluations(*plans[j])) {
          report.Fail("set " + std::to_string(j) +
                      " planned differently on a repeated set-up");
        }
      }
    }
    plans = std::move(fresh);
  }
  // Inputs: every set under kStreams realisation streams of its own.
  constexpr std::size_t kStreams = 4;
  const std::size_t inputs = plans.size() * kStreams;
  FirstVisits first(inputs);
  TimedPasses(config, inputs, report, config.trace ? &sums : nullptr,
              [&](std::size_t i, LayerSums* layer) {
                SetPlan& plan = *plans[i / kStreams];
                const std::string error =
                    SimulateArms(plan, std::size(kArmNames), hyper_periods,
                                 Derive(kCorpusSeed, 1000000 + i), engine,
                                 energy, layer);
                if (layer != nullptr) {
                  return;
                }
                if (!error.empty()) {
                  report.Fail("input " + std::to_string(i) + ": " + error);
                } else if (!first.Record(i, {energy, SolverEvaluations(plan)})) {
                  report.Fail("input " + std::to_string(i) +
                              " simulated differently on a revisit");
                }
              });
  report.work = static_cast<double>(inputs * hyper_periods);
  report.work_unit = "set-hyper-periods simulated";
  first.Emit(report, "evaluations_per_set");
  if (config.trace) {
    EmitLayers(sums, {}, report);
  }
}

// ------------------------------------------------------- grid-warm ---

namespace {

/// Times each cell from its worker's previous completion (or the boot
/// start) and keeps every cell's fastest time over the recorded boots.
class CellTimer final : public runner::ResultSink {
 public:
  explicit CellTimer(std::size_t cells)
      : best_ms_(cells, std::numeric_limits<double>::infinity()) {}

  /// Starts a boot; its cell times count only when `record` is set.
  void Start(bool record) {
    std::lock_guard<std::mutex> lock(mutex_);
    record_ = record;
    boot_start_ = Clock::now();
    last_.clear();
  }

  void OnCell(const runner::ExperimentGrid&,
              const runner::CellResult& cell) override {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] =
        last_.emplace(std::this_thread::get_id(), boot_start_);
    if (record_) {
      double& best = best_ms_.at(cell.coord.cell_index);
      best = std::min(
          best,
          std::chrono::duration<double, std::milli>(now - it->second).count());
    }
    it->second = now;
  }

  const std::vector<double>& best_ms() const { return best_ms_; }

 private:
  std::mutex mutex_;
  bool record_ = false;
  Clock::time_point boot_start_;
  std::map<std::thread::id, Clock::time_point> last_;
  std::vector<double> best_ms_;
};

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

bool SameOutcome(const core::MethodOutcome& a, const core::MethodOutcome& b) {
  return Bits(a.predicted_energy) == Bits(b.predicted_energy) &&
         Bits(a.measured_energy) == Bits(b.measured_energy) &&
         a.deadline_misses == b.deadline_misses &&
         a.voltage_switches == b.voltage_switches &&
         a.used_fallback == b.used_fallback &&
         a.solver_outer_iterations == b.solver_outer_iterations &&
         a.solver_inner_iterations == b.solver_inner_iterations &&
         a.solver_evaluations == b.solver_evaluations &&
         Bits(a.idle_energy) == Bits(b.idle_energy) &&
         Bits(a.sleep_energy) == Bits(b.sleep_energy) &&
         Bits(a.sleep_time) == Bits(b.sleep_time) && a.sleeps == b.sleeps &&
         a.migrations == b.migrations &&
         Bits(a.weighted_cores) == Bits(b.weighted_cores);
}

/// Counts failed cells, deadline misses and cells that differ from the
/// reference run.
void CheckCells(const runner::GridResult& result,
                const runner::GridResult* reference, const char* phase,
                Report& report) {
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const runner::CellResult& cell = result.cells[i];
    std::string error;
    if (!cell.ok()) {
      error = cell.error;
    } else {
      for (const core::MethodOutcome& outcome : cell.outcomes) {
        if (outcome.deadline_misses != 0) {
          error = "deadline misses";
        }
      }
    }
    if (error.empty() && reference != nullptr) {
      const runner::CellResult& ref = reference->cells[i];
      bool same = ref.sub_instances == cell.sub_instances &&
                  ref.hyper_period == cell.hyper_period &&
                  ref.outcomes.size() == cell.outcomes.size();
      for (std::size_t m = 0; same && m < cell.outcomes.size(); ++m) {
        same = SameOutcome(ref.outcomes[m], cell.outcomes[m]);
      }
      if (!same) {
        error = "not bit-equal to the cold result";
      }
    }
    if (!error.empty()) {
      report.Fail(std::string(phase) + " cell " + std::to_string(i) + ": " +
                  error);
    }
  }
}

std::uintmax_t DirectoryBytes(const std::string& dir, std::size_t* files) {
  std::uintmax_t bytes = 0;
  *files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".acsc") {
      bytes += entry.file_size();
      ++*files;
    }
  }
  return bytes;
}

}  // namespace

void RunGridWarm(const Config& config, Report& report) {
  constexpr int kWorkers = 2;
  report.threads = kWorkers;
  const model::LinearDvsModel dvs = workload::DefaultModel();
  const model::IdlePower idle{0.3};

  CorpusSpec spec;
  spec.task_counts = {6, 8};
  spec.ratios = {0.1, 0.5, 0.9};
  spec.per_combo = 3;  // 18 sets
  spec.min_subs = 40;
  spec.max_subs = config.smoke ? 120 : 240;
  spec.utilization = 1.2;
  spec.multi_core = true;
  if (config.smoke) {
    spec.task_counts = {6};  // 9 sets, 144 cells
  }
  const std::vector<int> core_counts = {2, 4};
  const std::vector<std::string> partitioners = {"ffd", "wfd"};
  // Every cell of the grid must be placeable: no op may fail.
  spec.accept = [&](const model::TaskSet& set) {
    for (int cores : core_counts) {
      for (const std::string& name : partitioners) {
        try {
          mp::PartitionerRegistry::Builtin().Get(name).Assign(set, dvs, cores,
                                                              idle);
        } catch (const util::Error&) {
          return false;
        }
      }
    }
    return true;
  };
  const std::vector<model::TaskSet> corpus =
      StratifiedCorpus(spec, dvs, kCorpusSeed);

  runner::ExperimentGrid grid;
  grid.dvs = &dvs;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    grid.sources.push_back(
        runner::FixedSource("set" + std::to_string(i), corpus[i]));
  }
  grid.core_counts = core_counts;
  grid.partitioners = partitioners;
  grid.scenarios = {"bursty", "heavy-tail"};
  grid.sigma_divisors = {4.0, 8.0};
  grid.warm_start = core::WarmStartPolicy::kNeighbor;
  grid.methods = {"static-vmax", "wcs", "acs", "acs-scenario"};
  grid.baseline = "static-vmax";
  grid.hyper_periods = 48;
  // Light calibrations keep store entries small, so a store read costs
  // about what a cell's simulation does.
  grid.planning.calibration_samples = 256;
  grid.master_seed = Derive(config.seed, 5);
  grid.idle_power = idle;
  grid.dpm.enabled = true;
  grid.dpm.sleep = dpm::ResolveSleepState("deep", idle);
  grid.dpm.critical_speed = -1.0;  // keep the base model: solves persist
  grid.dpm.reallocate = true;
  grid.dpm.realloc_after = grid.hyper_periods / 2;

  // Set-up: the cold grid into a fresh store, then the write-back.
  LayerSums sums;
  std::map<std::string, double> extra;
  std::map<std::string, SpanTotals> cold_spans;
  std::optional<runner::GridResult> cold;
  std::string store_dir;
  double writeback_ms = 0.0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point start = Clock::now();
    store_dir = config.tmp_dir + "/store" + std::to_string(r);
    std::optional<TracedScope> traced;
    if (config.trace && r == 0) {
      traced.emplace();
    }
    runner::GridResult result;
    {
      core::SolveStore store(store_dir);
      std::vector<core::EvalWorkspace> workspaces;
      runner::RunOptions options;
      options.threads = kWorkers;
      options.workspaces = &workspaces;
      options.solve_store = &store;
      result = runner::RunGrid(grid, options);
      const Clock::time_point wb = Clock::now();
      store.WriteBack();
      if (r == 0) {
        writeback_ms = MsSince(wb);
      }
    }
    report.setup_s.push_back(SecondsSince(start));
    if (traced.has_value()) {
      traced->Stop();
      cold_spans = FoldSpans(traced->recorder().Events());
    }
    CheckCells(result, cold ? &*cold : nullptr, "cold", report);
    if (!cold.has_value()) {
      cold = std::move(result);
    }
  }

  // Boots: fresh workspaces, a read-only handle on the written store.  A
  // cell's latency is its fastest time over the untraced timed boots (see
  // TimedPasses).
  CellTimer timer(cold->cells.size());
  const auto boot = [&](bool record, double* wall_s) {
    core::SolveStore store(store_dir, /*read_only=*/true);
    std::vector<core::EvalWorkspace> workspaces;
    runner::RunOptions options;
    options.threads = kWorkers;
    options.workspaces = &workspaces;
    options.solve_store = &store;
    options.sink = &timer;
    timer.Start(record);
    const Clock::time_point start = Clock::now();
    runner::GridResult result = runner::RunGrid(grid, options);
    *wall_s = SecondsSince(start);
    return result;
  };
  const auto check_counters = [&](const TracedScope& scope,
                                  const char* phase) {
    const std::int64_t hits = scope.Counter("persist.cache_hits");
    const std::int64_t misses = scope.Counter("persist.cache_misses");
    if (misses != 0 || hits == 0) {
      report.Fail(std::string(phase) + ": persist hit ratio below 1 (" +
                  std::to_string(hits) + " hits, " + std::to_string(misses) +
                  " misses)");
    }
    if (scope.Solves() != 0) {
      report.Fail(std::string(phase) + ": " + std::to_string(scope.Solves()) +
                  " solves on a warm boot");
    }
  };
  {
    // Untimed check boot with the counters installed.
    TracedScope scope;
    double wall_s = 0.0;
    const runner::GridResult result = boot(false, &wall_s);
    scope.Stop();
    CheckCells(result, &*cold, "check boot", report);
    check_counters(scope, "check boot");
  }

  double traced_busy_us = 0.0;
  double traced_wall_s = 0.0;
  std::int64_t traced_boots = 0;
  std::int64_t persist_hits = 0;
  std::int64_t persist_misses = 0;
  std::int64_t prepare_hits = 0;
  std::int64_t prepare_misses = 0;
  std::int64_t steals = 0;
  std::map<std::string, SpanTotals> boot_spans;
  double sleeps = 0.0;
  double switches = 0.0;
  double migrations = 0.0;
  const Clock::time_point begin = Clock::now();
  while (report.passes < kMinPasses || SecondsSince(begin) < config.seconds) {
    double wall_s = 0.0;
    const runner::GridResult result = boot(true, &wall_s);
    ++report.passes;
    report.attempted += static_cast<std::int64_t>(result.cells.size());
    CheckCells(result, &*cold, "warm boot", report);
    if (config.trace) {
      sums.untraced_ms += wall_s * 1000.0;
      TracedScope scope;
      scope.metrics().EnsureShards(kWorkers);
      double traced_s = 0.0;
      const runner::GridResult traced_result = boot(false, &traced_s);
      scope.Stop();
      sums.traced_ms += traced_s * 1000.0;
      CheckCells(traced_result, &*cold, "traced boot", report);
      check_counters(scope, "traced boot");
      sums.timed_solves += scope.Solves();
      persist_hits += scope.Counter("persist.cache_hits");
      persist_misses += scope.Counter("persist.cache_misses");
      prepare_hits += scope.Counter("prepare.cache_hits");
      prepare_misses += scope.Counter("prepare.cache_misses");
      steals += scope.Counter("family.steals");
      const std::map<std::string, SpanTotals> spans =
          FoldSpans(scope.recorder().Events());
      Accumulate(boot_spans, spans);
      const auto cell = spans.find("cell");
      traced_busy_us += cell != spans.end() ? cell->second.total_us : 0.0;
      traced_wall_s += traced_s;
      ++traced_boots;
      for (const runner::CellResult& c : traced_result.cells) {
        for (const core::MethodOutcome& outcome : c.outcomes) {
          sleeps += static_cast<double>(outcome.sleeps);
          switches += static_cast<double>(outcome.voltage_switches);
        }
        if (!c.outcomes.empty()) {
          migrations += static_cast<double>(c.outcomes[0].migrations);
        }
      }
    }
  }
  report.op_ms = timer.best_ms();
  report.work = static_cast<double>(cold->cells.size());
  report.work_unit = "cells";

  // Deterministic outputs of the cold run.
  FirstVisits outputs(cold->cells.size());
  for (std::size_t i = 0; i < cold->cells.size(); ++i) {
    const runner::CellResult& cell = cold->cells[i];
    if (!cell.ok()) {
      continue;
    }
    Outputs out;
    for (const core::MethodOutcome& outcome : cell.outcomes) {
      out.energy.push_back(outcome.measured_energy);
      out.evaluations += static_cast<double>(outcome.solver_evaluations);
    }
    for (double e : out.energy) {
      const double norm = e / out.energy[kVmax];
      if (!std::isfinite(norm) || norm <= 0.0 || norm > 1.0) {
        report.Fail("cold cell energy norm out of (0, 1]: " +
                    std::to_string(norm));
      }
    }
    outputs.Record(i, std::move(out));
  }
  outputs.Emit(report, "evaluations_per_cell");

  if (!config.trace) {
    return;
  }
  // Layer probes on the grid's own inputs: partitions, consolidation,
  // store reads and expansions of every per-core subset.
  const core::ModelDescriptor model = core::DescribeModel(dvs);
  core::SolveStore store(store_dir, /*read_only=*/true);
  double partition_us = 0.0;
  double consolidate_us = 0.0;
  std::int64_t partitions = 0;
  double load_us = 0.0;
  std::int64_t loads = 0;
  std::set<std::pair<std::size_t, std::vector<model::TaskIndex>>> subsets;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (int cores : grid.core_counts) {
      for (const std::string& name : grid.partitioners) {
        const mp::Partitioner& partitioner =
            mp::PartitionerRegistry::Builtin().Get(name);
        Clock::time_point start = Clock::now();
        const mp::Partition partition =
            partitioner.Assign(corpus[i], dvs, cores, idle);
        partition_us += MsSince(start) * 1000.0;
        start = Clock::now();
        const dpm::ReallocationResult realloc =
            dpm::Consolidate(partition, corpus[i], dvs, idle);
        consolidate_us += MsSince(start) * 1000.0;
        ++partitions;
        for (const mp::Partition* p : {&partition, &realloc.partition}) {
          for (std::vector<model::TaskIndex> owned : p->assignment) {
            if (!owned.empty()) {
              std::sort(owned.begin(), owned.end());
              subsets.emplace(i, std::move(owned));
            }
          }
        }
      }
    }
  }
  for (const auto& [i, owned] : subsets) {
    const model::TaskSet subset = mp::SubTaskSet(corpus[i], owned);
    Clock::time_point start = Clock::now();
    const std::optional<core::StoredCell> entry =
        store.Load(subset, model, grid.scheduler);
    load_us += MsSince(start) * 1000.0;
    ++loads;
    start = Clock::now();
    const fps::FullyPreemptiveSchedule expansion(subset);
    sums.expand_ms += MsSince(start);
    sums.sub_instances += static_cast<double>(expansion.sub_count());
    ++sums.expansions;
    if (!entry.has_value()) {
      report.Fail("store has no entry for a per-core subset");
      continue;
    }
    for (const std::optional<core::StoredScheduleResult>* result :
         {&entry->wcs, &entry->acs}) {
      if (result->has_value()) {
        sums.AddSolve((*result)->alm, (*result)->used_fallback);
      }
    }
    for (const core::StoredPlannedSolve& planned : entry->planned) {
      sums.AddSolve(planned.result.alm, planned.result.used_fallback);
    }
  }

  // Cold-grid solve spans (cache misses really solved) give the solve and
  // calibration times.
  const auto miss_ms = [&](const char* name) {
    const auto it = cold_spans.find(name);
    return it == cold_spans.end()
               ? 0.0
               : Ratio(it->second.miss_total_us, it->second.misses) / 1000.0;
  };
  sums.plans = 1;  // the miss means below are already per solve
  sums.wcs_ms = miss_ms("wcs");
  sums.acs_ms = miss_ms("acs");
  sums.planned_ms = miss_ms("planned");
  sums.calibrate_ms = miss_ms("calibrate");
  const auto span = [&](const char* name) {
    const auto it = boot_spans.find(name);
    return it == boot_spans.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals simulate = span("simulate");
  sums.greedy_us = simulate.total_us;
  sums.greedy_hp = simulate.hyper_periods;
  sums.sim_hp = simulate.hyper_periods;
  sums.switches = switches;
  std::size_t files = 0;
  const double bytes = static_cast<double>(DirectoryBytes(store_dir, &files));
  const double boots = static_cast<double>(traced_boots);
  const double cell_hp = static_cast<double>(cold->cells.size()) *
                         static_cast<double>(grid.methods.size()) *
                         static_cast<double>(grid.hyper_periods);
  extra["mp.partition_us"] = Ratio(partition_us, partitions);
  // Fleet evaluation outside solve lookups and simulation: the self time of
  // the cell spans and of the per-core spans nested in them.
  extra["mp.fleet_ms"] =
      Ratio(span("cell").self_us + span("core").self_us, span("cell").count) /
      1000.0;
  extra["dpm.consolidate_us"] = Ratio(consolidate_us, partitions);
  extra["dpm.sleeps_per_hp"] = Ratio(sleeps, boots * cell_hp);
  extra["dpm.migrations"] = Ratio(migrations, boots);
  extra["core.store_load_us"] = Ratio(load_us, loads);
  extra["core.store_writeback_ms"] = writeback_ms;
  extra["core.store_entry_bytes"] = Ratio(bytes, files);
  extra["core.persist_hit_ratio"] = Ratio(
      persist_hits, static_cast<double>(persist_hits + persist_misses));
  extra["core.prepare_hit_ratio"] = Ratio(
      prepare_hits, static_cast<double>(prepare_hits + prepare_misses));
  extra["runner.worker_busy_ratio"] =
      Ratio(traced_busy_us / 1e6, traced_wall_s * kWorkers);
  extra["runner.overhead_ms"] =
      Ratio(traced_wall_s * 1000.0 - traced_busy_us / 1000.0 / kWorkers,
            boots);
  extra["runner.family_steals"] = Ratio(steals, boots);
  EmitLayers(sums, extra, report);
  // Switches are counted per cell-method over whole missions.
  report.layers["sim.voltage_switches_per_hp"] =
      Ratio(switches, boots * cell_hp);
}

}  // namespace perfbench
