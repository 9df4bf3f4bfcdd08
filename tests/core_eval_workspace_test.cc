// EvalWorkspace contract tests: workspace-backed evaluation is bit-identical
// to the self-contained path, prepared-cell caching never changes results,
// the analytic gradients cross-check against finite differences when
// evaluated through shared scratch, and the steady-state solver/sim kernels
// allocate nothing once warm.
#include "core/eval_workspace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "core/api.h"
#include "opt/finite_diff.h"
#include "runner/csv_sink.h"
#include "runner/run_grid.h"
#include "workload/motivation.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

// ---- Allocation counter -----------------------------------------------------
// Counts every global operator new.  The zero-allocation assertions measure
// the delta across a single warmed call, so allocations made by the test
// harness outside those windows do not matter.
namespace {
std::atomic<long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dvs::core {
namespace {

ExperimentOptions FastOptions() {
  ExperimentOptions options;
  options.hyper_periods = 20;
  options.seed = 7;
  return options;
}

bool SameOutcome(const MethodOutcome& a, const MethodOutcome& b) {
  return a.predicted_energy == b.predicted_energy &&
         a.measured_energy == b.measured_energy &&
         a.deadline_misses == b.deadline_misses &&
         a.voltage_switches == b.voltage_switches &&
         a.used_fallback == b.used_fallback;
}

TEST(EvalWorkspace, WorkspaceBackedOutcomesBitIdenticalToFresh) {
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const model::TaskSet set = workload::MotivationTaskSet();
  const ExperimentOptions options = FastOptions();
  const MethodRegistry& registry = MethodRegistry::Builtin();
  const fps::FullyPreemptiveSchedule fps(set);

  EvalWorkspace workspace;
  for (const std::string& name : registry.Names()) {
    // Self-contained reference.
    MethodContext fresh(fps, cpu);
    const MethodOutcome expected =
        EvaluateMethod(registry.Get(name), fresh, options);

    // Workspace-backed, twice: the second pass reuses every warm buffer
    // and the cached solves.
    for (int pass = 0; pass < 2; ++pass) {
      EvalWorkspace::PreparedCell& prep = workspace.Prepare(set, cpu);
      MethodContext context(prep.fps, cpu, workspace, prep.solves);
      const MethodOutcome actual =
          EvaluateMethod(registry.Get(name), context, options);
      EXPECT_TRUE(SameOutcome(expected, actual))
          << name << " pass " << pass;
    }
  }
}

TEST(EvalWorkspace, PrepareVerifiesTaskSetBeforeReuse) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet motivation = workload::MotivationTaskSet();

  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 3;
  stats::Rng rng(11);
  const model::TaskSet random_set =
      workload::GenerateRandomTaskSet(gen, cpu, rng);

  EXPECT_TRUE(SameTaskSet(motivation, motivation));
  EXPECT_FALSE(SameTaskSet(motivation, random_set));

  EvalWorkspace workspace;
  EvalWorkspace::PreparedCell& first = workspace.Prepare(motivation, cpu);
  EXPECT_EQ(&first, &workspace.Prepare(motivation, cpu));
  // A different set must rebuild, not reuse.
  EvalWorkspace::PreparedCell& second = workspace.Prepare(random_set, cpu);
  EXPECT_NE(&first, &second);
  EXPECT_TRUE(SameTaskSet(second.set, random_set));
  // Both entries stay live (MRU cache), so the original still hits.
  EXPECT_EQ(&first, &workspace.Prepare(motivation, cpu));

  // Identity is by content: another model object with equal parameters
  // shares the entry.
  const model::LinearDvsModel same_cpu = workload::DefaultModel();
  EXPECT_EQ(&first, &workspace.Prepare(motivation, same_cpu));

  // A model differing in one parameter misses.
  const model::LinearDvsModel raised_vmin(cpu.vmin() * 1.5, cpu.vmax(),
                                          cpu.ceff(), cpu.k());
  EvalWorkspace::PreparedCell& floored =
      workspace.Prepare(motivation, raised_vmin);
  EXPECT_NE(&first, &floored);
  EXPECT_EQ(floored.model, DescribeModel(raised_vmin));
}

// Analytic gradients, evaluated through a shared workspace scratch, must
// match central finite differences on preset-derived task sets — and must
// be bit-identical to a fresh objective evaluating the same point.
TEST(EvalWorkspace, SharedScratchGradientsCrossCheckFiniteDifferences) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  EvalWorkspace workspace;

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workload::RandomTaskSetOptions gen;
    gen.num_tasks = 3 + static_cast<int>(seed % 3);
    gen.bcec_wcec_ratio = 0.3;
    stats::Rng rng(seed * 131 + 7);
    const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
    const fps::FullyPreemptiveSchedule fps(set);

    for (const Scenario scenario : {Scenario::kAverage, Scenario::kWorst}) {
      const EnergyObjective shared(fps, cpu, scenario,
                                   &workspace.objective_scratch());
      const EnergyObjective fresh(fps, cpu, scenario);

      // A jittered interior point away from the clamp kinks.
      stats::Rng jitter(seed * 977 + 13);
      opt::Vector x =
          shared.PackSchedule(sim::BuildVmaxAsapSchedule(fps, cpu));
      const std::vector<double>& cap = fps.effective_end_bounds();
      for (std::size_t u = 0; u < fps.sub_count(); ++u) {
        const double frac = jitter.Uniform(0.5, 0.9);
        x[u] = fps.sub(u).seg_begin +
               frac * (cap[u] - fps.sub(u).seg_begin);
      }
      // Budgets jittered around a uniform split: the ASAP budgets sit
      // exactly on the w = 0 and V = Vmax kinks, where central differences
      // straddle one-sided derivatives.
      for (const fps::InstanceRecord& rec : fps.instances()) {
        if (rec.subs.size() < 2) {
          continue;
        }
        const double share = set.task(rec.info.task).wcec /
                             static_cast<double>(rec.subs.size());
        for (std::size_t order : rec.subs) {
          x[shared.budget_index(order)] = share * jitter.Uniform(0.7, 1.3);
        }
      }
      shared.BuildFeasibleSet()->Project(x);

      opt::Vector shared_grad;
      opt::Vector fresh_grad;
      const double shared_value = shared.ValueAndGradient(x, shared_grad);
      const double fresh_value = fresh.ValueAndGradient(x, fresh_grad);
      EXPECT_EQ(shared_value, fresh_value) << "seed " << seed;
      ASSERT_EQ(shared_grad.size(), fresh_grad.size());
      for (std::size_t i = 0; i < shared_grad.size(); ++i) {
        EXPECT_EQ(shared_grad[i], fresh_grad[i])
            << "seed " << seed << " coordinate " << i;
      }

      // Tolerance-bounded FD cross-check (robust to a couple of exact
      // kink-straddling coordinates, as in core_formulation_test).
      const opt::Vector numeric =
          opt::FiniteDifferenceGradient(shared, x, 1e-7);
      std::vector<double> errors(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        errors[i] =
            std::fabs(shared_grad[i] - numeric[i]) /
            std::max({std::fabs(shared_grad[i]), std::fabs(numeric[i]), 1.0});
      }
      std::sort(errors.begin(), errors.end());
      const double robust =
          errors[errors.size() >= 3 ? errors.size() - 3 : 0];
      EXPECT_LT(robust, 1e-3) << "seed " << seed;
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Same grid, fresh vs. reused workspaces: the streamed per-cell CSV must be
// byte-identical across (a) a run with call-local workspaces, (b) a cold
// run with caller-provided workspaces, and (c) a warm re-run against those
// same workspaces.
TEST(EvalWorkspace, GridCsvBitIdenticalFreshVsReusedWorkspace) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 3;
  gen.bcec_wcec_ratio = 0.4;

  runner::ExperimentGrid grid;
  grid.dvs = &cpu;
  grid.sources = {runner::RandomSource("ws-test", gen, 2)};
  grid.sigma_divisors = {4.0, 8.0};  // sigma axis shares SetIndex -> cache hits
  grid.hyper_periods = 15;
  grid.methods = {"acs", "wcs"};

  const auto run = [&](const std::string& path,
                       std::vector<core::EvalWorkspace>* workspaces) {
    runner::CsvSink sink(path);
    runner::RunOptions options;
    options.threads = 1;
    options.sink = &sink;
    options.workspaces = workspaces;
    runner::RunGrid(grid, options);
  };

  const std::string fresh_path = testing::TempDir() + "/ws_fresh.csv";
  const std::string cold_path = testing::TempDir() + "/ws_cold.csv";
  const std::string warm_path = testing::TempDir() + "/ws_warm.csv";

  run(fresh_path, nullptr);
  std::vector<core::EvalWorkspace> workspaces;
  run(cold_path, &workspaces);
  run(warm_path, &workspaces);  // fully warm: caches + buffers

  const std::string fresh = ReadFile(fresh_path);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh, ReadFile(cold_path));
  EXPECT_EQ(fresh, ReadFile(warm_path));
}

// The steady-state kernels must not touch the heap once their buffers are
// warm: the objective's value+gradient evaluation and the engine's
// workspace simulation are the two inner loops of every grid cell.
TEST(EvalWorkspace, WarmKernelsAllocateNothing) {
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const model::TaskSet set = workload::MotivationTaskSet();
  const fps::FullyPreemptiveSchedule fps(set);
  EvalWorkspace workspace;

  // --- objective evaluation -------------------------------------------------
  const EnergyObjective objective(fps, cpu, Scenario::kAverage,
                                  &workspace.objective_scratch());
  opt::Vector x = objective.PackSchedule(sim::BuildVmaxAsapSchedule(fps, cpu));
  opt::Vector grad;
  (void)objective.ValueAndGradient(x, grad);  // warm-up sizes every buffer

  const long before_eval = g_alloc_count.load(std::memory_order_relaxed);
  const double value = objective.ValueAndGradient(x, grad);
  const long eval_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before_eval;
  EXPECT_EQ(eval_allocs, 0) << "objective evaluation allocated";
  EXPECT_GT(value, 0.0);

  // --- engine simulation ----------------------------------------------------
  const sim::StaticSchedule schedule = sim::BuildVmaxAsapSchedule(fps, cpu);
  const model::TruncatedNormalWorkload sampler(set, 6.0);
  const sim::AnyPolicy policy{sim::GreedyReclaimPolicy(cpu)};
  sim::SimOptions sim_options;
  sim_options.hyper_periods = 10;

  stats::Rng warm_rng(3);
  (void)sim::Simulate(fps, schedule, cpu, policy, sampler, warm_rng,
                      sim_options, workspace.engine());

  stats::Rng rng(3);
  const long before_sim = g_alloc_count.load(std::memory_order_relaxed);
  const sim::SimResult& sim = sim::Simulate(fps, schedule, cpu, policy,
                                            sampler, rng, sim_options,
                                            workspace.engine());
  const long sim_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before_sim;
  EXPECT_EQ(sim_allocs, 0) << "warm simulation allocated";
  EXPECT_EQ(sim.deadline_misses, 0);
  EXPECT_GT(sim.total_energy, 0.0);
  // The per-run engine tables (sub refs, release-stream times, task ranks,
  // instance counts) were rebuilt above into warm workspace vectors.
  EXPECT_EQ(workspace.engine().task_rank.size(), set.size());
  EXPECT_EQ(workspace.engine().release_time.size(), fps.instance_count());
  const double direct_energy = sim.total_energy;

  // --- shared realisation: record once, replay to another policy ------------
  // EvaluateMethods records into the workspace's realisation buffer and
  // replays from it; once warm, neither run allocates.
  std::vector<model::RecordedDraw>& record = workspace.realisation();
  {
    record.clear();
    const model::RecordingSampler recorder(sampler, record);
    stats::Rng warm_record_rng(3);
    (void)sim::Simulate(fps, schedule, cpu, policy, recorder, warm_record_rng,
                        sim_options, workspace.engine());
  }
  record.clear();
  const model::RecordingSampler recorder(sampler, record);
  stats::Rng record_rng(3);
  const long before_record = g_alloc_count.load(std::memory_order_relaxed);
  const double recorded_energy =
      sim::Simulate(fps, schedule, cpu, policy, recorder, record_rng,
                    sim_options, workspace.engine())
          .total_energy;
  const long record_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before_record;
  EXPECT_EQ(record_allocs, 0) << "warm recording simulation allocated";
  EXPECT_EQ(recorded_energy, direct_energy);

  const sim::AnyPolicy vmax{sim::VmaxPolicy(cpu)};
  const model::ReplaySampler replay(record);
  stats::Rng replay_rng(3);
  const long before_replay = g_alloc_count.load(std::memory_order_relaxed);
  const sim::SimResult& replayed =
      sim::Simulate(fps, schedule, cpu, vmax, replay, replay_rng, sim_options,
                    workspace.engine());
  const long replay_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before_replay;
  EXPECT_EQ(replay_allocs, 0) << "warm replay simulation allocated";
  EXPECT_NO_THROW(replay.CheckFullyUsed());
  EXPECT_EQ(replayed.deadline_misses, 0);
}

}  // namespace
}  // namespace dvs::core
