// Google-benchmark micro-benchmarks for the computational kernels: fully
// preemptive expansion, objective forward/gradient evaluation, the full
// scheduler solve, the discrete-event simulator, and the cube root of the
// expected-case DP dispatch (util/simd.h).
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/formulation.h"
#include "core/scheduler.h"
#include "fps/expansion.h"
#include "model/workload.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "stats/rng.h"
#include "util/simd.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace {

using namespace dvs;

model::TaskSet MakeSet(int num_tasks, std::uint64_t seed) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  stats::Rng rng(seed);
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = num_tasks;
  gen.bcec_wcec_ratio = 0.3;
  return workload::GenerateRandomTaskSet(gen, cpu, rng);
}

std::vector<double> FillVec(std::size_t n, std::uint64_t seed) {
  std::vector<double> values(n);
  stats::Rng rng(seed);
  for (double& v : values) {
    v = rng.Uniform(-2.0, 2.0);
  }
  return values;
}

void BM_Expansion(benchmark::State& state) {
  const model::TaskSet set = MakeSet(static_cast<int>(state.range(0)), 42);
  std::size_t subs = 0;
  for (auto _ : state) {
    const fps::FullyPreemptiveSchedule fps(set);
    subs = fps.sub_count();
    benchmark::DoNotOptimize(subs);
  }
  state.counters["sub_instances"] = static_cast<double>(subs);
}
BENCHMARK(BM_Expansion)->Arg(4)->Arg(8);

void BM_ObjectiveValueAndGradient(benchmark::State& state) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = MakeSet(static_cast<int>(state.range(0)), 7);
  const fps::FullyPreemptiveSchedule fps(set);
  const core::EnergyObjective objective(fps, cpu, core::Scenario::kAverage);
  opt::Vector x =
      objective.PackSchedule(sim::BuildVmaxAsapSchedule(fps, cpu));
  opt::Vector grad(objective.dim(), 0.0);
  for (auto _ : state) {
    const double value = objective.ValueAndGradient(x, grad);
    benchmark::DoNotOptimize(value);
  }
  state.counters["variables"] = static_cast<double>(objective.dim());
}
BENCHMARK(BM_ObjectiveValueAndGradient)->ArgName("tasks")->Arg(4)->Arg(8);

void BM_KernelCbrt(benchmark::State& state) {
  // The per-solve bin roots of sim::ExpectedCasePolicy: survival
  // weights in [0, 1], all on the in-tree path (no libm fallback).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x = FillVec(n, 15);
  for (double& v : x) {
    v = std::abs(v) / 2.0;
  }
  std::vector<double> out(n);
  for (auto _ : state) {
    util::simd::Cbrt(x.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelCbrt)->ArgName("n")->Arg(64)->Arg(512)->Arg(4096);

void BM_SolveAcs(benchmark::State& state) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = MakeSet(static_cast<int>(state.range(0)), 11);
  const fps::FullyPreemptiveSchedule fps(set);
  for (auto _ : state) {
    const core::ScheduleResult result = core::SolveAcs(fps, cpu);
    benchmark::DoNotOptimize(result.predicted_energy);
  }
}
BENCHMARK(BM_SolveAcs)
    ->ArgName("tasks")
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SimulateHyperPeriods(benchmark::State& state) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = MakeSet(6, 13);
  const fps::FullyPreemptiveSchedule fps(set);
  const sim::StaticSchedule schedule = sim::BuildVmaxAsapSchedule(fps, cpu);
  const model::TruncatedNormalWorkload sampler(set, 6.0);
  const sim::GreedyReclaimPolicy policy(cpu);
  sim::SimOptions options;
  options.hyper_periods = state.range(0);
  for (auto _ : state) {
    stats::Rng rng(99);
    const sim::SimResult result =
        sim::Simulate(fps, schedule, cpu, policy, sampler, rng, options);
    benchmark::DoNotOptimize(result.total_energy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulateHyperPeriods)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_TruncatedNormalSampling(benchmark::State& state) {
  const model::TaskSet set = MakeSet(6, 17);
  const model::TruncatedNormalWorkload sampler(set, 6.0);
  stats::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleCycles(0, rng));
  }
}
BENCHMARK(BM_TruncatedNormalSampling);

}  // namespace

BENCHMARK_MAIN();
