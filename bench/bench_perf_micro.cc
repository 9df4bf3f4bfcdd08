// Google-benchmark micro-benchmarks for the computational kernels: fully
// preemptive expansion, objective forward/gradient evaluation, the full
// scheduler solve, the discrete-event simulator, and the dispatched SIMD
// kernels (util/simd.h) at both levels.
//
// Every SIMD-dispatched benchmark takes a trailing 0/1 "simd" argument:
// 0 pins the scalar level (the historical loops), 1 pins the best level
// the CPU supports — on AVX2 hardware the per-kernel speedup is the
// 0-vs-1 time ratio at equal n.
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

util::simd::Level LevelArg(std::int64_t simd) {
  return simd != 0 ? util::simd::Detect() : util::simd::Level::kScalar;
}

std::vector<double> FillVec(std::size_t n, std::uint64_t seed) {
  std::vector<double> values(n);
  stats::Rng rng(seed);
  for (double& v : values) {
    v = rng.Uniform(-2.0, 2.0);
  }
  return values;
}

void SimdSizes(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"n", "simd"});
  for (std::int64_t n : {64, 512, 4096}) {
    for (std::int64_t simd : {0, 1}) {
      bench->Args({n, simd});
    }
  }
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
  const util::simd::ScopedLevel pin(LevelArg(state.range(1)));
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
BENCHMARK(BM_ObjectiveValueAndGradient)
    ->ArgNames({"tasks", "simd"})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1});

// ---- dispatched SIMD kernels (util/simd.h), scalar vs best level ----------

void BM_KernelDot(benchmark::State& state) {
  const util::simd::ScopedLevel pin(LevelArg(state.range(1)));
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> a = FillVec(n, 1);
  const std::vector<double> b = FillVec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::simd::Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelDot)->Apply(SimdSizes);

void BM_KernelSum(benchmark::State& state) {
  const util::simd::ScopedLevel pin(LevelArg(state.range(1)));
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> a = FillVec(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::simd::Sum(a.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelSum)->Apply(SimdSizes);

void BM_KernelStepAndSlope(benchmark::State& state) {
  const util::simd::ScopedLevel pin(LevelArg(state.range(1)));
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = FillVec(n, 4);
  const std::vector<double> grad = FillVec(n, 5);
  const std::vector<double> trial = FillVec(n, 6);
  std::vector<double> direction(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::simd::StepAndSlope(
        x.data(), grad.data(), trial.data(), direction.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelStepAndSlope)->Apply(SimdSizes);

void BM_KernelSpectralPair(benchmark::State& state) {
  const util::simd::ScopedLevel pin(LevelArg(state.range(1)));
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> direction = FillVec(n, 7);
  const std::vector<double> grad = FillVec(n, 8);
  const std::vector<double> trial_grad = FillVec(n, 9);
  double sts = 0.0;
  double sty = 0.0;
  for (auto _ : state) {
    util::simd::SpectralPair(0.8, direction.data(), grad.data(),
                             trial_grad.data(), n, &sts, &sty);
    benchmark::DoNotOptimize(sts);
    benchmark::DoNotOptimize(sty);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelSpectralPair)->Apply(SimdSizes);

void BM_KernelClampBox(benchmark::State& state) {
  // The box projection of every SPG inner iteration.
  const util::simd::ScopedLevel pin(LevelArg(state.range(1)));
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> lo = FillVec(n, 10);
  std::vector<double> hi = lo;
  for (double& v : hi) {
    v += 1.0;
  }
  std::vector<double> x = FillVec(n, 11);
  for (auto _ : state) {
    util::simd::ClampBox(lo.data(), hi.data(), x.data(), n);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelClampBox)->Apply(SimdSizes);

void BM_KernelPackedRows3(benchmark::State& state) {
  // The batched linear-constraint residual sweep (opt/workspace.h packs
  // precedence rows into this slot-major 3-term layout).
  const util::simd::ScopedLevel pin(LevelArg(state.range(1)));
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 2 * rows + 1;
  const std::vector<double> x = FillVec(dim, 12);
  const std::vector<double> constant = FillVec(rows, 13);
  const std::vector<double> coeff = FillVec(3 * rows, 14);
  std::vector<std::int32_t> idx(3 * rows);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<std::int32_t>((i * 7 + 3) % dim);
  }
  std::vector<double> out(rows);
  for (auto _ : state) {
    util::simd::PackedRows3(constant.data(), coeff.data(), idx.data(),
                            x.data(), out.data(), rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_KernelPackedRows3)->Apply(SimdSizes);

void BM_KernelCbrt(benchmark::State& state) {
  // The per-dispatch bin roots of sim::ExpectedCasePolicy: survival
  // weights in [0, 1], all on the in-tree path (no libm fallback).
  const util::simd::ScopedLevel pin(LevelArg(state.range(1)));
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
BENCHMARK(BM_KernelCbrt)->Apply(SimdSizes);

void BM_SolveAcs(benchmark::State& state) {
  const util::simd::ScopedLevel pin(LevelArg(state.range(1)));
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = MakeSet(static_cast<int>(state.range(0)), 11);
  const fps::FullyPreemptiveSchedule fps(set);
  for (auto _ : state) {
    const core::ScheduleResult result = core::SolveAcs(fps, cpu);
    benchmark::DoNotOptimize(result.predicted_energy);
  }
}
BENCHMARK(BM_SolveAcs)
    ->ArgNames({"tasks", "simd"})
    ->Args({4, 0})
    ->Args({4, 1})
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
