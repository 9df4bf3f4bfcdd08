// Discrete-event preemptive execution engine.
//
// Simulates the frame-based RM system of paper §2.1 for a number of
// hyper-periods: releases are the only preemption points, the
// highest-dispatch-rank active instance runs, and the voltage of every
// execution slice comes from the online policy (sim/policy.h).  Actual per-instance
// workloads are drawn from a WorkloadSampler at release time, so the same
// engine measures the average-case scenario, the adversarial all-WCEC
// scenario and any registered execution-time process
// (workload::ScenarioRegistry).  The job-draw path has a fixed contract:
// releases activate in global release order and each consumes the sampler
// exactly once against the engine's rng stream, so stateful samplers
// (Markov phases, AR(1) memory, trace cursors) see a deterministic job
// sequence — one sampler per simulation run, per model/workload.h.
//
// Sub-instance bookkeeping: every active instance walks the sub-instance
// list of its parent (from the fully preemptive expansion); a sub-instance
// is "used up" when its worst-case budget has been consumed, which triggers
// a re-dispatch (the paper's per-sub-instance voltage computation).
#ifndef ACS_SIM_ENGINE_H
#define ACS_SIM_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "fps/expansion.h"
#include "model/power_model.h"
#include "model/workload.h"
#include "sim/policy.h"
#include "sim/static_schedule.h"
#include "sim/trace.h"
#include "stats/rng.h"

namespace dvs::sim {

struct SimOptions {
  std::int64_t hyper_periods = 1;
  bool record_trace = false;
  /// Optional voltage-transition overhead (energy and stall time); zero by
  /// default, matching the paper's assumption.
  model::TransitionOverhead transition;
  /// DPM sleep accounting: when `dpm` is set (and the idle floor is
  /// positive), the engine charges `idle_power` across the whole mission
  /// time and consolidates idle intervals — an interval beating the sleep
  /// state's break-even is slept through (timed wake, so dispatch times are
  /// untouched and the schedule is bit-identical to the DPM-off run; only
  /// the energy ledger changes).  Off by default: the legacy path charges
  /// nothing for idleness (the fleet layer's per-core floor accounting).
  bool dpm = false;
  model::IdlePower idle_power;
  model::SleepState sleep;
};

struct SimResult {
  double total_energy = 0.0;
  std::vector<double> per_task_energy;
  std::int64_t deadline_misses = 0;
  std::int64_t completed_instances = 0;
  double busy_time = 0.0;
  double idle_time = 0.0;
  double stall_time = 0.0;          // transition overhead stalls
  double transition_energy = 0.0;   // included in total_energy
  std::int64_t dispatches = 0;      // execution slices started
  std::int64_t preemptions = 0;     // running instance displaced by another
  std::int64_t voltage_switches = 0;
  double makespan = 0.0;            // completion time of the last instance
  /// DPM ledger (all zero unless SimOptions::dpm): floor energy paid while
  /// awake (busy or idle — the always-on IdlePower over the mission minus
  /// slept time), sleep-state energy (transitions + residency), time spent
  /// in committed sleeps and their count.  idle_energy + sleep_energy are
  /// both included in total_energy.
  double idle_energy = 0.0;
  double sleep_energy = 0.0;
  double sleep_time = 0.0;
  std::int64_t sleeps = 0;
  std::string first_miss;           // description of the first deadline miss
  Trace trace;                      // populated when record_trace is set
  /// Per-task realised workload bookkeeping, accumulated at activation (one
  /// entry per sampler draw): the raw material of the drift detector's
  /// per-task EWMA (core::EvaluateMethod's adaptive arms).
  std::vector<double> sampled_cycles;        // sum of drawn cycles
  std::vector<std::int64_t> sampled_counts;  // draws per task

  /// Energy per simulated hyper-period (the paper's reported quantity).
  /// Guarded: a non-positive count (a failed or skipped run) reports zero
  /// instead of dividing by it.
  double EnergyPerHyperPeriod(std::int64_t hyper_periods) const {
    return hyper_periods > 0
               ? total_energy / static_cast<double>(hyper_periods)
               : 0.0;
  }
};

/// Reusable buffers for Simulate — the sub-instance tables, release stream,
/// active set and the result object itself.  One workspace per thread (see
/// core::EvalWorkspace); after the first simulation the steady-state engine
/// path performs no heap allocations (deadline-miss reporting and trace
/// recording excepted).  Results are bit-identical with or without one.
struct EngineWorkspace {
  /// Pre-resolved sub-instance data, flattened across parent instances
  /// (parent p's table spans [sub_begin[p], sub_begin[p + 1])).
  struct SubRef {
    std::size_t order = 0;
    double seg_begin = 0.0;
    double seg_end = 0.0;
    double end_time = 0.0;
    double budget = 0.0;
  };

  /// One released-but-unfinished instance.
  struct ActiveInstance {
    model::TaskIndex task = 0;
    std::size_t rank = 0;              // task_rank[task]
    std::size_t parent = 0;            // InstanceRecord index (within HP)
    std::int64_t global_instance = 0;  // across hyper-periods
    double hp_base = 0.0;              // global time of this HP's start
    double release_global = 0.0;
    double deadline_global = 0.0;
    double remaining = 0.0;            // actual cycles left
    std::size_t sub_pos = 0;           // cursor into the parent's sub table
    double consumed_in_sub = 0.0;      // budget used within the current sub
  };

  std::vector<SubRef> sub_refs;
  std::vector<std::size_t> sub_begin;
  std::vector<std::size_t> release_order;
  /// Per-run tables, built once per Simulate next to sub_refs: each task's
  /// dispatch rank by (period, index), the local release time of each
  /// release-stream slot, and each task's per-hyper-period instance count.
  std::vector<std::size_t> task_rank;
  std::vector<double> release_time;
  std::vector<std::int64_t> instance_count;
  std::vector<ActiveInstance> active;
  SimResult result;  // written by the workspace Simulate overload
};

/// Runs the simulation.  `schedule` supplies the per-sub-instance end-times
/// and worst-case budgets consumed by the policy; `rng` drives workload
/// sampling (pass a forked stream for reproducibility).  The loop is
/// specialised to the concrete policy type, so no call per slice is
/// virtual.  Throws util::InvalidArgumentError for a negative or
/// non-finite transition overhead (model::TransitionOverhead::Validate).
SimResult Simulate(const fps::FullyPreemptiveSchedule& fps,
                   const StaticSchedule& schedule,
                   const model::DvsModel& dvs, const AnyPolicy& policy,
                   const model::WorkloadSampler& sampler, stats::Rng& rng,
                   const SimOptions& options = {});

/// Allocation-free steady-state path: simulates into `workspace.result`
/// reusing every buffer, and returns a reference to it (valid until the
/// workspace's next use).
const SimResult& Simulate(const fps::FullyPreemptiveSchedule& fps,
                          const StaticSchedule& schedule,
                          const model::DvsModel& dvs, const AnyPolicy& policy,
                          const model::WorkloadSampler& sampler,
                          stats::Rng& rng, const SimOptions& options,
                          EngineWorkspace& workspace);

/// Builds the canonical "everything at Vmax, as soon as possible" schedule:
/// budgets follow the worst-case RM execution at top speed through the
/// fully preemptive total order; end-times are the resulting finish times.
/// Doubles as (a) the exact RM-schedulability test — throws InfeasibleError
/// when some instance cannot absorb its WCEC by its deadline — and (b) the
/// warm start of the WCS/ACS optimisers.
StaticSchedule BuildVmaxAsapSchedule(const fps::FullyPreemptiveSchedule& fps,
                                     const model::DvsModel& dvs);

/// True when the task set passes the exact RM test at Vmax.
bool IsRmSchedulable(const fps::FullyPreemptiveSchedule& fps,
                     const model::DvsModel& dvs);

}  // namespace dvs::sim

#endif  // ACS_SIM_ENGINE_H
