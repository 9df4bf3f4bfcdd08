#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "util/error.h"
#include "util/logging.h"

namespace dvs::sim {
namespace {

constexpr double kCycleEps = 1e-6;   // cycles considered "zero"
constexpr double kTimeEps = 1e-9;    // simultaneous-event tolerance
constexpr double kInf = std::numeric_limits<double>::infinity();

using ActiveInstance = EngineWorkspace::ActiveInstance;
using SubRef = EngineWorkspace::SubRef;

/// Resets a (possibly reused) result to its just-constructed state while
/// keeping vector/string/trace capacity.
void ResetResult(SimResult& result, std::size_t task_count) {
  result.total_energy = 0.0;
  result.per_task_energy.assign(task_count, 0.0);
  result.deadline_misses = 0;
  result.completed_instances = 0;
  result.busy_time = 0.0;
  result.idle_time = 0.0;
  result.stall_time = 0.0;
  result.transition_energy = 0.0;
  result.dispatches = 0;
  result.preemptions = 0;
  result.voltage_switches = 0;
  result.makespan = 0.0;
  result.idle_energy = 0.0;
  result.sleep_energy = 0.0;
  result.sleep_time = 0.0;
  result.sleeps = 0;
  result.first_miss.clear();
  result.trace.Clear();
  result.sampled_cycles.assign(task_count, 0.0);
  result.sampled_counts.assign(task_count, 0);
}

/// The engine loop, templated on the policy type so the per-slice dispatch
/// is a direct call.  Identical logic for every instantiation; `Policy`
/// only needs `Dispatch(const DispatchContext&)`.
template <typename Policy>
void SimulateLoop(const fps::FullyPreemptiveSchedule& fps,
                  const StaticSchedule& schedule, const model::DvsModel& dvs,
                  const Policy& policy, const model::WorkloadSampler& sampler,
                  stats::Rng& rng, const SimOptions& options,
                  EngineWorkspace& ws) {
  ACS_REQUIRE(options.hyper_periods > 0, "need at least one hyper-period");

  const model::TaskSet& set = fps.task_set();
  const double hyper = static_cast<double>(set.hyper_period());

  // Pre-resolve sub-instance tables per parent instance (flattened: parent
  // p's table spans [sub_begin[p], sub_begin[p + 1]) of sub_refs).
  ws.sub_refs.clear();
  ws.sub_begin.clear();
  ws.sub_refs.reserve(fps.sub_count());
  ws.sub_begin.reserve(fps.instance_count() + 1);
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    ws.sub_begin.push_back(ws.sub_refs.size());
    for (std::size_t order : fps.instance(p).subs) {
      const fps::SubInstance& sub = fps.sub(order);
      ws.sub_refs.push_back(SubRef{order, sub.seg_begin, sub.seg_end,
                                   schedule.end_time(order),
                                   schedule.worst_budget(order)});
    }
  }
  ws.sub_begin.push_back(ws.sub_refs.size());

  // Release stream: instances of one hyper-period sorted by release.
  std::vector<std::size_t>& release_order = ws.release_order;
  release_order.resize(fps.instance_count());
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    release_order[p] = p;
  }
  std::sort(release_order.begin(), release_order.end(),
            [&fps](std::size_t a, std::size_t b) {
              return fps.instance(a).info.release <
                     fps.instance(b).info.release;
            });
  ws.release_time.resize(release_order.size());
  for (std::size_t slot = 0; slot < release_order.size(); ++slot) {
    ws.release_time[slot] = fps.instance(release_order[slot]).info.release;
  }

  // Dispatch rank of each task: its position in (period, index) order, the
  // RM priority the active set is sorted by.  Ranks are distinct per task,
  // so comparing (rank, global_instance) is the same total order as
  // comparing (period, task, global_instance).
  ws.task_rank.assign(set.size(), 0);
  ws.instance_count.resize(set.size());
  for (model::TaskIndex i = 0; i < set.size(); ++i) {
    const std::int64_t period = set.task(i).period;
    for (model::TaskIndex j = 0; j < set.size(); ++j) {
      const std::int64_t other = set.task(j).period;
      if (other < period || (other == period && j < i)) {
        ++ws.task_rank[i];
      }
    }
    ws.instance_count[i] = set.InstanceCount(i);
  }

  // Model constants, read once per run: the clamp and the energy below are
  // expression-for-expression DvsModel::ClampVoltage and DvsModel::Energy.
  const double vmin = dvs.vmin();
  const double vmax = dvs.vmax();
  const double ceff = dvs.ceff();
  const auto clamp_voltage = [vmin, vmax](double v) {
    return std::min(std::max(v, vmin), vmax);
  };

  SimResult& result = ws.result;
  ResetResult(result, set.size());

  std::vector<ActiveInstance>& active = ws.active;
  active.clear();
  std::int64_t hp_index = 0;
  std::size_t stream_pos = 0;  // within release_order for current HP

  const auto next_release_global = [&]() -> double {
    if (hp_index >= options.hyper_periods) {
      return kInf;
    }
    return static_cast<double>(hp_index) * hyper +
           ws.release_time[stream_pos];
  };

  double now = 0.0;
  const auto activate_due = [&]() {
    while (hp_index < options.hyper_periods) {
      const double due = next_release_global();
      if (due > now + kTimeEps) {
        return;
      }
      const std::size_t p = release_order[stream_pos];
      const fps::InstanceRecord& rec = fps.instance(p);
      ActiveInstance inst;
      inst.task = rec.info.task;
      inst.rank = ws.task_rank[inst.task];
      inst.parent = p;
      inst.global_instance =
          hp_index * ws.instance_count[inst.task] + rec.info.instance;
      inst.hp_base = static_cast<double>(hp_index) * hyper;
      inst.release_global = inst.hp_base + rec.info.release;
      inst.deadline_global = inst.hp_base + rec.info.deadline;
      const double wcec = set.task(inst.task).wcec;
      double cycles = sampler.SampleCycles(inst.task, rng);
      ACS_CHECK(cycles >= -kCycleEps && cycles <= wcec * (1.0 + 1e-9),
                "sampled workload outside [0, WCEC]");
      inst.remaining = std::clamp(cycles, 0.0, wcec);
      result.sampled_cycles[inst.task] += inst.remaining;
      ++result.sampled_counts[inst.task];
      active.push_back(inst);
      ++stream_pos;
      if (stream_pos == release_order.size()) {
        stream_pos = 0;
        ++hp_index;
      }
    }
  };

  // Cursor advance: skip sub-instances whose budget is exhausted (or zero).
  const auto advance_cursor = [&](ActiveInstance& inst) {
    const SubRef* table = ws.sub_refs.data() + ws.sub_begin[inst.parent];
    const std::size_t table_size =
        ws.sub_begin[inst.parent + 1] - ws.sub_begin[inst.parent];
    while (inst.sub_pos + 1 < table_size &&
           inst.consumed_in_sub >= table[inst.sub_pos].budget - kCycleEps) {
      ++inst.sub_pos;
      inst.consumed_in_sub = 0.0;
    }
  };

  const auto dispatch_rank_less = [](const ActiveInstance& a,
                                     const ActiveInstance& b) {
    if (a.rank != b.rank) {
      return a.rank < b.rank;
    }
    return a.global_instance < b.global_instance;
  };

  double last_voltage = -1.0;
  double speed_voltage = -1.0;  // voltage `speed` was computed at
  double speed = 0.0;
  std::int64_t last_running_instance = -1;
  model::TaskIndex last_running_task = 0;
  bool last_still_active = false;

  const double sim_horizon_guard =
      static_cast<double>(options.hyper_periods + 2) * hyper;

  // DPM idle consolidation: contiguous idle intervals are bracketed by
  // idle_begin (set at the first idle jump, reset at the next dispatch), so
  // back-to-back jumps — empty set, then a policy deferral — merge into one
  // interval.  An interval beating the sleep state's break-even is slept
  // through with a timed wake at its end; since the engine already knows the
  // dispatch that ends the interval, sleeping never moves it (deadline-safe
  // by construction) — only the energy ledger changes, after the loop.
  const bool dpm = options.dpm && options.idle_power.power_per_ms > 0.0;
  double idle_begin = -1.0;
  const auto dpm_mark_idle = [&]() {
    if (dpm && idle_begin < 0.0) {
      idle_begin = now;
    }
  };
  const auto dpm_close_idle = [&](double idle_end) {
    if (!dpm || idle_begin < 0.0) {
      return;
    }
    const double gap = idle_end - idle_begin;
    if (gap > 0.0 && options.sleep.Worthwhile(gap, options.idle_power)) {
      ++result.sleeps;
      result.sleep_time += gap;
      result.sleep_energy += options.sleep.Energy(gap);
    }
    idle_begin = -1.0;
  };

  while (true) {
    activate_due();
    if (active.empty()) {
      if (hp_index >= options.hyper_periods) {
        break;  // all releases issued, nothing left to run
      }
      const double due = next_release_global();
      dpm_mark_idle();
      result.idle_time += due - now;
      now = due;
      continue;
    }
    ACS_CHECK(now <= sim_horizon_guard,
              "simulation ran away — schedule badly overloaded");

    // Pick the highest-rank runnable instance, honouring policy deferrals.
    std::sort(active.begin(), active.end(), dispatch_rank_less);
    std::size_t chosen = active.size();
    DispatchDecision decision;
    double wake = kInf;
    for (std::size_t i = 0; i < active.size(); ++i) {
      ActiveInstance& inst = active[i];
      advance_cursor(inst);
      const SubRef& sub = ws.sub_refs[ws.sub_begin[inst.parent] + inst.sub_pos];
      DispatchContext ctx;
      ctx.task = inst.task;
      ctx.sub_order = sub.order;
      ctx.budget_remaining = std::max(0.0, sub.budget - inst.consumed_in_sub);
      ctx.local_time = now - inst.hp_base;
      ctx.sub_end_time = sub.end_time;
      ctx.sub_release = sub.seg_begin;
      ctx.instance_deadline = inst.deadline_global - inst.hp_base;
      DispatchDecision d = policy.Dispatch(ctx);
      if (d.not_before.has_value()) {
        if (*d.not_before > ctx.local_time + kTimeEps) {
          wake = std::min(wake, inst.hp_base + *d.not_before);
          continue;
        }
        // Released within the event tolerance: dispatch as at the release.
        // (A deferral's own voltage is a placeholder, not a speed to run.)
        ctx.local_time = *d.not_before;
        d = policy.Dispatch(ctx);
      }
      chosen = i;
      decision = d;
      break;
    }

    if (chosen == active.size()) {
      // Everybody deferred: jump to the earliest wake or release.
      const double due = std::min(next_release_global(), wake);
      ACS_CHECK(std::isfinite(due), "deadlock: all instances deferred");
      dpm_mark_idle();
      result.idle_time += due - now;
      now = due;
      continue;
    }

    dpm_close_idle(now);

    double voltage = clamp_voltage(decision.voltage);

    // Voltage-transition accounting (optional overhead model).  References
    // into `active` are taken only after this block: the activation inside
    // it may grow the vector and invalidate them (`chosen` stays valid —
    // activation appends without reordering).
    if (last_voltage >= 0.0 && std::fabs(voltage - last_voltage) > 1e-12) {
      ++result.voltage_switches;
      if (!options.transition.IsZero()) {
        if (options.transition.time_per_volt > 0.0) {
          // The stall advances the clock after the policy chose a voltage
          // for the pre-stall window, so a slice sized to just meet its
          // deadline would land late by up to the stall.  Ratchet the
          // voltage up against its own stall until it covers the post-stall
          // window; the required voltage is monotone in the stall and
          // clamped at vmax, so a few passes reach the fixed point.
          const double remaining_cycles = active[chosen].remaining;
          const double deadline = active[chosen].deadline_global;
          for (int pass = 0; pass < 4; ++pass) {
            const double stall = options.transition.time_per_volt *
                                 std::fabs(voltage - last_voltage);
            const double required = clamp_voltage(dvs.VoltageForWork(
                remaining_cycles, deadline - (now + stall)));
            if (required <= voltage + 1e-12) {
              break;
            }
            voltage = required;
          }
        }
        const double dv = std::fabs(voltage - last_voltage);
        const double stall = options.transition.time_per_volt * dv;
        result.transition_energy += options.transition.energy_per_volt * dv;
        result.total_energy += options.transition.energy_per_volt * dv;
        result.stall_time += stall;
        now += stall;
        activate_due();
      }
    }
    last_voltage = voltage;
    if (voltage != speed_voltage) {
      speed = dvs.SpeedAt(voltage);
      speed_voltage = voltage;
    }

    ActiveInstance& inst = active[chosen];
    const SubRef& sub = ws.sub_refs[ws.sub_begin[inst.parent] + inst.sub_pos];
    const bool last_sub =
        ws.sub_begin[inst.parent] + inst.sub_pos + 1 >=
        ws.sub_begin[inst.parent + 1];

    // Preemption accounting: a different instance displaced the previous
    // runner while it still had work.
    if (last_still_active &&
        (inst.task != last_running_task ||
         inst.global_instance != last_running_instance)) {
      bool previous_alive = false;
      for (const ActiveInstance& other : active) {
        if (other.task == last_running_task &&
            other.global_instance == last_running_instance) {
          previous_alive = true;
          break;
        }
      }
      if (previous_alive) {
        ++result.preemptions;
      }
    }

    // Slice horizon: completion, budget exhaustion, next release, wakes.
    const double budget_rem = std::max(0.0, sub.budget - inst.consumed_in_sub);
    double dt = inst.remaining / speed;
    if (!last_sub && budget_rem < inst.remaining) {
      dt = std::min(dt, budget_rem / speed);
    }
    if (decision.cycle_cap.has_value()) {
      // Policy-imposed profile breakpoint: end the slice after the capped
      // cycles and re-dispatch.  The floor keeps a vanishing cap from
      // stalling the clock (progress is at least kCycleEps cycles).
      dt = std::min(dt, std::max(*decision.cycle_cap, kCycleEps) / speed);
    }
    double slice_end = now + dt;
    slice_end = std::min(slice_end, next_release_global());
    slice_end = std::min(slice_end, wake);
    const double slice_dt = std::max(0.0, slice_end - now);

    if (slice_dt > 0.0) {
      double cycles = speed * slice_dt;
      cycles = std::min(cycles, inst.remaining);
      const double energy = ceff * voltage * voltage * cycles;
      result.total_energy += energy;
      result.per_task_energy[inst.task] += energy;
      result.busy_time += slice_dt;
      ++result.dispatches;
      if (options.record_trace) {
        ExecutionSlice slice;
        slice.task = inst.task;
        slice.instance = inst.global_instance;
        slice.sub_k = static_cast<int>(inst.sub_pos);
        slice.begin = now;
        slice.end = slice_end;
        slice.voltage = voltage;
        slice.cycles = cycles;
        result.trace.Add(slice);
      }
      inst.remaining -= cycles;
      inst.consumed_in_sub += cycles;
      now = slice_end;
    }

    last_running_task = inst.task;
    last_running_instance = inst.global_instance;
    last_still_active = true;

    if (inst.remaining <= kCycleEps) {
      // Instance complete.
      ++result.completed_instances;
      result.makespan = std::max(result.makespan, now);
      if (now > inst.deadline_global + 1e-6) {
        ++result.deadline_misses;
        if (result.first_miss.empty()) {
          std::ostringstream msg;
          msg << set.task(inst.task).name << "[" << inst.global_instance
              << "] finished at " << now << " past deadline "
              << inst.deadline_global;
          result.first_miss = msg.str();
        }
      }
      last_still_active = false;
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(chosen));
      continue;
    }
    // Otherwise: budget exhausted (cursor advances on the next pass), a
    // release arrived (activation at loop head may preempt), or a deferred
    // instance woke up.  All handled by the next iteration.
  }

  if (dpm) {
    // The mission spans whole hyper-periods even after the last completion;
    // the remainder is one final idle interval.  The floor is paid for the
    // full mission except while asleep; sleep residency and transitions are
    // ledgered separately.  DPM never touches dispatch times, so everything
    // above this point is bit-identical to the DPM-off run.
    const double mission_end =
        static_cast<double>(options.hyper_periods) * hyper;
    if (now < mission_end) {
      dpm_mark_idle();
      result.idle_time += mission_end - now;
      now = mission_end;
    }
    dpm_close_idle(now);
    const double mission = std::max(now, mission_end);
    result.idle_energy =
        options.idle_power.power_per_ms * (mission - result.sleep_time);
    result.total_energy += result.idle_energy + result.sleep_energy;
  }
}

}  // namespace

SimResult Simulate(const fps::FullyPreemptiveSchedule& fps,
                   const StaticSchedule& schedule,
                   const model::DvsModel& dvs, const AnyPolicy& policy,
                   const model::WorkloadSampler& sampler, stats::Rng& rng,
                   const SimOptions& options) {
  EngineWorkspace ws;
  Simulate(fps, schedule, dvs, policy, sampler, rng, options, ws);
  return std::move(ws.result);
}

const SimResult& Simulate(const fps::FullyPreemptiveSchedule& fps,
                          const StaticSchedule& schedule,
                          const model::DvsModel& dvs, const AnyPolicy& policy,
                          const model::WorkloadSampler& sampler,
                          stats::Rng& rng, const SimOptions& options,
                          EngineWorkspace& workspace) {
  std::visit(
      [&](const auto& concrete) {
        SimulateLoop(fps, schedule, dvs, concrete, sampler, rng, options,
                     workspace);
      },
      policy.builtin());
  return workspace.result;
}

StaticSchedule BuildVmaxAsapSchedule(const fps::FullyPreemptiveSchedule& fps,
                                     const model::DvsModel& dvs) {
  const model::TaskSet& set = fps.task_set();
  const double ct_max = dvs.CycleTime(dvs.vmax());

  // Remaining WCEC per parent instance.
  std::vector<double> remaining(fps.instance_count(), 0.0);
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    remaining[p] = set.task(fps.instance(p).info.task).wcec;
  }

  std::vector<double> end_times(fps.sub_count(), 0.0);
  std::vector<double> budgets(fps.sub_count(), 0.0);
  const std::vector<double>& end_cap = fps.effective_end_bounds();

  double finish = 0.0;  // worst-case RM chain at Vmax
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    const fps::SubInstance& sub = fps.sub(u);
    const double start = std::max(finish, sub.release());
    // Capacity is bounded by the monotone end-time cap, not just the
    // segment end, so the resulting end-times are non-decreasing through
    // the total order (required by the offline chain constraints).
    const double capacity_time = std::max(0.0, end_cap[u] - start);
    const double capacity_cycles = capacity_time / ct_max;
    const double w = std::min(remaining[sub.parent], capacity_cycles);
    budgets[u] = w;
    const double end = start + w * ct_max;
    end_times[u] = std::clamp(end, sub.seg_begin, end_cap[u]);
    remaining[sub.parent] -= w;
    if (w > 0.0) {
      finish = end_times[u];
    }
  }

  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    if (remaining[p] > kCycleEps) {
      const fps::InstanceRecord& rec = fps.instance(p);
      std::ostringstream msg;
      msg << "task set not RM-schedulable at Vmax: "
          << set.task(rec.info.task).name << "[" << rec.info.instance
          << "] cannot place " << remaining[p]
          << " worst-case cycles before its deadline " << rec.info.deadline;
      throw util::InfeasibleError(msg.str());
    }
  }
  return StaticSchedule(fps, std::move(end_times), std::move(budgets));
}

bool IsRmSchedulable(const fps::FullyPreemptiveSchedule& fps,
                     const model::DvsModel& dvs) {
  try {
    BuildVmaxAsapSchedule(fps, dvs);
    return true;
  } catch (const util::InfeasibleError&) {
    return false;
  }
}

}  // namespace dvs::sim
