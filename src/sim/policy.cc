#include "sim/policy.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/simd.h"

namespace dvs::sim {

DispatchDecision GreedyReclaimPolicy::Dispatch(
    const DispatchContext& ctx) const {
  DispatchDecision decision;
  if (!allow_early_start_ && ctx.local_time < ctx.sub_release) {
    decision.not_before = ctx.sub_release;
    decision.voltage = vmax_;
    return decision;
  }
  const double window = ctx.sub_end_time - ctx.local_time;
  if (window <= 0.0 || ctx.budget_remaining <= 0.0) {
    // Degenerate dispatch: a zero-width (or overrun) window at a
    // hyper-period wrap, or a sub whose budget is already spent while the
    // instance still holds cycles.  There is no span to stretch over, so
    // run flat out — never divide the stretch ratio by a non-positive
    // window or hand a zero budget to the voltage solve.
    decision.voltage = vmax_;
    return decision;
  }
  // DvsModel::VoltageForWork for a positive budget and window, inlined.
  decision.voltage = std::min(
      std::max(dvs_->VoltageForSpeed(ctx.budget_remaining / window), vmin_),
      vmax_);
  return decision;
}

ExpectedCasePolicy::ExpectedCasePolicy(
    const fps::FullyPreemptiveSchedule& fps, const StaticSchedule& schedule,
    const model::DvsModel& dvs,
    const std::vector<std::vector<double>>& sorted_draws, std::int64_t bins,
    const std::vector<double>* task_scale)
    : dvs_(&dvs),
      bins_(static_cast<std::size_t>(bins)),
      vmin_(dvs.vmin()),
      vmax_(dvs.vmax()),
      smin_(dvs.MinSpeed()),
      smax_(dvs.MaxSpeed()) {
  if (const auto* linear = dynamic_cast<const model::LinearDvsModel*>(&dvs)) {
    linear_k_ = linear->k();
  }
  const model::TaskSet& set = fps.task_set();
  ACS_REQUIRE(bins >= 1 && bins <= kMaxBins,
              "expected-case dispatch needs 1..64 cycle bins "
              "(--online-dp-bins)");
  ACS_REQUIRE(sorted_draws.size() == set.size(),
              "ExpectedCasePolicy needs one calibrated draw vector per task");

  // Per-sub worst-case prefix: cycles of the parent instance consumed
  // before each sub under the static schedule's budgets.  Conditions the
  // survival weights on realised progress at dispatch time.
  budgets_.resize(fps.sub_count(), 0.0);
  done_before_.resize(fps.sub_count(), 0.0);
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    double before = 0.0;
    for (std::size_t order : fps.instance(p).subs) {
      budgets_[order] = schedule.worst_budget(order);
      done_before_[order] = before;
      before += budgets_[order];
    }
  }

  // Per-task survival grids over [BCEC, WCEC], flat (task-major, kGridPoints
  // per task): entry k is the fraction of calibrated draws strictly above
  // the k-th grid point.  Dispatch interpolates linearly, so grid resolution
  // only smooths the profile, never breaks feasibility.
  scale_.assign(set.size(), 1.0);
  if (task_scale != nullptr) {
    ACS_REQUIRE(task_scale->size() == set.size(),
                "task_scale must have one entry per task");
    for (std::size_t i = 0; i < set.size(); ++i) {
      // A NaN would silently clamp to the floor below and an infinite
      // stretch would zero every survival weight: reject both.
      ACS_REQUIRE(std::isfinite((*task_scale)[i]),
                  "task_scale entry of task " + set.task(i).name +
                      " must be finite");
      scale_[i] = std::max(1e-9, (*task_scale)[i]);
    }
  }
  grid_lo_.resize(set.size(), 0.0);
  grid_step_.resize(set.size(), 0.0);
  survival_.assign(set.size() * kGridPoints, 0.0);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const model::Task& task = set.task(i);
    grid_lo_[i] = task.bcec;
    grid_step_[i] = (task.wcec - task.bcec) /
                    static_cast<double>(kGridPoints - 1);
    const std::vector<double>& sorted = sorted_draws[i];
    ACS_REQUIRE(std::is_sorted(sorted.begin(), sorted.end()),
                "calibrated draws of task " + task.name +
                    " must be sorted ascending");
    double* grid = &survival_[i * kGridPoints];
    for (std::size_t k = 0; k < kGridPoints; ++k) {
      const double x = task.bcec + grid_step_[i] * static_cast<double>(k);
      if (sorted.empty()) {
        // No calibration data: assume the worst (always reaches WCEC), which
        // degrades to the greedy stretch profile.
        grid[k] = x < task.wcec ? 1.0 : 0.0;
        continue;
      }
      // First index with sorted[idx] > x; the tail fraction is survival.
      const auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
      grid[k] = static_cast<double>(sorted.end() - it) /
                static_cast<double>(sorted.size());
    }
  }

  weight_.resize(bins_, 0.0);
  root_.resize(bins_, 0.0);
  speed_.resize(bins_, 0.0);
  pinned_.resize(bins_, 0);
}

DispatchDecision ExpectedCasePolicy::Dispatch(
    const DispatchContext& ctx) const {
  DispatchDecision decision;
  // Same release gate as GreedyReclaimPolicy: before its segment start the
  // static plan assigns the processor elsewhere; starting early would break
  // the feasibility argument.
  if (ctx.local_time < ctx.sub_release) {
    decision.not_before = ctx.sub_release;
    decision.voltage = vmax_;
    return decision;
  }
  const double window = ctx.sub_end_time - ctx.local_time;
  const double budget = ctx.budget_remaining;
  if (window <= 0.0 || budget <= 0.0) {
    decision.voltage = vmax_;  // degenerate window: no room to shape
    return decision;
  }

  const double smin = smin_;
  const double smax = smax_;
  if (budget / smax >= window) {
    // Even flat-out barely (or doesn't) fit: the whole window runs at Vmax,
    // exactly the greedy clamp.
    decision.voltage = vmax_;
    return decision;
  }

  // Condition on realised progress: the parent instance has consumed its
  // worst-case prefix up to this sub plus whatever this sub already ran.
  // Bin j's weight is the survival S_j at its centre, interpolated on the
  // task's grid; the drift stretch models the shifted law as f * X, so
  // Pr[f X > c] = Pr[X > c / f] is read off the base grid.
  const double consumed =
      done_before_[ctx.sub_order] + (budgets_[ctx.sub_order] - budget);
  const double bin_w = budget / static_cast<double>(bins_);
  const double stretch = scale_[ctx.task];
  const double lo = grid_lo_[ctx.task];
  const double step = grid_step_[ctx.task];
  const double* grid = &survival_[ctx.task * kGridPoints];
  double total_weight = 0.0;
  for (std::size_t j = 0; j < bins_; ++j) {
    // (Dividing by a unit stretch is exact, so skipping it keeps the bits.)
    const double cycles = consumed + (static_cast<double>(j) + 0.5) * bin_w;
    const double x = stretch == 1.0 ? cycles : cycles / stretch;
    double weight;
    if (step <= 0.0) {
      // Degenerate BCEC == WCEC task: deterministic workload.
      weight = x < lo ? 1.0 : 0.0;
    } else {
      const double pos = (x - lo) / step;
      if (pos <= 0.0) {
        weight = grid[0];
      } else if (pos >= static_cast<double>(kGridPoints - 1)) {
        weight = grid[kGridPoints - 1];
      } else {
        const std::size_t k = static_cast<std::size_t>(pos);
        const double frac = pos - static_cast<double>(k);
        weight = grid[k] + frac * (grid[k + 1] - grid[k]);
      }
    }
    weight_[j] = weight;
    total_weight += weight;
  }
  if (weight_[0] <= 0.0 || total_weight <= 0.0) {
    // Progress is already past every calibrated draw: expected marginal
    // energy is ~0 everywhere, so fall back to the greedy stretch.
    decision.voltage = dvs_->VoltageForWork(budget, window);
    return decision;
  }
  ++dp_dispatches_;
  // Each bin's cube root, taken once in one pass (bit-identical to glibc's
  // std::cbrt on every host) and reused by every water-filling pass.
  util::simd::Cbrt(weight_.data(), root_.data(), bins_);

  // Water-filling over the PACE rule s_j ∝ S_j^{-1/3}: bins with zero
  // weight cost nothing at any speed, so they run at MaxSpeed to donate
  // window time; bins whose unconstrained optimum leaves [smin, smax] are
  // pinned to the violated bound and the rest re-normalised.  Each pass
  // pins at least one bin, so the loop runs at most bins_ passes.
  double pinned_time = 0.0;
  for (std::size_t j = 0; j < bins_; ++j) {
    if (weight_[j] <= 0.0) {
      pinned_[j] = 1;
      speed_[j] = smax;
      pinned_time += bin_w / smax;
    } else {
      pinned_[j] = 0;
    }
  }
  while (true) {
    double cbrt_sum = 0.0;
    std::size_t free_bins = 0;
    for (std::size_t j = 0; j < bins_; ++j) {
      if (pinned_[j] == 0) {
        cbrt_sum += root_[j];
        ++free_bins;
      }
    }
    if (free_bins == 0) {
      break;
    }
    const double free_time = window - pinned_time;
    if (free_time <= 0.0) {
      // Pinned bins ate the window (can only happen within float noise of
      // the feasibility check above): run everything else flat out.
      for (std::size_t j = 0; j < bins_; ++j) {
        if (pinned_[j] == 0) {
          pinned_[j] = 1;
          speed_[j] = smax;
        }
      }
      break;
    }
    const double scale = bin_w * cbrt_sum / free_time;
    for (std::size_t j = 0; j < bins_; ++j) {
      if (pinned_[j] == 0) {
        speed_[j] = scale / root_[j];
      }
    }
    bool repinned = false;
    // Pin max-speed violations first: they *consume* window time, so
    // resolving them before min-speed pins keeps every pass feasible.
    for (std::size_t j = 0; j < bins_; ++j) {
      if (pinned_[j] == 0 && speed_[j] > smax) {
        pinned_[j] = 1;
        speed_[j] = smax;
        pinned_time += bin_w / smax;
        repinned = true;
      }
    }
    if (repinned) {
      continue;
    }
    for (std::size_t j = 0; j < bins_; ++j) {
      if (pinned_[j] == 0 && speed_[j] < smin) {
        pinned_[j] = 1;
        speed_[j] = smin;
        pinned_time += bin_w / smin;
        repinned = true;
      }
    }
    if (!repinned) {
      break;
    }
  }

  // Run the first bin's speed and cap the slice at the end of the
  // equal-speed prefix, so a flat profile dispatches once while a shaped
  // one re-dispatches exactly at its breakpoints.
  double cap = bin_w;
  for (std::size_t j = 1; j < bins_; ++j) {
    if (std::fabs(speed_[j] - speed_[0]) > 1e-12) {
      break;
    }
    cap += bin_w;
  }
  // LinearDvsModel::VoltageForSpeed and DvsModel::ClampVoltage, inlined.
  const double raw = linear_k_ > 0.0 ? speed_[0] / linear_k_
                                     : dvs_->VoltageForSpeed(speed_[0]);
  decision.voltage = std::min(std::max(raw, vmin_), vmax_);
  if (cap < budget) {
    decision.cycle_cap = cap;
  }
  return decision;
}

DispatchDecision VmaxPolicy::Dispatch(const DispatchContext&) const {
  DispatchDecision decision;
  decision.voltage = dvs_->vmax();
  return decision;
}

StaticOnlyPolicy::StaticOnlyPolicy(const fps::FullyPreemptiveSchedule& fps,
                                   const StaticSchedule& schedule,
                                   const model::DvsModel& dvs)
    : dvs_(&dvs) {
  const std::vector<double> starts = ComputeWorstStarts(fps, schedule, dvs);
  voltages_.resize(fps.sub_count(), dvs.vmin());
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    const double window = schedule.end_time(u) - starts[u];
    voltages_[u] = dvs.VoltageForWork(schedule.worst_budget(u), window);
  }
}

DispatchDecision AnyPolicy::Dispatch(const DispatchContext& ctx) const {
  return std::visit(
      [&ctx](const auto& policy) { return policy.Dispatch(ctx); }, builtin_);
}

DispatchDecision StaticOnlyPolicy::Dispatch(const DispatchContext& ctx) const {
  ACS_REQUIRE(ctx.sub_order < voltages_.size(),
              "sub-instance index out of range in StaticOnlyPolicy");
  DispatchDecision decision;
  // No early start, no reclamation: execute inside the planned window only.
  const double planned_release = ctx.sub_release;
  if (ctx.local_time < planned_release) {
    decision.not_before = planned_release;
  }
  decision.voltage = voltages_[ctx.sub_order];
  return decision;
}

}  // namespace dvs::sim
