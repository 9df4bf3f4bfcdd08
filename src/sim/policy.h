// Online DVS policies (the runtime half of the paper's scheme).
//
// The engine owns all execution state and asks the policy, at every dispatch
// or resume, which voltage to run at — and optionally whether the instance
// should be deferred.  The paper's runtime is GreedyReclaimPolicy: voltage
// such that the current sub-instance's *remaining worst-case budget* finishes
// exactly at its scheduled end-time; slack from early completion therefore
// flows to whatever runs next ("greedy slack distribution").
#ifndef ACS_SIM_POLICY_H
#define ACS_SIM_POLICY_H

#include <cstdint>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "fps/expansion.h"
#include "model/power_model.h"
#include "sim/static_schedule.h"

namespace dvs::sim {

/// Everything a policy may look at when dispatching.  Times are in local
/// hyper-period coordinates (the schedule repeats every hyper-period).
struct DispatchContext {
  model::TaskIndex task = 0;
  std::size_t sub_order = 0;        // current sub-instance (total order index)
  double budget_remaining = 0.0;    // worst-case cycles left in this sub
  double local_time = 0.0;          // now, modulo hyper-period
  double sub_end_time = 0.0;        // scheduled e_u (local)
  double sub_release = 0.0;         // segment start (local)
  double instance_deadline = 0.0;   // absolute deadline (local)
};

struct DispatchDecision {
  double voltage = 0.0;
  /// When set and > now, the engine keeps the instance parked until this
  /// local time (used by the conservative no-early-start variant).
  std::optional<double> not_before;
  /// When set, the engine ends the slice after at most this many cycles and
  /// re-dispatches (even though the sub-instance's budget is not exhausted).
  /// Lets a policy run a piecewise speed profile *within* one sub-instance
  /// (ExpectedCasePolicy's per-bin speeds); unset preserves the legacy
  /// run-to-budget slicing bit-for-bit.
  std::optional<double> cycle_cap;
};

/// The paper's online phase: stretch the remaining worst-case budget of the
/// current sub-instance to its scheduled end-time; clamp into the voltage
/// range.  Every sub-instance is gated at its segment start (its release):
/// before that boundary the static plan assigns the processor to *other*
/// tasks' sub-instances, so slack from early completion flows to the next
/// sub-instance in the total order — the paper's greedy slack distribution
/// and the premise of its constraint (11).
///
/// `allow_early_start = true` removes the gate: an instance rolls straight
/// into its next segment's budget at a stretched (low) voltage.  That hogs
/// the processor through windows the offline plan reserved for lower-
/// priority tasks and CAN MISS DEADLINES; it exists purely as the
/// bench_ablation_policy counterfactual quantifying why the gate matters.
class GreedyReclaimPolicy {
 public:
  explicit GreedyReclaimPolicy(const model::DvsModel& dvs,
                               bool allow_early_start = false)
      : dvs_(&dvs),
        vmin_(dvs.vmin()),
        vmax_(dvs.vmax()),
        allow_early_start_(allow_early_start) {}

  DispatchDecision Dispatch(const DispatchContext& ctx) const;

 private:
  const model::DvsModel* dvs_;
  double vmin_;  // the model's voltage range, read once at construction
  double vmax_;
  bool allow_early_start_;
};

/// No DVS at all: always run at Vmax (the energy ceiling reference).
class VmaxPolicy {
 public:
  explicit VmaxPolicy(const model::DvsModel& dvs) : dvs_(&dvs) {}

  DispatchDecision Dispatch(const DispatchContext& ctx) const;

 private:
  const model::DvsModel* dvs_;
};

/// Static voltages only, no online reclamation: each sub-instance runs at
/// the voltage the offline schedule planned for the *worst-case* start, even
/// when it actually starts early.  Quantifies how much of the win comes from
/// the static end-times versus the online slack pass-through.
class StaticOnlyPolicy {
 public:
  StaticOnlyPolicy(const fps::FullyPreemptiveSchedule& fps,
                   const StaticSchedule& schedule, const model::DvsModel& dvs);

  DispatchDecision Dispatch(const DispatchContext& ctx) const;

 private:
  const model::DvsModel* dvs_;
  std::vector<double> voltages_;  // per sub-instance, fixed offline
};

/// Expected-case online DVS (the Berten/Chang/Kuo-style "online half" of the
/// adaptive stack): at every dispatch the policy splits the current
/// sub-instance's remaining worst-case budget into `bins` equal cycle bins,
/// weights each bin by the calibrated probability the instance actually
/// *reaches* it (the survival function of the scenario's realised per-task
/// law), and picks per-bin speeds minimising expected energy subject to the
/// same worst-case window constraint GreedyReclaimPolicy enforces:
///
///   min  sum_j S_j * w * s_j^2      (E = ceff v^2 cycles, s ∝ v)
///   s.t. sum_j w / s_j <= window,   s_j in [MinSpeed, MaxSpeed]
///
/// whose interior optimum is s_j ∝ S_j^{-1/3} (the classic PACE speed rule);
/// range clamps are resolved by water-filling (pin violated bins, re-
/// normalise the rest).  Because the worst-case time budget is preserved
/// exactly, the policy inherits greedy-reclaim's zero-miss guarantee; it
/// merely *orders* the work slow-to-fast so instances that finish near the
/// calibrated mean never pay for the tail.  The dispatch returns the first
/// bin's speed plus a cycle_cap at the end of the equal-speed prefix, so the
/// engine re-dispatches at profile breakpoints and the profile re-conditions
/// on realised progress as the instance advances.
///
/// All tables (per-sub worst-case prefix cycles, flat per-task survival
/// grids) are precomputed at construction; Dispatch touches only fixed-size
/// scratch, so the engine's hot loop stays allocation-free.  A DP dispatch
/// costs one survival lookup per bin and one util::simd::Cbrt pass over the
/// bins; the water-filling passes reuse the roots.  `task_scale` (optional,
/// finite entries) stretches task i's calibrated law by scale[i] — the drift
/// adaptor's cheap mid-run re-conditioning knob (Pr[f·X > x] = Pr[X > x/f]).
class ExpectedCasePolicy {
 public:
  /// Largest accepted `bins` (--online-dp-bins).
  static constexpr std::int64_t kMaxBins = 64;

  /// `sorted_draws[i]` are task i's calibration draws in ascending order;
  /// `bins` must lie in [1, kMaxBins].
  ExpectedCasePolicy(const fps::FullyPreemptiveSchedule& fps,
                     const StaticSchedule& schedule,
                     const model::DvsModel& dvs,
                     const std::vector<std::vector<double>>& sorted_draws,
                     std::int64_t bins,
                     const std::vector<double>* task_scale = nullptr);

  DispatchDecision Dispatch(const DispatchContext& ctx) const;

  /// Dispatches that went through the DP profile (vs degenerate fallbacks).
  std::int64_t dp_dispatches() const { return dp_dispatches_; }

  /// Per-bin survival weights and speeds of the last DP dispatch: the
  /// profile whose first bin that dispatch ran.
  const std::vector<double>& profile_weights() const { return weight_; }
  const std::vector<double>& profile_speeds() const { return speed_; }

 private:
  static constexpr std::size_t kGridPoints = 129;  // survival grid per task

  const model::DvsModel* dvs_;
  std::size_t bins_;
  // Model constants read on every dispatch, hoisted out of the virtual
  // calls (same values); linear_k_ > 0 marks a LinearDvsModel, whose
  // voltage law Dispatch inlines.
  double vmin_;
  double vmax_;
  double smin_;
  double smax_;
  double linear_k_ = 0.0;
  std::vector<double> budgets_;      // per sub: worst-case budget
  std::vector<double> done_before_;  // per sub: parent cycles before it
  std::vector<double> scale_;        // per task: drift stretch factor
  std::vector<double> grid_lo_;      // per task: survival grid origin (BCEC)
  std::vector<double> grid_step_;    // per task: survival grid spacing
  std::vector<double> survival_;     // task-major: P(X > grid point)
  // Dispatch-time scratch, sized once at construction (hot loop stays
  // allocation-free).  The policy is used by a single simulation at a time
  // (the engine contract), so mutable scratch is safe.
  mutable std::vector<double> weight_;
  mutable std::vector<double> root_;  // cbrt(weight_), once per dispatch
  mutable std::vector<double> speed_;
  mutable std::vector<char> pinned_;
  mutable std::int64_t dp_dispatches_ = 0;
};

/// The policies as a closed variant.  The engine visits the variant *once*
/// per simulation and runs a loop specialised to the concrete policy type,
/// so the per-slice Dispatch call inlines (see sim/engine.cc).
using BuiltinPolicy = std::variant<GreedyReclaimPolicy, VmaxPolicy,
                                   StaticOnlyPolicy, ExpectedCasePolicy>;

/// A policy by value.  Construction is implicit, so method implementations
/// and callers write `sim::GreedyReclaimPolicy(dvs)` wherever an AnyPolicy
/// is expected — no heap, no vtable.
class AnyPolicy {
 public:
  AnyPolicy(GreedyReclaimPolicy policy) : builtin_(std::move(policy)) {}
  AnyPolicy(VmaxPolicy policy) : builtin_(std::move(policy)) {}
  AnyPolicy(StaticOnlyPolicy policy) : builtin_(std::move(policy)) {}
  AnyPolicy(ExpectedCasePolicy policy) : builtin_(std::move(policy)) {}

  /// The held policy as its variant.
  const BuiltinPolicy& builtin() const { return builtin_; }

  /// Convenience dispatch through the held policy — used outside the
  /// engine's hot loop (the engine specialises instead).
  DispatchDecision Dispatch(const DispatchContext& ctx) const;

 private:
  BuiltinPolicy builtin_;
};

}  // namespace dvs::sim

#endif  // ACS_SIM_POLICY_H
