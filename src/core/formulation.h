// Reduced NLP formulation of the ACS scheduling problem (paper §3.2).
//
// Decision variables: end-time e_u of every sub-instance (total order) plus
// the worst-case workload split w_{I,k} of every instance that the fully
// preemptive expansion cut into two or more sub-instances (single-segment
// instances carry their full WCEC).  All other quantities of the paper's
// formulation — average start times, average workloads, dispatch voltages —
// are *derived* by replaying the greedy runtime under the scenario workload:
//
//   avg workload  : the Fig. 5 case analysis  avg_u = clamp(ACEC - cum, 0, w_u)
//   start chain   : s_u = max(release_u, finish_{u-1})
//   voltage       : V_u = clamp(V(speed = w_u / (e_u - s_u)))   (greedy DVS)
//   finish        : f_u = s_u + avg_u * t_cyc(V_u)
//   objective     : sum ceff * V_u^2 * avg_u
//
// so the objective literally *is* the runtime energy of the scenario the
// schedule is being optimised for (ACEC for ACS, WCEC for the WCS baseline).
// The eliminated paper constraints (6)-(14) reappear as the feasible set
// (segment boxes + per-instance budget simplexes) plus linear worst-case
// chain constraints; see BuildFeasibleSet / BuildChainConstraints.
//
// The gradient is computed analytically by reverse-mode accumulation through
// the forward chain (piecewise smooth: max/clamp kinks take one-sided
// derivatives); tests validate it against central finite differences.
#ifndef ACS_CORE_FORMULATION_H
#define ACS_CORE_FORMULATION_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/case_analysis.h"
#include "fps/expansion.h"
#include "model/power_model.h"
#include "opt/problem.h"
#include "sim/static_schedule.h"

namespace dvs::core {

/// The planning gate: every offline solve — the reduced objective, the
/// exact WCS program, the converged ACS program, the solve-cache identity
/// and the DPM floor — is derived for the paper's linear law speed = k * V,
/// and reaches the model through this one cast.  Throws
/// util::InvalidArgumentError for any other model (DiscreteDvsModel and the
/// like dispatch at runtime only).
const model::LinearDvsModel& PlanningModel(const model::DvsModel& dvs);

/// Which workload the static schedule should be optimal for.
enum class Scenario {
  kAverage,  // ACS: plan for ACEC (the paper's contribution)
  kWorst,    // WCS: plan for WCEC (the paper's baseline)
};

/// The per-task workload point an average-scenario solve optimises for.
///
/// The paper's ACS plans at ACEC; scenario-conditioned arms plan at the
/// calibrated realised mean or at a distribution-weighted mixture of
/// calibrated sample vectors (workload/calibrator.h).  The objective
/// clamps every entry into the task's [BCEC, WCEC] window, so a planning
/// point can never widen the worst-case envelope — feasibility analysis is
/// untouched by the planning axis.
///
/// Exactly one shape is active:
///   - cycles.empty() && mixture.empty(): the ACEC point (the
///     byte-compatible default — solves are bit-identical to the
///     pre-planning tree);
///   - cycles (per model::TaskIndex): a single planning point;
///   - mixture (K per-task vectors): the objective becomes the *mean* of
///     the K forward replays — an expectation over the calibrated law
///     rather than a point plan.  `cycles` must then be empty.
struct PlanningPoint {
  std::vector<double> cycles;
  std::vector<std::vector<double>> mixture;

  bool IsAcec() const { return cycles.empty() && mixture.empty(); }

  /// Per-task planning workload of `cycles` resolved against `set`: the
  /// task's ACEC when `cycles` is empty, otherwise the entry clamped into
  /// [BCEC, WCEC]; a non-finite entry throws InvalidArgumentError.  The
  /// single resolution rule shared by the reduced objective (points and
  /// mixture rows alike) and the converged solve's plans, so the
  /// formulations can never drift onto different points.
  static double ResolveFor(const std::vector<double>& cycles,
                           const model::TaskSet& set, std::size_t task);

  /// FNV-1a over the exact double bit patterns (shape-tagged, so a point
  /// and a 1-vector mixture never collide).  Cache key material for
  /// SolveCache's planned-solve entries; a hit additionally verifies
  /// operator== so a hash collision degrades to a re-solve, never a wrong
  /// reuse.
  std::uint64_t Fingerprint() const;

  friend bool operator==(const PlanningPoint& a, const PlanningPoint& b) {
    return a.cycles == b.cycles && a.mixture == b.mixture;
  }
  friend bool operator!=(const PlanningPoint& a, const PlanningPoint& b) {
    return !(a == b);
  }
};

/// Per-sub-instance quantities of one forward replay — exposed for tests,
/// examples and the experiment reports.
struct ForwardDetail {
  std::vector<double> start;       // s_u
  std::vector<double> avg_cycles;  // avg_u
  std::vector<double> voltage;     // V_u (clamped)
  std::vector<double> finish;      // f_u
  std::vector<double> energy;      // per-sub energy
  double total_energy = 0.0;
};

/// Reusable buffers for EnergyObjective::Evaluate.  One objective evaluation
/// walks every sub-instance forward and (for gradients) backward; these are
/// the per-sub working arrays of that walk.  An objective owns a private
/// scratch by default; passing a shared one (from core::EvalWorkspace) makes
/// the evaluation hot path allocation-free across solves.  Not synchronised:
/// a scratch — and therefore an objective evaluating through it — must be
/// used by one thread at a time.
struct ObjectiveScratch {
  enum class Clamp : unsigned char { kBelowMin, kInside, kAboveMax };

  // Forward-pass state, structure-of-arrays: one slot per sub-instance in
  // each array.  The SoA layout keeps every field contiguous; the walk
  // reads the same values in the same order as the historical per-node
  // struct.
  std::vector<double> w;       // worst-case budget
  std::vector<double> avg;     // scenario workload executed here
  std::vector<double> s;       // start (scenario chain)
  std::vector<double> d;       // window e - s
  std::vector<double> v;       // dispatch voltage (clamped)
  std::vector<double> ct;      // cycle time at v
  std::vector<double> f;       // finish under the scenario
  std::vector<double> energy;  // per-sub energy (0 when not executing)
  std::vector<AvgCase> avg_case;
  std::vector<Clamp> clamp;
  std::vector<unsigned char> s_from_finish;  // max() branch: depends on f_{u-1}
  std::vector<unsigned char> executes;       // w > eps

  std::vector<double> cum;     // per parent: worst-case budget before sub
  std::vector<double> g_f;     // per sub: adjoint of the finish time
  std::vector<double> carry;   // per parent: partial-case avg adjoints
  std::vector<double> mix_grad;  // mixture planning: per-replay gradient

  /// Grows the per-sub SoA arrays to `n` slots.
  void ResizeSubs(std::size_t n) {
    w.resize(n);
    avg.resize(n);
    s.resize(n);
    d.resize(n);
    v.resize(n);
    ct.resize(n);
    f.resize(n);
    energy.resize(n);
    avg_case.resize(n);
    clamp.resize(n);
    s_from_finish.resize(n);
    executes.resize(n);
  }
};

class EnergyObjective final : public opt::Objective {
 public:
  /// `fps` and `dvs` must outlive the objective.  `scratch` (optional)
  /// shares evaluation buffers across objectives — pass one per thread from
  /// core::EvalWorkspace to make repeated solves allocation-free; results
  /// are bit-identical either way.  `planning` (optional, average scenario
  /// only) replaces the ACEC planning point: entries are clamped into each
  /// task's [BCEC, WCEC] window and copied at construction, so the pointee
  /// need not outlive the objective.  Null or an IsAcec() point keeps the
  /// paper's objective bit-for-bit.
  EnergyObjective(const fps::FullyPreemptiveSchedule& fps,
                  const model::DvsModel& dvs, Scenario scenario,
                  ObjectiveScratch* scratch = nullptr,
                  const PlanningPoint* planning = nullptr);

  // scratch_ may point at the objective's own owned scratch, so copies and
  // moves would leave the new object writing through the source's buffers
  // (dangling once the source dies).  Objectives are cheap to construct
  // where needed instead.
  EnergyObjective(const EnergyObjective&) = delete;
  EnergyObjective& operator=(const EnergyObjective&) = delete;

  // --- opt::Objective -------------------------------------------------------
  std::size_t dim() const override { return dim_; }
  double Value(const opt::Vector& x) const override;
  void Gradient(const opt::Vector& x, opt::Vector& grad) const override;
  double ValueAndGradient(const opt::Vector& x,
                          opt::Vector& grad) const override;
  /// Reverse pass from the forward state the last Value(x) left in the
  /// scratch (mixture planning recomputes).  Nothing else may evaluate
  /// through the same scratch in between.
  void GradientAfterValue(const opt::Vector& x,
                          opt::Vector& grad) const override;

  // --- Variable layout ------------------------------------------------------
  std::size_t sub_count() const { return n_; }
  std::size_t end_time_index(std::size_t order) const { return order; }
  /// True when the sub-instance's budget is a decision variable (parent has
  /// two or more sub-instances).
  bool HasBudgetVariable(std::size_t order) const;
  std::size_t budget_index(std::size_t order) const;
  /// Budget value under `x` (variable or the fixed WCEC).
  double BudgetOf(const opt::Vector& x, std::size_t order) const;

  // --- Problem assembly -----------------------------------------------------
  /// Segment boxes on end-times + per-instance budget simplexes.
  std::shared_ptr<opt::BoxSimplexSet> BuildFeasibleSet() const;

  /// Worst-case chain constraints (linear; see DESIGN.md §3.1):
  ///   e_u - e_{u-1} >= w_u * t_cyc(Vmax)      (total-order chaining)
  ///   e_u - r_u     >= w_u * t_cyc(Vmax)      (release offset)
  std::vector<opt::LinearConstraint> BuildChainConstraints() const;

  // --- Schedule conversion --------------------------------------------------
  opt::Vector PackSchedule(const sim::StaticSchedule& schedule) const;
  sim::StaticSchedule ExtractSchedule(const opt::Vector& x) const;

  /// Full forward replay with per-sub detail (slower; for reports/tests).
  ForwardDetail Replay(const opt::Vector& x) const;

  const fps::FullyPreemptiveSchedule& fps() const { return *fps_; }
  const model::LinearDvsModel& dvs() const { return *dvs_; }
  Scenario scenario() const { return scenario_; }

 private:
  struct SubRecord {
    std::size_t parent = 0;
    int k = 0;
    double release = 0.0;
    double wcec = 0.0;   // parent task WCEC (fixed budget when single-sub)
    bool has_budget_var = false;
    std::size_t budget_var = 0;  // index into x when has_budget_var
  };

  /// Forward + optional reverse pass; grad may be nullptr.  Runs one
  /// replay, or — under mixture planning — averages value/gradient/detail
  /// over the K replays.
  double Evaluate(const opt::Vector& x, opt::Vector* grad,
                  ForwardDetail* detail) const;

  /// One replay at the per-sub planning workloads `plan` (never null;
  /// points at plan_by_sub_ or one mixture row), after scenario dispatch.
  double EvaluateOnce(const double* plan, const opt::Vector& x,
                      opt::Vector* grad, ForwardDetail* detail) const;

  /// The pass itself, templated on the scenario (so the WCS solve skips
  /// the average-case bookkeeping entirely); see formulation.cc.
  template <bool kAverageScenario>
  double EvaluateImpl(const double* plan, const opt::Vector& x,
                      opt::Vector* grad, ForwardDetail* detail) const;

  /// The reverse pass of EvaluateImpl, reading the forward state it left
  /// in the scratch and writing every gradient component.
  template <bool kAverageScenario>
  void ReverseImpl(opt::Vector& grad) const;

  const fps::FullyPreemptiveSchedule* fps_;
  const model::LinearDvsModel* dvs_;
  Scenario scenario_;
  std::size_t n_ = 0;    // sub-instance count
  std::size_t dim_ = 0;  // n_ + number of budget variables
  std::vector<SubRecord> records_;
  /// Per-sub planning workload: the parent task's ACEC by default, or the
  /// (clamped) PlanningPoint entry.  Same value bits as the historical
  /// SubRecord::acec read in the default case, so the replay stays
  /// bit-identical.
  std::vector<double> plan_by_sub_;
  /// Mixture planning rows, flattened row-major (mixture_rows_ x n_);
  /// empty outside the acs-mixture arm.
  std::vector<double> mixture_by_sub_;
  std::size_t mixture_rows_ = 0;
  double ct_vmax_ = 0.0;
  double max_speed_ = 0.0;
  double k_ = 0.0;      // speed = k * V
  double inv_k_ = 0.0;  // dV/dspeed
  ObjectiveScratch* scratch_;             // never null after construction
  mutable ObjectiveScratch own_scratch_;  // used when none was provided
};

}  // namespace dvs::core

#endif  // ACS_CORE_FORMULATION_H
