// Augmented-Lagrangian method for linearly constrained minimisation over a
// projectable set:
//
//     minimise  f(x)    s.t.  x in X,   c_i(x) >= 0  /  c_j(x) == 0
//
// with c linear.  X (boxes x simplexes) is handled exactly by the SPG inner
// solver's projection; the linear couplings (the worst-case chain
// constraints of the ACS formulation) get multipliers + quadratic penalty.
// Classic safeguarded scheme: multipliers update on sufficient feasibility
// progress, otherwise the penalty grows.
#ifndef ACS_OPT_AUGMENTED_LAGRANGIAN_H
#define ACS_OPT_AUGMENTED_LAGRANGIAN_H

#include <vector>

#include "opt/problem.h"
#include "opt/spg.h"
#include "opt/vec.h"

namespace dvs::opt {

struct AlmWorkspace;  // opt/workspace.h

struct AlmOptions {
  std::size_t max_outer = 25;
  double feasibility_tol = 1e-7;   // sup-norm of constraint violations
  double initial_penalty = 10.0;
  double penalty_growth = 10.0;
  double max_penalty = 1e12;
  double violation_shrink = 0.25;  // required per-outer improvement factor
  SpgOptions inner;                // inner SPG settings (final tolerance)
  double inner_tol_start = 1e-4;   // loose early, tightens geometrically

  /// Dual warm start (continuation along a solve chain).  Non-null seeds
  /// the multiplier vector from a previous converged solve of a nearby
  /// problem with the SAME constraint system shape (the vector's size must
  /// equal the system's row count — any mismatch falls back to the cold
  /// path), starts the penalty at max(initial_penalty, dual_penalty_seed)
  /// and collapses the loose-to-tight inner-tolerance continuation to the
  /// final tolerance: a near-converged primal/dual pair needs polishing,
  /// not the cold schedule.  Null (the default) keeps the historical cold
  /// solve bit-for-bit.
  const std::vector<double>* dual_seed = nullptr;
  double dual_penalty_seed = 0.0;

  /// Optional solver observer (convergence tracing; see opt/spg.h).  The
  /// driver copies it into every inner solve's SpgOptions, so one observer
  /// sees the full outer/inner event stream.  Observation-only: the solve
  /// trajectory is bit-identical with or without it.
  SolveObserver* observer = nullptr;
};

struct AlmReport {
  bool feasible = false;
  SolveStatus inner_status = SolveStatus::kMaxIterations;
  std::size_t outer_iterations = 0;
  std::size_t total_inner_iterations = 0;
  std::size_t evaluations = 0;
  double final_value = 0.0;      // objective f (without penalty terms)
  double max_violation = 0.0;
  double final_penalty = 0.0;

  /// Final multipliers in the constraint system's row order — the dual
  /// state a follow-up solve can pass back in as AlmOptions::dual_seed.
  /// Empty when the system has no rows.
  std::vector<double> multipliers;
};

/// Minimises over `x` in place (projected onto `set` first).  The rows are
/// flattened into one contiguous system (opt::FlatLinearSystem) before the
/// solve, so the inner loop walks a single array.  `workspace` (optional)
/// supplies reusable scratch buffers — results are bit-identical with or
/// without it (see opt/workspace.h).
AlmReport MinimizeAlm(const Objective& objective, const FeasibleSet& set,
                      const std::vector<LinearConstraint>& constraints,
                      Vector& x, const AlmOptions& options = {},
                      AlmWorkspace* workspace = nullptr);

}  // namespace dvs::opt

#endif  // ACS_OPT_AUGMENTED_LAGRANGIAN_H
