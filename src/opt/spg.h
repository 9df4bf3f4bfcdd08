// Spectral projected gradient (SPG; Birgin, Martínez & Raydan 2000).
//
// The inner solver of the augmented-Lagrangian stack.  Chosen because the
// feasible set of the ACS formulation (boxes on end-times x simplexes on
// workload splits) has a cheap exact projection, and because SPG's
// nonmonotone Armijo search tolerates the piecewise-smooth kinks (max/clamp)
// in the average-energy objective far better than curvature-based methods.
#ifndef ACS_OPT_SPG_H
#define ACS_OPT_SPG_H

#include <cstddef>
#include <string>

#include "opt/problem.h"
#include "opt/vec.h"

namespace dvs::opt {

struct SpgWorkspace;  // opt/workspace.h

enum class SolveStatus {
  kConverged,        // projected-gradient criterion met
  kMaxIterations,    // hit the iteration budget (result still usable)
  kLineSearchFailed  // no descent step found (kink or numerical floor)
};

const char* SolveStatusName(SolveStatus status);

/// One accepted SPG iteration, as the solver saw it (convergence-trace
/// observation; see SolveObserver).
struct SpgIterationEvent {
  std::size_t iteration = 0;    // 1-based accepted-iteration index
  double value = 0.0;           // objective after the accepted step
  double criterion = 0.0;       // projected-gradient sup-norm at entry
  double step = 0.0;            // spectral (BB) step for the next iterate
  double step_length = 0.0;     // accepted Armijo step length lambda
  std::size_t backtracks = 0;   // line-search contractions this iteration
  std::size_t evaluations = 0;  // cumulative objective evaluations
};

/// One ALM outer iteration (multiplier/penalty update cycle).  Lives here
/// beside SpgIterationEvent so a single observer interface covers the
/// whole solver stack; augmented_lagrangian.h completes the picture.
struct AlmOuterEvent {
  std::size_t outer = 0;             // 1-based outer-iteration index
  double violation = 0.0;            // constraint sup-norm after the inner solve
  double penalty = 0.0;              // rho used by this outer iteration
  double inner_tolerance = 0.0;      // continuation tolerance this cycle
  std::size_t inner_iterations = 0;  // the inner SPG's iteration count
  SolveStatus inner_status = SolveStatus::kMaxIterations;
  std::size_t evaluations = 0;       // cumulative objective evaluations
};

/// Per-iteration solver observation hooks.  Observation-only by contract:
/// implementations must not mutate solver state, and the solvers' floating
/// point trajectory is identical with or without an observer attached (the
/// hook sits after each accepted step, off the arithmetic path).  Called
/// from whichever thread runs the solve; the obs-layer recorder serialises
/// its sink internally.
class SolveObserver {
 public:
  virtual ~SolveObserver() = default;
  virtual void OnSpgIteration(const SpgIterationEvent& event) = 0;
  virtual void OnAlmOuter(const AlmOuterEvent& event) = 0;
};

struct SpgOptions {
  std::size_t max_iterations = 500;
  double tolerance = 1e-8;        // sup-norm of the projected gradient step
  std::size_t history = 10;       // nonmonotone window (GLL)
  double armijo_c = 1e-4;         // sufficient-decrease constant
  double step_min = 1e-12;        // spectral step clamp
  double step_max = 1e12;
  double backtrack = 0.5;         // line-search contraction factor
  std::size_t max_backtracks = 60;
  /// Optional per-iteration observer (convergence tracing).  Non-owning;
  /// null (the default) skips the hook entirely.
  SolveObserver* observer = nullptr;
};

struct SpgReport {
  SolveStatus status = SolveStatus::kMaxIterations;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  double final_value = 0.0;
  double criterion = 0.0;  // final sup-norm of projected step
};

/// Minimises `objective` over `set` starting from `x` (modified in place,
/// projected first).  `workspace` (optional) supplies reusable scratch
/// buffers — results are bit-identical with or without it; a warm workspace
/// just makes the solve allocation-free (see opt/workspace.h).
SpgReport MinimizeSpg(const Objective& objective, const FeasibleSet& set,
                      Vector& x, const SpgOptions& options = {},
                      SpgWorkspace* workspace = nullptr);

}  // namespace dvs::opt

#endif  // ACS_OPT_SPG_H
