// Structured Newton solver for the lifted single-replay ACS program
// (DESIGN.md §2.4): the average-case-aware static schedule of one planning
// point, with the greedy runtime's start chain relaxed to inequalities.
//
// Per node u (a sub-instance, in execution order) the variables are the
// start s_u of the scenario replay, the end-time e_u and the worst-case
// budget w_u; a node's window is d_u = e_u - s_u and its greedy speed
// q_u = w_u / d_u.  The scenario runs avg_u cycles of the node, fixed by the
// Fig. 5 case pattern: avg_u = w_u (full), the group's plan left over
// (partial, at most one node per group) or 0 (empty).
//
//   minimise   c * sum_u avg_u * max(min_speed, q_u)^2
//   subject to s_u >= release_u,   s_u >= f_{u-1},
//              e_u - e_{u-1} >= w_u / max_speed,
//              e_u - release_u >= w_u / max_speed,
//              begin_u <= e_u <= cap_u,   w_u <= max_speed * d_u,
//              sum_{u in g} w_u = total_g,  w_u >= 0
//
// with the scenario finish f_u = s_u + avg_u / max(min_speed, q_u), the
// greedy runtime's own finish.  A relaxed start is never better than the
// greedy one (energy and finish grow with s_u), so the relaxation is tight.
//
// Method.  The case pattern and the Vmin-floor state of every node are fixed
// per pattern; each fixed pattern is a smooth program whose pieces are
// exact: a full free node costs the jointly convex perspective w^3/d^2, a
// floored node is linear, and only the partial node of a group (avg = plan
// - earlier budgets, finish s + avg d / w) is non-convex.  Budgets are each
// group's running sums, so no Newton system carries an equality row.  The
// primal-dual driver (opt/primal_dual.h) solves the pattern, so a start
// need not be feasible (pattern rows excepted, which are strict: shifted
// just enough to hold), and each Newton system is eliminated along the
// order in one frontal sweep (opt/frontal.h, planned once per pattern)
// whose modified pivots keep each step a descent step where a partial node
// leaves the system indefinite.  A pattern-boundary row still active at a
// converged point moves its node to the neighbouring piece and the solve
// restarts from the converged point, until the pattern is stable, a
// boundary is crossed back (a kink optimum) or a change stops paying.
// Every pattern stops on its relative KKT residual, never on an iteration
// count: a solve whose step guard fires in any pattern reports
// kNoConvergence and returns no point.
#ifndef ACS_OPT_REPLAY_NEWTON_H
#define ACS_OPT_REPLAY_NEWTON_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "opt/frontal.h"
#include "opt/primal_dual.h"

namespace dvs::opt {

struct ReplayProblem {
  std::vector<double> release;      // per node, in execution order
  std::vector<double> begin;        // per node: earliest end-time
  std::vector<double> cap;          // per node: latest end-time
  std::vector<std::size_t> group;   // per node: budget group in [0, G)
  std::vector<double> group_total;  // per group: worst-case cycles (> 0)
  std::vector<double> group_plan;   // per group: scenario cycles in [0, total]
  double energy_coeff = 1.0;        // c: a cycles at speed q cost c a q^2
  double min_speed = 0.0;           // >= 0
  double max_speed = 1.0;           // > min_speed
};

struct ReplaySolution {
  std::vector<double> start;   // s_u of the scenario replay
  std::vector<double> end;     // e_u
  std::vector<double> budget;  // w_u (the group total for one-node groups)
};

using ReplayStatus = PrimalDualStatus;

struct ReplayNewtonReport {
  ReplayStatus status = ReplayStatus::kSolved;
  double objective = 0.0;        // program energy of the solution
  double kkt_residual = 0.0;     // relative, of the returned point
  std::size_t newton_steps = 0;  // Newton systems factored, all patterns
  std::size_t patterns = 0;      // case / floor patterns solved
};

/// A node's primitive (s, e, w or a) as a combination of frontier slots.
struct ReplayLin {
  int count = 0;
  std::size_t slot[2] = {};
  double coeff[2] = {};
};

/// Where a node's Newton-system terms enter the frontier: its primitives
/// s, e, w and a, its lifting variable z (lifted nodes); the rows and
/// eliminations up to and including the node, and its start row when that
/// row is curved (else none).
struct ReplayNodePlan {
  ReplayLin prim[4];
  std::size_t lift = 0;
  std::size_t rows_end = 0;
  std::size_t steps_end = 0;
  std::size_t curved_row = static_cast<std::size_t>(-1);
};

/// One entry of a row term's expansion: the row's merged slot it adds to,
/// with the expansion's coefficient.
struct ReplayPart {
  unsigned char term = 0;
  unsigned char merged = 0;
  double coeff = 0.0;
};

/// The plan of one case / floor pattern's Newton systems, built at each
/// pattern change: the frontal elimination, and where each node's objective
/// and rows add.  Per row (emission order) the slots of its gradient over
/// the variables, merged over its terms' expansions, with the merged
/// coefficients (final unless the row is curved) and the parts that sum
/// into them.
struct ReplayPlan {
  FrontalPlan frontal;
  std::vector<ReplayNodePlan> node;
  std::vector<std::size_t> slot_begin, slot;
  std::vector<double> coeff;
  std::vector<std::size_t> part_begin;
  std::vector<ReplayPart> part;
};

/// Reusable buffers of SolveReplay (one per thread; see opt/workspace.h).
struct ReplayNewtonWorkspace {
  ReplayPlan plan;
  PrimalDualWorkspace driver;
};

/// Solves `problem` from the warm start (`warm_end`, `warm_budget`; empty
/// for a cold start), which need not be feasible, building at most
/// `max_newton_steps` Newton systems.  Deterministic: plain scalar
/// arithmetic in a fixed order, with or without a workspace.
ReplayNewtonReport SolveReplay(
    const ReplayProblem& problem, const std::vector<double>& warm_end,
    const std::vector<double>& warm_budget, ReplaySolution& solution,
    ReplayNewtonWorkspace* workspace = nullptr,
    std::size_t max_newton_steps = kMaxNewtonSteps);

}  // namespace dvs::opt

#endif  // ACS_OPT_REPLAY_NEWTON_H
