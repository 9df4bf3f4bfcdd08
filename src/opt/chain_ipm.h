// Structured interior-point solver for minimum-energy speed assignment along
// a fixed execution order (the "chain program"):
//
//   minimise   sum_u  c * w_u^3 / (f_u - s_u)^2
//   subject to s_u >= release_u,   s_u >= f_{u-1},   f_u <= cap_u,
//              min_speed * (f_u - s_u) <= w_u <= max_speed * (f_u - s_u),
//              sum_{u in g} w_u = total_g          for every budget group g.
//
// Node u runs w_u cycles in [s_u, f_u] at the constant speed w_u / (f_u -
// s_u); c * w^3 / d^2 is the energy of that run under a linear speed law.
// It is the perspective of the convex c * w^3, so the program is convex; a
// group of one node has a fixed budget and carries no w variable.  core
// solves the worst-case schedule (WCS) with it; DESIGN.md §2.2 proves the
// program's optimum equals the reduced WCS problem's.
//
// Method: the primal-dual driver (opt/primal_dual.h) from the Vmax
// as-soon-as-possible sweep, feasible or not.  Budgets enter as each
// group's running sums C_u (w_u = C_u - C_prev, the last C the group total),
// so the budget equalities hold by construction and the Newton systems
// carry no equality row.  Each Newton system is eliminated along the order
// in one frontal sweep: the objective's rank-one Hessian enters through a
// lifting variable, and each open group's running budget stays in the
// frontier, so a step costs O(n * (6 + k)^2) for at most k groups open at
// once (one per task).
//
// Certificate: at every nearly feasible iterate the driver's multipliers
// are repaired into an exactly dual-feasible point of the Lagrangian dual,
// whose value is a rigorous lower bound on the optimum; the iterate with
// the best relative duality gap (primal - dual) / primal is returned.  The
// solve stops at the driver's KKT tolerance, at a certified gap of that
// size, or once the barrier parameter stays put for as many Newton systems
// as the solve took to its last fall.
#ifndef ACS_OPT_CHAIN_IPM_H
#define ACS_OPT_CHAIN_IPM_H

#include <cstddef>
#include <vector>

#include "opt/frontal.h"
#include "opt/primal_dual.h"

namespace dvs::opt {

struct ChainProblem {
  std::vector<double> release;      // per node, in execution order
  std::vector<double> cap;          // per node: latest finish
  std::vector<std::size_t> group;   // per node: budget group in [0, G)
  std::vector<double> group_total;  // per group: cycles to split (> 0)
  double energy_coeff = 1.0;        // c
  double min_speed = 0.0;           // cycles per time unit, >= 0
  double max_speed = 1.0;           // > min_speed
};

struct ChainSolution {
  std::vector<double> start;   // s_u
  std::vector<double> finish;  // f_u
  std::vector<double> budget;  // w_u (the group total for one-node groups)
};

/// kSolved when an iterate was certified (the solution and dual bound are
/// set), else kBreakdown.
using ChainStatus = PrimalDualStatus;

struct ChainIpmReport {
  ChainStatus status = ChainStatus::kSolved;
  double dual = 0.0;             // certified lower bound on the optimum
  std::size_t newton_steps = 0;  // Newton systems solved
};

/// Where a node's objective terms enter the frontier: the slots of s_u,
/// f_u, C_u, its group's previous C and z_u; the rows and eliminations up
/// to and including the node.
struct ChainNodePlan {
  std::size_t s = 0, f = 0, c = 0, prev = 0, z = 0;
  std::size_t rows_end = 0;
  std::size_t steps_end = 0;
};

/// Reusable buffers of SolveChain (one per thread; see opt/workspace.h).
struct ChainIpmWorkspace {
  FrontalPlan plan;                  // the Newton systems' elimination,
  std::vector<ChainNodePlan> nodes;  // planned once per solve
  std::vector<std::size_t> row_slot;
  std::vector<std::size_t> lambda_row;  // per node and row kind: its row
  std::vector<double> best_s, best_f, best_w;
  std::vector<double> lambda;  // certificate duals, 5 per node
  std::vector<double> nu;      // certificate: per group
  PrimalDualWorkspace driver;
};

/// Solves `problem`; `solution` receives the iterate with the best
/// certified gap (left empty unless the status is kSolved).  Deterministic:
/// plain scalar arithmetic in a fixed order, identical on every host and
/// with or without a workspace.
ChainIpmReport SolveChain(const ChainProblem& problem, ChainSolution& solution,
                          ChainIpmWorkspace* workspace = nullptr);

/// The objective sum_u c * w_u^3 / (f_u - s_u)^2 (+inf when a node with
/// w_u > 0 has a non-positive window).
double ChainObjective(const ChainProblem& problem,
                      const ChainSolution& solution);

}  // namespace dvs::opt

#endif  // ACS_OPT_CHAIN_IPM_H
