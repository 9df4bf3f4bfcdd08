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
// Method: log-barrier path following.  Each centring step solves the
// equality-constrained Newton (KKT) system in one forward elimination along
// the order.  The barrier Hessian is banded (only s_u and f_{u-1} couple
// neighbouring nodes); each group's multiplier joins a dense frontier at its
// first node and is eliminated after its last, so a step costs
// O(n * (5 + k)^2) for at most k groups open at once (one per task).
//
// Certificate: after each centring round the barrier duals are repaired into
// an exactly dual-feasible point of the Lagrangian dual, whose value is a
// rigorous lower bound on the optimum; the solve stops once the relative
// duality gap (primal - dual) / primal is below the target.
#ifndef ACS_OPT_CHAIN_IPM_H
#define ACS_OPT_CHAIN_IPM_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "opt/frontal.h"

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

/// Certified relative gap at or below which an exact solve is accepted.
inline constexpr double kChainAcceptGap = 1e-6;

enum class ChainStatus {
  kSolved,      // the solution and dual bound are set
  kNoInterior,  // no strictly feasible start was found; solution empty
  kBreakdown,   // a KKT pivot failed before any round finished
};

struct ChainIpmReport {
  ChainStatus status = ChainStatus::kSolved;
  double dual = 0.0;          // certified lower bound on the optimum
  std::size_t rounds = 0;        // centring rounds (barrier updates)
  std::size_t newton_steps = 0;  // Newton systems solved
  std::size_t evaluations = 0;   // barrier evaluations, line search included
};

/// Where a node's Newton-system terms enter the frontier: the slots of
/// s_u, f_u, w_u, the lifting variable z_u, s_{u+1} and its group's
/// multiplier, and the eliminations planned up to and including the node.
struct ChainNodePlan {
  std::size_t s = 0, f = 0, w = 0, z = 0, next = 0, nu = 0;
  bool opens = false;  // the group's first free node: its residual enters
  std::size_t steps_end = 0;
};

/// Reusable buffers of SolveChain (one per thread; see opt/workspace.h).
struct ChainIpmWorkspace {
  FrontalPlan plan;                    // the Newton systems' elimination,
  std::vector<ChainNodePlan> nodes;    // planned once per solve
  std::vector<double> s, f, w, ds, df, dw, gs, gf, gw;
  std::vector<double> trial_s, trial_f, trial_w;
  std::vector<double> best_s, best_f, best_w;
  std::vector<double> values;          // back-substitution result by id
  FrontalBuffers frontal;              // the Newton system's elimination
  std::vector<double> lambda;          // certificate duals, 5 per node
  std::vector<double> alpha;           // certificate: d coefficients
  std::vector<double> group_sum, group_excess, group_room;  // per group
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
