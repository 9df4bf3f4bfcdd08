// The primal-dual interior-point driver shared by the structured solvers
// (opt/replay_newton, opt/chain_ipm).  A program supplies rows g_i(x) >= 0,
// an objective f and the Newton systems' assembly along its frontal plan
// (opt/frontal.h); the driver gives every row a slack and a multiplier, so
// the point need not be feasible.  Each iteration factors one Newton system
//
//   Hess f + sum_i lambda_i Hess(-g_i) + sum_i (lambda_i / sigma_i) a_i a_i^T,
//
// steps to the boundary fraction with a multiplier safeguard and accepts a
// trial point that lowers the row violation or the barrier objective
// f - mu sum log sigma.  Once a barrier subproblem is solved, mu falls
// superlinearly and the factored system is solved again (Frontier::Resolve).
// A solve stops on its relative KKT residual or where the program certifies
// its point; a guard on the Newton systems reports kNoConvergence.
#ifndef ACS_OPT_PRIMAL_DUAL_H
#define ACS_OPT_PRIMAL_DUAL_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "opt/frontal.h"

namespace dvs::opt {

/// Relative KKT residual at or below which a solve is accepted.
inline constexpr double kKktTol = 1e-9;

/// Newton systems a solve may build: a guard against a solve that cannot
/// terminate, never a stop rule.
inline constexpr std::size_t kMaxNewtonSteps = 1500;

enum class PrimalDualStatus {
  kSolved,         // converged: the solution is set
  kBreakdown,      // a Newton system had a non-finite pivot or objective
  kNoConvergence,  // the guard fired before the tolerance
};

/// The driver's buffers (one per thread, inside the solvers' workspaces).
/// A program records its rows' terms (row_begin, row_id, row_coeff: the
/// gradient of each row over the program's primitive ids) and fills grad in
/// its Newton system; the driver owns the rest.
struct PrimalDualWorkspace {
  FrontalBuffers frontal;
  std::vector<double> rhs, values;       // right-hand side, step by variable
  std::vector<double> grad, prim, step;  // objective gradient, scratch and
                                         // step by primitive id
  // The rows' terms and their shifted values at x and at the last trial.
  std::vector<double> row_value, row_coeff, trial_value;
  std::vector<std::size_t> row_begin;
  std::vector<std::int64_t> row_id;
  // Per row: slack, multiplier, shift and the slack and multiplier steps.
  std::vector<double> slack, dual, row_shift, d_slack, d_dual;
};

/// A program on the driver: its point x, a trial point, its rows and its
/// Newton systems.  Primitives are what the rows and the objective are
/// written in; variables are what the Newton system solves for.
class PrimalDualProgram {
 public:
  virtual ~PrimalDualProgram() = default;

  /// The elimination the Newton systems are factored along.
  virtual const FrontalPlan& plan() const = 0;

  /// The objective at x, +inf outside its domain.
  virtual double Objective() const = 0;

  /// Assembles the Newton matrix at x into `fr` with row weights
  /// dual / slack and eliminates it; fills ws.grad (the objective's
  /// gradient over the primitives) and the coefficients of rows that are
  /// not linear.  False on a failed pivot.
  virtual bool NewtonSystem(Frontier& fr, PrimalDualWorkspace& ws) = 0;

  /// Maps a vector over the primitives onto the variables (the transpose
  /// of the primitives' expansion), sizing `var`; by default they are one.
  virtual void ToVariables(const std::vector<double>& prim,
                           std::vector<double>& var) const {
    var = prim;
  }

  /// The step over the primitives from the variables' step, sizing `step`.
  virtual void StepOfValues(const std::vector<double>& values,
                            std::vector<double>& step) const {
    step = values;
  }

  /// Tightens `limit` to keep `fraction` of the program's own domain.
  virtual double PrimalLimit(const std::vector<double>& step, double fraction,
                             double limit) const = 0;

  /// Moves the trial point to x + alpha * (the variables' step) and
  /// returns its objective, with every row's unshifted value in `rows`
  /// (sized to the row count); +inf, rows unset, outside the domain.
  virtual double Trial(double alpha, const std::vector<double>& values,
                       std::vector<double>& rows) = 0;

  /// Makes the trial point x.
  virtual void AcceptTrial() = 0;

  /// Called after every Newton direction, with the multipliers and their
  /// step in ws.dual and ws.d_dual and the barrier parameter mu; true ends
  /// the solve as converged, the program having certified x by its own
  /// means.
  virtual bool Certified(const PrimalDualWorkspace& /*ws*/, double /*mu*/) {
    return false;
  }
};

/// The driver over one program; the rows' state lives in the workspace.
class PrimalDual {
 public:
  explicit PrimalDual(PrimalDualWorkspace& ws) : ws_(ws) {}

  /// Clears the rows, which AddStartRow then gives in order.
  void ClearRows();

  /// A row at `value`: a strict row (which the program's formulas need to
  /// hold) is shifted just enough to hold and takes its shifted value as
  /// its slack; any other row takes slack max(value, kStartSlack).
  void AddStartRow(double value, bool strict);

  /// Sets mu to `objective` / rows (1 / rows when the objective is not
  /// positive) and every multiplier to mu / slack.
  void StartMultipliers(double objective);

  /// Iterates on `program` from its x until the relative KKT residual is
  /// at most kKktTol, counting Newton systems in `newton_steps` up to
  /// `max_newton`.
  PrimalDualStatus Converge(PrimalDualProgram& program,
                            std::size_t& newton_steps, std::size_t max_newton);

  /// The relative KKT residual of the last Newton system.
  double kkt() const { return kkt_; }

 private:
  double Direction(PrimalDualProgram& program, const Frontier& fr);
  double MeritHere(double obj, double slope, double& violation) const;
  double Merit(PrimalDualProgram& program, double alpha, double& violation,
               double& logs);

  PrimalDualWorkspace& ws_;
  double mu_ = 0.0;
  double kkt_ = 0.0;
  // The merit's sums at x when x is an accepted trial point: its slacks
  // moved there by the same alpha * d_slack, so the sums repeat exactly.
  bool merit_kept_ = false;
  double kept_logs_ = 0.0;
  double kept_violation_ = 0.0;
};

/// The execution order both programs are written over, in solver units:
/// time over the largest cap and cycles over what max_speed runs in that
/// time, so max_speed = energy_coeff = 1.  A node's budget is a variable
/// in a group of two or more; it enters as the group's running sums C_u
/// (w_u = C_u - C_prev, the last C the group total).
struct ScaledOrder {
  std::size_t n = 0;
  std::size_t groups = 0;
  std::vector<double> r, cap, total;  // per node release and cap; per group
  std::vector<std::size_t> group;
  std::vector<std::vector<std::size_t>> members;  // per group, in order
  std::vector<unsigned char> w_var;  // the node's budget is a variable
  std::vector<unsigned char> c_var;  // its group's running budget C_u is one
  std::vector<std::size_t> prev;     // previous node of its group, or SIZE_MAX
  double smin = 0.0;                 // min_speed / max_speed
  std::size_t open = 0;  // most groups open across a node boundary
  double time_unit = 1.0;
  double cycle_unit = 1.0;
  double energy_unit = 1.0;  // problem energy per solver unit
};

/// Validates and scales an order: per-node arrays of one length, group
/// indices in range, positive totals, 0 <= min_speed < max_speed and a
/// positive energy coefficient (InvalidArgumentError otherwise).
ScaledOrder ScaleOrder(const std::vector<double>& release,
                       const std::vector<double>& cap,
                       const std::vector<std::size_t>& group,
                       const std::vector<double>& group_total,
                       double min_speed, double max_speed,
                       double energy_coeff);

/// Tightens `limit` so that a step (dw, dd) from a node's budget w and
/// window d keeps `fraction` of its distance to the speed band [floor / 2,
/// 2] (speeds in units of the maximum), or of its budget and window while
/// it is outside the band: its energy degenerates as the budget and the
/// window vanish together.
double SpeedBandLimit(double w, double dw, double d, double dd, double floor,
                      double fraction, double limit);

}  // namespace dvs::opt

#endif  // ACS_OPT_PRIMAL_DUAL_H
