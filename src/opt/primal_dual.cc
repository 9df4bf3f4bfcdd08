#include "opt/primal_dual.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace dvs::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// A step covers at most this fraction of the distance to the boundary of
// any slack or multiplier, and of a node's speed band.
constexpr double kToBoundary = 0.995;
// The smallest slack a relaxed row starts with (solver units): a row below
// it starts violated by the difference, which its slack carries until the
// iteration closes it.
constexpr double kStartSlack = 1e-3;
// A strict row is shifted just enough to hold with this slack where the
// start leaves it at or below zero.
constexpr double kBoundaryShift = 1e-12;
// The barrier subproblem at mu is solved when the Newton decrement is at
// most mu and the complementarity and row violation are at most the gap;
// the relative gap then falls to min(kMuFactor * gap, gap^kMuPower).
constexpr double kMuFactor = 0.05;
constexpr double kMuPower = 1.5;
// Below this summed row violation (solver units) a step must lower the
// barrier objective by the Armijo rule.
constexpr double kNearlyFeasible = 1e-6;
// Multipliers stay within this factor of mu / slack.
constexpr double kDualSafeguard = 1e10;
// A node's speed stays within [kSpeedBand * floor, 1 / kSpeedBand].
constexpr double kSpeedBand = 0.5;

/// Largest step in (0, limit] that keeps every entry of v + alpha dv at or
/// above (1 - fraction) of its value.
double StepLimit(const std::vector<double>& v, const std::vector<double>& dv,
                 double fraction, double limit) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (dv[i] < 0.0) {
      limit = std::min(limit, -fraction * v[i] / dv[i]);
    }
  }
  return limit;
}

}  // namespace

ScaledOrder ScaleOrder(const std::vector<double>& release,
                       const std::vector<double>& cap,
                       const std::vector<std::size_t>& group,
                       const std::vector<double>& group_total,
                       double min_speed, double max_speed,
                       double energy_coeff) {
  ScaledOrder p;
  p.n = release.size();
  p.groups = group_total.size();
  ACS_REQUIRE(cap.size() == p.n && group.size() == p.n,
              "structured program: per-node arrays differ in length");
  ACS_REQUIRE(max_speed > min_speed && min_speed >= 0.0,
              "structured program: need 0 <= min_speed < max_speed");
  ACS_REQUIRE(energy_coeff > 0.0,
              "structured program: energy coefficient must be positive");
  double horizon = 0.0;
  for (double c : cap) {
    horizon = std::max(horizon, c);
  }
  p.time_unit = horizon > 0.0 ? horizon : 1.0;
  p.cycle_unit = p.time_unit * max_speed;
  p.smin = min_speed / max_speed;
  p.energy_unit = energy_coeff * p.cycle_unit * p.cycle_unit * p.cycle_unit /
                  (p.time_unit * p.time_unit);
  p.r.resize(p.n);
  p.cap.resize(p.n);
  p.group = group;
  p.total.resize(p.groups);
  p.members.assign(p.groups, {});
  for (std::size_t g = 0; g < p.groups; ++g) {
    ACS_REQUIRE(group_total[g] > 0.0,
                "structured program: group totals must be positive");
    p.total[g] = group_total[g] / p.cycle_unit;
  }
  for (std::size_t u = 0; u < p.n; ++u) {
    ACS_REQUIRE(group[u] < p.groups,
                "structured program: group index out of range");
    p.r[u] = release[u] / p.time_unit;
    p.cap[u] = cap[u] / p.time_unit;
    p.members[p.group[u]].push_back(u);
  }
  p.w_var.resize(p.n);
  p.c_var.resize(p.n);
  p.prev.assign(p.n, std::numeric_limits<std::size_t>::max());
  std::vector<int> delta(p.n + 1, 0);
  for (const std::vector<std::size_t>& nodes : p.members) {
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      p.w_var[nodes[j]] = nodes.size() > 1 ? 1 : 0;
      p.c_var[nodes[j]] = j + 1 < nodes.size() ? 1 : 0;
      if (j > 0) {
        p.prev[nodes[j]] = nodes[j - 1];
      }
    }
    if (nodes.size() > 1) {
      ++delta[nodes.front()];
      --delta[nodes.back() + 1];
    }
  }
  int open = 0;
  for (std::size_t u = 0; u < p.n; ++u) {
    open += delta[u];
    p.open = std::max(p.open, static_cast<std::size_t>(open));
  }
  return p;
}

double SpeedBandLimit(double w, double dw, double d, double dd, double floor,
                      double fraction, double limit) {
  const auto bound = [&limit, fraction](double v, double dv) {
    if (dv < 0.0) {
      limit = std::min(limit, -fraction * v / dv);
    }
  };
  const double lo = kSpeedBand * floor;
  const double hi = 1.0 / kSpeedBand;
  if (w > lo * d) {
    bound(w - lo * d, dw - lo * dd);
  } else {
    bound(w, dw);
  }
  if (hi * d > w) {
    bound(hi * d - w, hi * dd - dw);
  } else {
    bound(d, dd);
  }
  return limit;
}

void PrimalDual::ClearRows() {
  merit_kept_ = false;
  ws_.slack.clear();
  ws_.row_shift.clear();
  ws_.row_value.clear();
}

void PrimalDual::AddStartRow(double value, bool strict) {
  ws_.row_shift.push_back(strict ? std::max(0.0, kBoundaryShift - value)
                                 : 0.0);
  ws_.row_value.push_back(value + ws_.row_shift.back());
  ws_.slack.push_back(strict ? value + ws_.row_shift.back()
                             : std::max(value, kStartSlack));
}

void PrimalDual::StartMultipliers(double objective) {
  mu_ = (objective > 0.0 ? objective : 1.0) /
        static_cast<double>(ws_.slack.size());
  ws_.dual.resize(ws_.slack.size());
  for (std::size_t r = 0; r < ws_.slack.size(); ++r) {
    ws_.dual[r] = mu_ / ws_.slack[r];
  }
}

/// The Newton direction at mu on the factored system: the primal step
/// (ws.values, ws.step) and the slack and multiplier steps (ws.d_slack,
/// ws.d_dual).  Returns the barrier objective's slope along it.
double PrimalDual::Direction(PrimalDualProgram& program, const Frontier& fr) {
  PrimalDualWorkspace& ws = ws_;
  const std::size_t rows = ws.slack.size();
  ws.prim.resize(ws.grad.size());
  for (std::size_t i = 0; i < ws.grad.size(); ++i) {
    ws.prim[i] = -ws.grad[i];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const double rho =
        ws.dual[r] - (ws.dual[r] * ws.row_value[r] - mu_) / ws.slack[r];
    for (std::size_t k = ws.row_begin[r]; k < ws.row_begin[r + 1]; ++k) {
      ws.prim[ws.row_id[k]] += rho * ws.row_coeff[k];
    }
  }
  program.ToVariables(ws.prim, ws.rhs);
  ws.values.assign(ws.rhs.size(), 0.0);
  fr.Resolve(ws.rhs, ws.values);
  program.StepOfValues(ws.values, ws.step);
  double slope = 0.0;
  for (std::size_t i = 0; i < ws.grad.size(); ++i) {
    slope += ws.grad[i] * ws.step[i];
  }
  ws.d_slack.resize(rows);
  ws.d_dual.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    double ds = ws.row_value[r] - ws.slack[r];
    for (std::size_t k = ws.row_begin[r]; k < ws.row_begin[r + 1]; ++k) {
      ds += ws.row_coeff[k] * ws.step[ws.row_id[k]];
    }
    ws.d_slack[r] = ds;
    ws.d_dual[r] = (mu_ - ws.dual[r] * ds) / ws.slack[r] - ws.dual[r];
    slope -= mu_ * ds / ws.slack[r];
  }
  return slope;
}

/// Merit(x, 0, violation, logs) from x's objective `obj`, its rows
/// (ws.row_value) and the slope of the last direction: the accepted
/// trial's sums when a finite slope shows every d_slack finite (so
/// 0 * d_slack moves no slack), or the same sums in the same order.
double PrimalDual::MeritHere(double obj, double slope,
                             double& violation) const {
  if (merit_kept_ && std::isfinite(slope)) {
    violation = kept_violation_;
    return obj - mu_ * kept_logs_;
  }
  double logs = 0.0;
  violation = 0.0;
  bool inside = obj < kInf;
  for (std::size_t r = 0; r < ws_.slack.size() && inside; ++r) {
    const double slack = ws_.slack[r] + 0.0 * ws_.d_slack[r];
    inside = slack > 0.0;
    logs += std::log(slack);
    violation += std::fabs(ws_.row_value[r] - slack);
  }
  return inside ? obj - mu_ * logs : kInf;
}

/// The barrier objective f - mu sum log(slack) at the program's trial point
/// with the slacks moved by alpha along ws.d_slack (+inf outside the
/// domain); `violation` and `logs` receive the summed row violation |row -
/// slack| and the sum of log(slack), and ws.trial_value the shifted rows
/// there (all of them when the merit is finite).
double PrimalDual::Merit(PrimalDualProgram& program, double alpha,
                         double& violation, double& logs) {
  PrimalDualWorkspace& ws = ws_;
  logs = 0.0;
  violation = 0.0;
  ws.trial_value.resize(ws.slack.size());
  const double obj = program.Trial(alpha, ws.values, ws.trial_value);
  bool inside = obj < kInf;
  for (std::size_t r = 0; r < ws.slack.size() && inside; ++r) {
    const double slack = ws.slack[r] + alpha * ws.d_slack[r];
    inside = slack > 0.0;
    logs += std::log(slack);
    ws.trial_value[r] = ws.trial_value[r] + ws.row_shift[r];
    violation += std::fabs(ws.trial_value[r] - slack);
  }
  return inside ? obj - mu_ * logs : kInf;
}

PrimalDualStatus PrimalDual::Converge(PrimalDualProgram& program,
                                      std::size_t& newton_steps,
                                      std::size_t max_newton) {
  PrimalDualWorkspace& ws = ws_;
  const double rows = static_cast<double>(ws.slack.size());
  while (true) {
    if (newton_steps >= max_newton) {
      return PrimalDualStatus::kNoConvergence;
    }
    ++newton_steps;
    Frontier fr(ws.frontal, program.plan(), /*modify=*/true);
    const double obj = program.Objective();
    if (!program.NewtonSystem(fr, ws) || !(obj < kInf)) {
      return PrimalDualStatus::kBreakdown;
    }
    const double scale = obj > 0.0 ? obj : 1.0;
    double gap = 0.0;
    double centrality = 0.0;
    double infeasible = 0.0;
    for (std::size_t r = 0; r < ws.slack.size(); ++r) {
      gap += ws.slack[r] * ws.dual[r];
      centrality += std::fabs(ws.slack[r] * ws.dual[r] - mu_);
      infeasible =
          std::max(infeasible, std::fabs(ws.row_value[r] - ws.slack[r]));
    }
    // The residual: the gap and the Newton decrement relative to the
    // objective, and the largest row violation.
    double slope = Direction(program, fr);
    kkt_ = std::max({gap / scale, std::fabs(slope) / scale, infeasible});
    if (!std::isfinite(kkt_)) {
      return PrimalDualStatus::kBreakdown;
    }
    const bool certified = program.Certified(ws, mu_);
    if (kkt_ <= kKktTol || certified) {
      return PrimalDualStatus::kSolved;
    }
    // A solved barrier subproblem lowers mu superlinearly (relative to
    // the objective, down to a tenth of the tolerance) and re-solves.
    const double floor_mu = 0.1 * kKktTol * scale / rows;
    if (mu_ > floor_mu && std::fabs(slope) <= mu_ &&
        centrality <= mu_ * rows && infeasible * scale <= mu_ * rows) {
      const double relative = mu_ * rows / scale;
      mu_ = std::max(floor_mu, std::min(kMuFactor * relative,
                                        std::pow(relative, kMuPower)) *
                                   scale / rows);
      slope = Direction(program, fr);
    }
    // Line search: a trial point is accepted when it lowers the row
    // violation or the barrier objective in proportion to the step and
    // the violation; a nearly feasible point must lower the barrier
    // objective by the Armijo rule.
    double violation = 0.0;
    const double phi = MeritHere(obj, slope, violation);
    double alpha = program.PrimalLimit(
        ws.step, kToBoundary, StepLimit(ws.slack, ws.d_slack, kToBoundary, 1.0));
    const double alpha_dual = StepLimit(ws.dual, ws.d_dual, kToBoundary, 1.0);
    bool accepted = false;
    double trial_violation = 0.0;
    double trial_logs = 0.0;
    for (int halvings = 0; halvings < 50 && !accepted; ++halvings) {
      const double value = Merit(program, alpha, trial_violation, trial_logs);
      if (value < kInf) {
        accepted =
            violation <= kNearlyFeasible && slope < 0.0
                ? value <= phi + 1e-4 * alpha * slope
                : trial_violation <= (1.0 - 1e-4 * alpha) * violation ||
                      value <= phi - 1e-4 * alpha * violation;
      }
      if (!accepted) {
        alpha *= 0.5;
      }
    }
    if (!accepted) {
      continue;  // no step left: the guard ends the solve
    }
    program.AcceptTrial();
    std::swap(ws.row_value, ws.trial_value);
    merit_kept_ = true;
    kept_logs_ = trial_logs;
    kept_violation_ = trial_violation;
    for (std::size_t r = 0; r < ws.slack.size(); ++r) {
      ws.slack[r] += alpha * ws.d_slack[r];
      ws.dual[r] = std::min(std::max(ws.dual[r] + alpha_dual * ws.d_dual[r],
                                     mu_ / (kDualSafeguard * ws.slack[r])),
                            kDualSafeguard * mu_ / ws.slack[r]);
    }
  }
}

}  // namespace dvs::opt
