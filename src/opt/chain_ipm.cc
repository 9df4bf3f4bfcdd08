#include "opt/chain_ipm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "opt/frontal.h"

namespace dvs::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// The iterate: starts, finishes and each group's running budgets C_u (the
/// budgets of its nodes up to u; the last is the group total).  Budgets w
/// are derived from C, so the budget sums hold by construction.
struct Point {
  std::vector<double> s, f, c, w;
};

void Derive(const ScaledOrder& p, Point& x) {
  for (std::size_t u = 0; u < p.n; ++u) {
    if (p.w_var[u]) {
      const double before = p.prev[u] != kNone ? x.c[p.prev[u]] : 0.0;
      x.w[u] = (p.c_var[u] ? x.c[u] : p.total[p.group[u]]) - before;
    }
  }
}

// Variable ids: 4u + {0: s, 1: f, 2: C, 3: lifting z}.  The rows and the
// objective's gradient are written over the same ids.
std::int64_t IdS(std::size_t u) { return static_cast<std::int64_t>(4 * u); }
std::int64_t IdF(std::size_t u) { return IdS(u) + 1; }
std::int64_t IdC(std::size_t u) { return IdS(u) + 2; }
std::int64_t IdZ(std::size_t u) { return IdS(u) + 3; }

/// One row g >= 0 with its gradient over the variables, and its place in
/// the certificate's layout: 5 per node for the rows a (s_u >= r_u),
/// b (s_u >= f_{u-1}), c (f_u <= cap_u), d (w_u >= min_speed d_u) and
/// e (w_u <= d_u).
struct Row {
  double value = 0.0;
  int count = 0;
  std::int64_t id[6] = {};
  double coeff[6] = {};
  std::size_t kind = 0;
  void Reset(std::size_t k, double v) {
    kind = k;
    value = v;
    count = 0;
  }
  void Add(std::int64_t i, double c) {
    id[count] = i;
    coeff[count++] = c;
  }
};

/// Emits node u's rows: a, the next node's b, c, d (free nodes, and fixed
/// ones under a floor) and e.
template <class Fn>
void NodeRows(const ScaledOrder& p, const Point& x, std::size_t u, Fn&& emit) {
  const double d = x.f[u] - x.s[u];
  const double w = x.w[u];
  // w_u = C_u - C_prev over the variables, scaled by k.
  const auto budget = [&p, u](Row& row, double k) {
    if (p.w_var[u]) {
      if (p.c_var[u]) {
        row.Add(IdC(u), k);
      }
      if (p.prev[u] != kNone) {
        row.Add(IdC(p.prev[u]), -k);
      }
    }
  };
  Row row;
  row.Reset(5 * u, x.s[u] - p.r[u]);
  row.Add(IdS(u), 1.0);
  emit(row);
  if (u + 1 < p.n) {
    row.Reset(5 * (u + 1) + 1, x.s[u + 1] - x.f[u]);
    row.Add(IdS(u + 1), 1.0);
    row.Add(IdF(u), -1.0);
    emit(row);
  }
  row.Reset(5 * u + 2, p.cap[u] - x.f[u]);
  row.Add(IdF(u), -1.0);
  emit(row);
  if (p.w_var[u] || p.smin > 0.0) {
    row.Reset(5 * u + 3, w - p.smin * d);
    budget(row, 1.0);
    if (p.smin > 0.0) {
      row.Add(IdF(u), -p.smin);
      row.Add(IdS(u), p.smin);
    }
    emit(row);
  }
  row.Reset(5 * u + 4, d - w);
  row.Add(IdF(u), 1.0);
  row.Add(IdS(u), -1.0);
  budget(row, -1.0);
  emit(row);
}

/// The objective (solver units), +inf where a window is not positive.
double Objective(const ScaledOrder& p, const Point& x) {
  double obj = 0.0;
  for (std::size_t u = 0; u < p.n; ++u) {
    const double d = x.f[u] - x.s[u];
    if (!(d > 0.0)) {
      return kInf;
    }
    obj += x.w[u] * x.w[u] * x.w[u] / (d * d);
  }
  return obj;
}

/// The symbolic pass (ws.plan, ws.nodes, the rows' terms and slots): the
/// Newton systems' assembly order on variable ids, fixed by the problem.
void BuildPlan(const ScaledOrder& p, const Point& x, ChainIpmWorkspace& ws) {
  FrontalPlan& fp = ws.plan;
  PrimalDualWorkspace& dw = ws.driver;
  // A node holds at most s_u, f_u, its own and the previous running budget,
  // z_u and s_{u+1} beside the open groups' running budgets.
  fp.Reset(p.open + 6);
  ws.nodes.assign(p.n, ChainNodePlan{});
  ws.row_slot.clear();
  ws.lambda_row.assign(5 * p.n, kNone);
  dw.row_begin.assign(1, 0);
  dw.row_id.clear();
  dw.row_coeff.clear();
  for (std::size_t u = 0; u < p.n; ++u) {
    ChainNodePlan& node = ws.nodes[u];
    const bool has_prev = p.w_var[u] && p.prev[u] != kNone;
    node.s = fp.Slot(IdS(u));
    node.f = fp.Slot(IdF(u));
    node.c = p.c_var[u] ? fp.Slot(IdC(u)) : 0;
    node.prev = has_prev ? fp.Slot(IdC(p.prev[u])) : 0;
    node.z = fp.Slot(IdZ(u));
    // The objective's lifting column couples z_u to s_u, f_u and the
    // budget's running sums.
    fp.Touch(node.z, node.s);
    fp.Touch(node.z, node.f);
    if (p.c_var[u]) {
      fp.Touch(node.z, node.c);
    }
    if (has_prev) {
      fp.Touch(node.z, node.prev);
    }
    NodeRows(p, x, u, [&](const Row& row) {
      ws.lambda_row[row.kind] = dw.row_begin.size() - 1;
      const std::size_t first = ws.row_slot.size();
      for (int i = 0; i < row.count; ++i) {
        dw.row_id.push_back(row.id[i]);
        dw.row_coeff.push_back(row.coeff[i]);
        ws.row_slot.push_back(fp.Slot(row.id[i]));
      }
      dw.row_begin.push_back(dw.row_id.size());
      for (std::size_t i = first; i < ws.row_slot.size(); ++i) {
        for (std::size_t j = first; j <= i; ++j) {
          fp.Touch(ws.row_slot[i], ws.row_slot[j]);
        }
      }
    });
    node.rows_end = dw.row_begin.size() - 1;
    // Eliminate what no later node touches: the start, the group's previous
    // running budget, the finish (its next-start row is in) and z_u.
    fp.Eliminate(IdS(u), false);
    if (has_prev) {
      fp.Eliminate(IdC(p.prev[u]), false);
    }
    fp.Eliminate(IdF(u), false);
    fp.Eliminate(IdZ(u), true);
    node.steps_end = fp.steps().size();
  }
}

/// The primal-dual Newton matrix at x: the objective through the lifting
/// variables and each row's (dual / slack) a a^T (the rows are linear),
/// factored along the plan; fills the objective's gradient.
bool NewtonSystem(const ScaledOrder& p, const Point& x, ChainIpmWorkspace& ws,
                  Frontier& fr, PrimalDualWorkspace& dw) {
  dw.grad.assign(4 * p.n, 0.0);
  double* grad = dw.grad.data();
  std::size_t index = 0;
  for (std::size_t u = 0; u < p.n; ++u) {
    const ChainNodePlan& node = ws.nodes[u];
    const bool has_prev = p.w_var[u] && p.prev[u] != kNone;
    // Objective w^3 / d^2 with d = f - s: its rank-one Hessian kappa v v^T,
    // v = (s: w, f: -w, w: d), kappa = 6 w / d^4, enters lifted through z_u
    // with [.. v; v^T -1/kappa] (DESIGN.md §2.2).
    const double d = x.f[u] - x.s[u];
    const double w = x.w[u];
    const double q = w / d;  // speed
    const double obj_d = -2.0 * q * q * q;
    const double obj_w = 3.0 * q * q;
    grad[IdS(u)] -= obj_d;
    grad[IdF(u)] += obj_d;
    fr.Add(node.z, node.s, w);
    fr.Add(node.z, node.f, -w);
    if (p.c_var[u]) {
      grad[IdC(u)] += obj_w;
      fr.Add(node.z, node.c, d);
    }
    if (has_prev) {
      grad[IdC(p.prev[u])] -= obj_w;
      fr.Add(node.z, node.prev, -d);
    }
    fr.Add(node.z, node.z, -d * d * d / (6.0 * q));
    for (; index < node.rows_end; ++index) {
      const double weight = dw.dual[index] / dw.slack[index];
      const std::size_t begin = dw.row_begin[index];
      const std::size_t end = dw.row_begin[index + 1];
      for (std::size_t i = begin; i < end; ++i) {
        const double scaled = weight * dw.row_coeff[i];
        for (std::size_t j = begin; j <= i; ++j) {
          fr.Add(ws.row_slot[i], ws.row_slot[j], scaled * dw.row_coeff[j]);
        }
      }
    }
    while (fr.eliminated() < node.steps_end) {
      if (!fr.Eliminate()) {
        return false;
      }
    }
  }
  return true;
}

/// Lagrangian-dual lower bound (solver units) from the non-negative
/// multiplier estimate in ws.lambda (layout per node: a, b, c, d, e; b of
/// node 0 and d of fixed nodes without a floor row 0), repaired into exact
/// dual feasibility (see DESIGN.md §2.2).
double DualBound(const ScaledOrder& p, ChainIpmWorkspace& ws) {
  const std::size_t n = p.n;
  std::vector<double>& lam = ws.lambda;
  // Exact stationarity in every start time: -la - lb + lb_next + lc = 0.
  for (std::size_t u = 0; u < n; ++u) {
    double* l = &lam[5 * u];
    const double lb_next = u + 1 < n ? lam[5 * (u + 1) + 1] : 0.0;
    const double kappa = -l[0] - l[1] + lb_next + l[2];
    if (kappa > 0.0) {
      l[0] += kappa;
    } else {
      const double take = std::min(l[0], -kappa);
      l[0] -= take;
      l[2] += -kappa - take;
    }
  }
  // For a free node, inf over w >= 0, d > 0 of w^3/d^2 + alpha d + beta w
  // (alpha = lb_next + lc + smin ld - le, beta = le - ld + nu) is 0 when
  // alpha >= 0 and alpha >= h(y) = y sqrt(y/3) 2/3 for y = ld - le - nu,
  // else -inf.  Its rows d and e carry no constant, so their multipliers
  // are chosen, not read: those admitting the smallest nu given a =
  // lb_next + lc >= 0 (DESIGN.md §2.2).  Each group's multiplier is the
  // largest its members need.
  std::vector<double>& nu = ws.nu;
  nu.assign(p.groups, -kInf);
  double dual = 0.0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t g = p.group[u];
    double* l = &lam[5 * u];
    const double lb_next = u + 1 < n ? lam[5 * (u + 1) + 1] : 0.0;
    if (p.w_var[u]) {
      const double a = lb_next + l[2];
      double need = 0.0;
      if (a > 2.0) {
        need = -a - 1.0;
      } else if (a >= 2.0 * p.smin * p.smin * p.smin) {
        // h^-1(a) = (a * 3 sqrt(3) / 2)^(2/3).
        const double root = std::cbrt(a * 2.598076211353316);
        need = -root * root;
      } else {
        need = -p.smin * p.smin - a / p.smin;
      }
      nu[g] = std::max(nu[g], need);
    } else {
      // alpha: the coefficient of d_u in the Lagrangian.  One too small for
      // the inner infimum to be finite gets lc and la raised together
      // (which keeps the start-time balance) at a dual cost of (cap - r)
      // per unit.
      double alpha = lb_next + l[2] + p.smin * l[3] - l[4];
      const double total = p.total[g];
      const double cube = 2.0 * total * total * total;
      if (!(alpha > 0.0)) {
        const double len = p.cap[u] - p.r[u];
        const double delta = -alpha + cube / (len * len * len);
        l[0] += delta;
        l[2] += delta;
        alpha += delta;
      }
      // inf over d > 0 of W^3/d^2 + alpha d = 1.5 alpha (2 W^3 / alpha)^(1/3).
      dual += total * (l[4] - l[3]) + 1.5 * alpha * std::cbrt(cube / alpha);
    }
    dual += l[0] * p.r[u] - l[2] * p.cap[u];
  }
  for (std::size_t g = 0; g < p.groups; ++g) {
    if (p.members[g].size() > 1) {
      dual -= nu[g] * p.total[g];
    }
  }
  return dual;
}

/// The chain program on the primal-dual driver, certifying its iterates.
class ChainProgram final : public PrimalDualProgram {
 public:
  ChainProgram(const ScaledOrder& p, ChainIpmWorkspace& ws, Point start)
      : p_(p), ws_(ws), x_(std::move(start)) {}

  const FrontalPlan& plan() const override { return ws_.plan; }

  double Objective() const override { return opt::Objective(p_, x_); }

  bool NewtonSystem(Frontier& fr, PrimalDualWorkspace& dw) override {
    return opt::NewtonSystem(p_, x_, ws_, fr, dw);
  }

  /// Keeps `fraction` of every node's distance to its speed band.
  double PrimalLimit(const std::vector<double>& step, double fraction,
                     double limit) const override {
    for (std::size_t u = 0; u < p_.n; ++u) {
      double dw = 0.0;
      if (p_.w_var[u]) {
        dw = (p_.c_var[u] ? step[IdC(u)] : 0.0) -
             (p_.prev[u] != kNone ? step[IdC(p_.prev[u])] : 0.0);
      }
      limit = SpeedBandLimit(x_.w[u], dw, x_.f[u] - x_.s[u],
                             step[IdF(u)] - step[IdS(u)], p_.smin, fraction,
                             limit);
    }
    return limit;
  }

  double Trial(double alpha, const std::vector<double>& values,
               std::vector<double>& rows) override {
    trial_ = x_;
    for (std::size_t u = 0; u < p_.n; ++u) {
      trial_.s[u] = x_.s[u] + alpha * values[IdS(u)];
      trial_.f[u] = x_.f[u] + alpha * values[IdF(u)];
      if (p_.c_var[u]) {
        trial_.c[u] = x_.c[u] + alpha * values[IdC(u)];
      }
    }
    Derive(p_, trial_);
    const double obj = opt::Objective(p_, trial_);
    if (obj < kInf) {
      std::size_t index = 0;
      for (std::size_t u = 0; u < p_.n; ++u) {
        NodeRows(p_, trial_, u,
                 [&](const Row& row) { rows[index++] = row.value; });
      }
    }
    return obj;
  }

  void AcceptTrial() override { std::swap(x_, trial_); }

  /// Certifies every nearly feasible x (its rows hold to the KKT
  /// tolerance) by the driver's multipliers and keeps the best.  The solve
  /// ends once the best gap is at most the KKT tolerance, or once the
  /// barrier parameter, having fallen, stays put for as many Newton systems
  /// as the solve took to its last fall: the driver cannot centre at that
  /// level in working precision.
  bool Certified(const PrimalDualWorkspace& dw, double mu) override {
    ++steps_;
    if (mu != mu_) {
      fell_ = mu_ > 0.0 ? steps_ : 0;
      mu_ = mu;
    }
    const bool stalled = fell_ > 0 && steps_ - fell_ >= fell_;
    for (std::size_t r = 0; r < dw.slack.size(); ++r) {
      if (!(std::fabs(dw.row_value[r] - dw.slack[r]) <= kKktTol)) {
        return stalled && best_gap < kInf;
      }
    }
    ws_.lambda.assign(5 * p_.n, 0.0);
    for (std::size_t k = 0; k < ws_.lambda_row.size(); ++k) {
      if (ws_.lambda_row[k] != kNone) {
        ws_.lambda[k] = dw.dual[ws_.lambda_row[k]];
      }
    }
    const double dual = DualBound(p_, ws_);
    const double primal = opt::Objective(p_, x_);
    const double gap = (primal - dual) / primal;
    if (gap < best_gap) {
      best_gap = gap;
      best_dual = dual;
      ws_.best_s = x_.s;
      ws_.best_f = x_.f;
      ws_.best_w = x_.w;
    }
    return best_gap <= kKktTol || stalled;
  }

  double best_gap = kInf;
  double best_dual = 0.0;

 private:
  const ScaledOrder& p_;
  ChainIpmWorkspace& ws_;
  Point x_, trial_;
  std::size_t steps_ = 0;  // Newton systems so far
  std::size_t fell_ = 0;   // the one at which mu last fell
  double mu_ = 0.0;
};

/// The start: the as-soon-as-possible sweep at max speed with each group's
/// total split evenly over its nodes, feasible or not.
Point SweepStart(const ScaledOrder& p) {
  Point x{std::vector<double>(p.n), std::vector<double>(p.n),
          std::vector<double>(p.n), std::vector<double>(p.n)};
  std::vector<double> running(p.groups, 0.0);
  for (std::size_t u = 0; u < p.n; ++u) {
    const std::size_t g = p.group[u];
    running[g] += p.total[g] / static_cast<double>(p.members[g].size());
    x.c[u] = running[g];
    x.w[u] = p.total[g];
  }
  Derive(p, x);
  double finish = 0.0;
  for (std::size_t u = 0; u < p.n; ++u) {
    x.s[u] = std::max(p.r[u], finish);
    x.f[u] = x.s[u] + x.w[u];
    finish = x.f[u];
  }
  return x;
}

}  // namespace

double ChainObjective(const ChainProblem& problem,
                      const ChainSolution& solution) {
  double total = 0.0;
  for (std::size_t u = 0; u < solution.budget.size(); ++u) {
    const double w = solution.budget[u];
    const double d = solution.finish[u] - solution.start[u];
    if (w > 0.0) {
      if (!(d > 0.0)) {
        return kInf;
      }
      total += problem.energy_coeff * w * w * w / (d * d);
    }
  }
  return total;
}

ChainIpmReport SolveChain(const ChainProblem& problem, ChainSolution& solution,
                          ChainIpmWorkspace* workspace) {
  const std::size_t n = problem.release.size();
  const ScaledOrder p =
      ScaleOrder(problem.release, problem.cap, problem.group,
                 problem.group_total, problem.min_speed, problem.max_speed,
                 problem.energy_coeff);
  ChainIpmWorkspace local;
  ChainIpmWorkspace& ws = workspace != nullptr ? *workspace : local;
  ChainIpmReport report;
  solution = ChainSolution{};
  if (n == 0) {
    return report;
  }
  Point start = SweepStart(p);
  BuildPlan(p, start, ws);
  PrimalDual driver(ws.driver);
  driver.ClearRows();
  for (std::size_t u = 0; u < n; ++u) {
    NodeRows(p, start, u,
             [&](const Row& row) { driver.AddStartRow(row.value, false); });
  }
  driver.StartMultipliers(Objective(p, start));
  ChainProgram program(p, ws, std::move(start));
  driver.Converge(program, report.newton_steps, kMaxNewtonSteps);
  if (program.best_gap == kInf) {
    report.status = ChainStatus::kBreakdown;
    return report;
  }
  report.dual = program.best_dual * p.energy_unit;
  solution.start.resize(n);
  solution.finish.resize(n);
  solution.budget.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    solution.start[u] = ws.best_s[u] * p.time_unit;
    solution.finish[u] = ws.best_f[u] * p.time_unit;
    solution.budget[u] = p.w_var[u] ? ws.best_w[u] * p.cycle_unit
                                     : problem.group_total[p.group[u]];
  }
  return report;
}

}  // namespace dvs::opt
