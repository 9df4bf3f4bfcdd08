#include "opt/chain_ipm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "opt/frontal.h"
#include "util/error.h"

namespace dvs::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Newton steps one centring round may take before its point is certified
// as is (rounds from a reasonable point need well under ten).
constexpr std::size_t kMaxRoundSteps = 30;
// Newton steps of a whole solve, and the barrier parameter's growth per
// round.
constexpr std::size_t kMaxNewton = 300;
constexpr double kBarrierGrowth = 20.0;
// Rounds stop once the certified relative gap reaches this.
constexpr double kTargetGap = 1e-9;
// Newton decrement squared below which full (boundary-safe) steps are
// taken without a sufficient-decrease test.
constexpr double kPureNewton = 0.1;

/// The program in solver units: time over the largest cap and cycles over
/// what max_speed runs in that time, so max_speed = energy_coeff = 1.
struct Scaled {
  std::size_t n = 0;
  std::size_t groups = 0;
  std::vector<double> r, cap, total;
  std::vector<std::size_t> group, size, last;
  std::vector<unsigned char> free_w;  // the node's budget is a variable
  double smin = 0.0;                  // min_speed / max_speed
  bool floor_rows = false;            // fixed nodes carry a min-speed row
  std::size_t rows = 0;               // inequality count
  std::size_t frontier_cap = 0;       // dense frontier dimension bound
  double time_unit = 1.0;
  double cycle_unit = 1.0;
};

Scaled ScaleProblem(const ChainProblem& problem) {
  Scaled p;
  p.n = problem.release.size();
  p.groups = problem.group_total.size();
  double horizon = 0.0;
  for (double cap : problem.cap) {
    horizon = std::max(horizon, cap);
  }
  p.time_unit = horizon > 0.0 ? horizon : 1.0;
  p.cycle_unit = p.time_unit * problem.max_speed;
  p.smin = problem.min_speed / problem.max_speed;
  p.floor_rows = p.smin > 0.0;
  p.r.resize(p.n);
  p.cap.resize(p.n);
  p.group = problem.group;
  p.total.resize(p.groups);
  p.size.assign(p.groups, 0);
  p.last.assign(p.groups, 0);
  for (std::size_t g = 0; g < p.groups; ++g) {
    p.total[g] = problem.group_total[g] / p.cycle_unit;
  }
  std::vector<std::size_t> first(p.groups, p.n);
  for (std::size_t u = 0; u < p.n; ++u) {
    p.r[u] = problem.release[u] / p.time_unit;
    p.cap[u] = problem.cap[u] / p.time_unit;
    const std::size_t g = p.group[u];
    ++p.size[g];
    p.last[g] = u;
    first[g] = std::min(first[g], u);
  }
  p.free_w.resize(p.n);
  p.rows = 0;
  for (std::size_t u = 0; u < p.n; ++u) {
    p.free_w[u] = p.size[p.group[u]] > 1 ? 1 : 0;
    p.rows += 3 + (u > 0 ? 1 : 0) + (p.free_w[u] || p.floor_rows ? 1 : 0);
  }
  // Groups open across each node boundary: their multipliers stay in the
  // frontier between their first and last node.
  std::vector<int> delta(p.n + 1, 0);
  for (std::size_t g = 0; g < p.groups; ++g) {
    if (p.size[g] > 1) {
      ++delta[first[g]];
      --delta[p.last[g] + 1];
    }
  }
  int open = 0;
  int max_open = 0;
  for (std::size_t u = 0; u < p.n; ++u) {
    open += delta[u];
    max_open = std::max(max_open, open);
  }
  p.frontier_cap = static_cast<std::size_t>(max_open) + 5;
  return p;
}

/// Strictly feasible start: an as-soon-as-possible sweep running every node
/// at max_speed / rho with `gap` of idle time around each window.  A node
/// of a multi-node group fills at most 1 - `spare` of its room, leaving
/// some to later nodes under the same cap, and keeps a small share for
/// every later member of its group.  False when the sweep does not fit.
bool InteriorStart(const Scaled& p, double rho, double gap, double spare,
                   double* s, double* f, double* w) {
  std::vector<double> pending(p.total);
  std::vector<std::size_t> left(p.size);
  double prev_finish = -kInf;
  for (std::size_t u = 0; u < p.n; ++u) {
    const std::size_t g = p.group[u];
    s[u] = std::max(p.r[u], prev_finish) + gap;
    const double room = p.cap[u] - gap - s[u];
    if (!(room > 0.0)) {
      return false;
    }
    --left[g];
    if (!p.free_w[u] || left[g] == 0) {
      w[u] = pending[g];
    } else {
      const double share = 1e-3 * p.total[g] / static_cast<double>(p.size[g]);
      const double capacity = (1.0 - spare) * room / rho;
      w[u] = std::max(share, std::min(pending[g] -
                                           static_cast<double>(left[g]) * share,
                                       capacity));
    }
    const double d = w[u] * rho;
    if (!(w[u] > 0.0) || d > room) {
      return false;
    }
    f[u] = s[u] + d;
    pending[g] -= w[u];
    prev_finish = f[u];
  }
  return true;
}

/// Objective (solver units) or +inf outside the barrier's domain; `log_sum`
/// receives the sum of the constraint logarithms.
double ObjectiveAndLogs(const Scaled& p, const double* s, const double* f,
                        const double* w, double* log_sum) {
  double obj = 0.0;
  double logs = 0.0;
  for (std::size_t u = 0; u < p.n; ++u) {
    const double d = f[u] - s[u];
    const double ca = s[u] - p.r[u];
    const double cb = u > 0 ? s[u] - f[u - 1] : 1.0;
    const double cc = p.cap[u] - f[u];
    const double cd = p.free_w[u] || p.floor_rows ? w[u] - p.smin * d : 1.0;
    const double ce = d - w[u];
    if (!(ca > 0.0 && cb > 0.0 && cc > 0.0 && cd > 0.0 && ce > 0.0)) {
      return kInf;
    }
    obj += w[u] * w[u] * w[u] / (d * d);
    // One logarithm per node: the product of five values in (0, ~2] stays
    // far inside double range.
    logs += std::log(ca * cb * cc * cd * ce);
  }
  *log_sum = logs;
  return obj;
}

double Barrier(const Scaled& p, double t, const double* s, const double* f,
               const double* w) {
  double logs = 0.0;
  const double obj = ObjectiveAndLogs(p, s, f, w, &logs);
  return obj == kInf ? kInf : t * obj - logs;
}

// Variables by id: primal ids 4u .. 4u+3 for s_u, f_u, w_u and the lifting
// variable z_u; 4n + g for group g's multiplier.

/// The symbolic pass (ws.plan, ws.nodes): NewtonSystem's assembly order on
/// variable ids.  The structure depends on the problem alone.
void BuildPlan(const Scaled& p, ChainIpmWorkspace& ws) {
  const std::size_t n = p.n;
  FrontalPlan& fp = ws.plan;
  fp.Reset(p.frontier_cap);
  ws.nodes.assign(n, ChainNodePlan{});
  for (std::size_t u = 0; u < n; ++u) {
    ChainNodePlan& node = ws.nodes[u];
    const bool free_w = p.free_w[u] != 0;
    const std::int64_t base = static_cast<std::int64_t>(4 * u);
    const std::int64_t nu_id = static_cast<std::int64_t>(4 * n + p.group[u]);
    node.s = fp.Slot(base);
    node.f = fp.Slot(base + 1);
    node.w = free_w ? fp.Slot(base + 2) : 0;
    node.z = fp.Slot(base + 3);
    node.next = u + 1 < n ? fp.Slot(base + 4) : 0;
    if (free_w) {
      node.opens = !fp.Has(nu_id);
      node.nu = fp.Slot(nu_id);
      fp.Touch(node.nu, node.w);
    }
    // The objective's lifting column and the rows couple s_u, f_u, z_u and
    // a free w_u with each other, and f_u with s_{u+1} (see NewtonSystem).
    const std::size_t coupled[] = {node.s, node.f, node.z, node.w};
    for (int i = 0; i < (free_w ? 4 : 3); ++i) {
      for (int j = 0; j < i; ++j) {
        fp.Touch(coupled[i], coupled[j]);
      }
    }
    if (u + 1 < n) {
      fp.Touch(node.next, node.f);
    }
    fp.Eliminate(base, false);
    if (free_w) {
      fp.Eliminate(base + 2, false);
    }
    fp.Eliminate(base + 1, false);
    fp.Eliminate(base + 3, true);
    if (free_w && p.last[p.group[u]] == u) {
      fp.Eliminate(nu_id, true);
    }
    node.steps_end = fp.steps().size();
  }
}

/// One Newton system of the barrier problem at (s, f, w), factored along
/// the plan: fills the step (ds, df, dw), the gradient (gs, gf, gw) and the
/// group multipliers (values[4n + g]).  False on a pivot breakdown.
bool NewtonSystem(const Scaled& p, double t, ChainIpmWorkspace& ws) {
  const std::size_t n = p.n;
  const double* s = ws.s.data();
  const double* f = ws.f.data();
  const double* w = ws.w.data();
  Frontier fr(ws.frontal, ws.plan);
  std::vector<double>& budget_sum = ws.group_sum;
  budget_sum.assign(p.groups, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    if (p.free_w[u]) {
      budget_sum[p.group[u]] += w[u];
    }
  }
  std::fill(ws.gs.begin(), ws.gs.end(), 0.0);
  std::fill(ws.gf.begin(), ws.gf.end(), 0.0);
  std::fill(ws.gw.begin(), ws.gw.end(), 0.0);

  for (std::size_t u = 0; u < n; ++u) {
    const ChainNodePlan& node = ws.nodes[u];
    const bool free_w = p.free_w[u] != 0;
    const std::size_t ks = node.s;
    const std::size_t kf = node.f;
    const std::size_t kw = node.w;
    const std::size_t kz = node.z;
    const std::size_t kn = node.next;
    const std::size_t g = p.group[u];
    if (free_w) {
      if (node.opens) {
        fr.AddRhs(node.nu, p.total[g] - budget_sum[g]);
      }
      fr.Add(node.nu, kw, 1.0);
    }
    // Gradient contributions go to the g arrays and, negated, to the rhs.
    const auto grad = [&](std::size_t slot, double* g_arr, std::size_t idx,
                          double value) {
      g_arr[idx] += value;
      fr.AddRhs(slot, -value);
    };

    // Objective t * w^3 / d^2 with d = f - s.  Its Hessian is the rank-one
    // kappa v v^T, v = (s: w, f: -w, w: d), kappa = 6 t w / d^4: a huge
    // term whose Schur complements cancel to rounding noise when
    // eliminated directly.  It enters lifted instead, through z_u with
    // [.. v; v^T -1/kappa]; z_u is eliminated after the node's primal
    // variables, with a negative pivot free of cancellation.
    const double d = f[u] - s[u];
    const double wu = w[u];
    const double q = wu / d;  // speed
    const double obj_d = -2.0 * t * q * q * q;
    grad(ks, ws.gs.data(), u, -obj_d);
    grad(kf, ws.gf.data(), u, obj_d);
    fr.Add(kz, ks, wu);
    fr.Add(kz, kf, -wu);
    if (free_w) {
      grad(kw, ws.gw.data(), u, 3.0 * t * q * q);
      fr.Add(kz, kw, d);
    }
    fr.Add(kz, kz, -d * d * d / (6.0 * t * q));

    // Barrier rows: -log(a . x - b) adds -a / c to the gradient and
    // a a^T / c^2 to the Hessian.
    struct Term {
      std::size_t slot;
      double* g_arr;
      std::size_t idx;
      double coeff;
    };
    const auto row = [&](const Term* terms, int count, double c) {
      const double inv = 1.0 / c;
      const double inv2 = inv * inv;
      for (int i = 0; i < count; ++i) {
        grad(terms[i].slot, terms[i].g_arr, terms[i].idx,
             -terms[i].coeff * inv);
        for (int j = 0; j <= i; ++j) {
          fr.Add(terms[i].slot, terms[j].slot,
                 terms[i].coeff * terms[j].coeff * inv2);
        }
      }
    };
    double* gs = ws.gs.data();
    double* gf = ws.gf.data();
    double* gw = ws.gw.data();
    {
      const Term a[] = {{ks, gs, u, 1.0}};
      row(a, 1, s[u] - p.r[u]);
    }
    if (u + 1 < n) {
      const Term b[] = {{kn, gs, u + 1, 1.0}, {kf, gf, u, -1.0}};
      row(b, 2, s[u + 1] - f[u]);
    }
    {
      const Term c[] = {{kf, gf, u, -1.0}};
      row(c, 1, p.cap[u] - f[u]);
    }
    if (free_w) {
      const Term dr[] = {{kw, gw, u, 1.0}, {kf, gf, u, -p.smin},
                         {ks, gs, u, p.smin}};
      row(dr, 3, wu - p.smin * d);
      const Term e[] = {{kf, gf, u, 1.0}, {ks, gs, u, -1.0}, {kw, gw, u, -1.0}};
      row(e, 3, d - wu);
    } else {
      if (p.floor_rows) {
        const Term dr[] = {{kf, gf, u, -p.smin}, {ks, gs, u, p.smin}};
        row(dr, 2, wu - p.smin * d);
      }
      const Term e[] = {{kf, gf, u, 1.0}, {ks, gs, u, -1.0}};
      row(e, 2, d - wu);
    }

    // Eliminate this node's variables; a group's multiplier after its last
    // member.
    while (fr.eliminated() < node.steps_end) {
      if (!fr.Eliminate()) {
        return false;
      }
    }
  }

  ws.values.assign(4 * n + p.groups, 0.0);
  fr.BackSubstitute(ws.values);
  for (std::size_t u = 0; u < n; ++u) {
    ws.ds[u] = ws.values[4 * u];
    ws.df[u] = ws.values[4 * u + 1];
    ws.dw[u] = p.free_w[u] ? ws.values[4 * u + 2] : 0.0;
  }
  // Put the step back on the budget equalities exactly: rounding in the
  // solve leaves sum(dw) a hair off the residual, and the drift would
  // accumulate into an infeasible iterate.  Each member absorbs a share
  // proportional to its smaller inequality slack.
  std::vector<double>& excess = ws.group_excess;
  std::vector<double>& room = ws.group_room;
  excess.assign(p.groups, 0.0);
  room.assign(p.groups, 0.0);
  for (std::size_t g = 0; g < p.groups; ++g) {
    excess[g] = budget_sum[g] - p.total[g];
  }
  const auto slack = [&p, s, f, w](std::size_t u) {
    const double d = f[u] - s[u];
    return std::min(w[u] - p.smin * d, d - w[u]);
  };
  for (std::size_t u = 0; u < n; ++u) {
    if (p.free_w[u]) {
      excess[p.group[u]] += ws.dw[u];
      room[p.group[u]] += slack(u);
    }
  }
  for (std::size_t u = 0; u < n; ++u) {
    if (p.free_w[u]) {
      const std::size_t g = p.group[u];
      ws.dw[u] -= excess[g] * (slack(u) / room[g]);
    }
  }
  return true;
}

/// Largest step along (ds, df, dw) that keeps every row positive.
double MaxStep(const Scaled& p, const ChainIpmWorkspace& ws) {
  double step = kInf;
  const auto limit = [&step](double c, double dc) {
    if (dc < 0.0) {
      step = std::min(step, -c / dc);
    }
  };
  for (std::size_t u = 0; u < p.n; ++u) {
    const double d = ws.f[u] - ws.s[u];
    const double dd = ws.df[u] - ws.ds[u];
    limit(ws.s[u] - p.r[u], ws.ds[u]);
    if (u > 0) {
      limit(ws.s[u] - ws.f[u - 1], ws.ds[u] - ws.df[u - 1]);
    }
    limit(p.cap[u] - ws.f[u], -ws.df[u]);
    if (p.free_w[u] || p.floor_rows) {
      limit(ws.w[u] - p.smin * d, ws.dw[u] - p.smin * dd);
    }
    limit(d - ws.w[u], dd - ws.dw[u]);
  }
  return step;
}

/// Lagrangian-dual lower bound (solver units) from the barrier duals at
/// the current point and Newton step, repaired into exact dual feasibility
/// (see DESIGN.md §2.2).
double DualBound(const Scaled& p, double t, bool second_order,
                 ChainIpmWorkspace& ws) {
  const std::size_t n = p.n;
  // lambda layout per node: a, b, c, d, e (b of node 0 and d of fixed
  // nodes without a floor row stay 0).
  std::vector<double>& lam = ws.lambda;
  lam.assign(5 * n, 0.0);
  // Barrier duals 1 / (t c), optionally corrected to second order along
  // the Newton step (exact at the centre, sharper off it unless the step
  // itself is poor).
  const auto estimate = [t, second_order](double c, double dc) {
    return std::max(0.0, (second_order ? 1.0 - dc / c : 1.0) / (t * c));
  };
  for (std::size_t u = 0; u < n; ++u) {
    const double d = ws.f[u] - ws.s[u];
    const double dd = ws.df[u] - ws.ds[u];
    double* l = &lam[5 * u];
    l[0] = estimate(ws.s[u] - p.r[u], ws.ds[u]);
    if (u > 0) {
      l[1] = estimate(ws.s[u] - ws.f[u - 1], ws.ds[u] - ws.df[u - 1]);
    }
    l[2] = estimate(p.cap[u] - ws.f[u], -ws.df[u]);
    if (p.free_w[u] || p.floor_rows) {
      l[3] = estimate(ws.w[u] - p.smin * d, ws.dw[u] - p.smin * dd);
    }
    l[4] = estimate(d - ws.w[u], dd - ws.dw[u]);
  }
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
  // alpha_u: the coefficient of d_u in the Lagrangian.  A node whose
  // alpha is too small for its inner infimum to be finite gets lc and la
  // raised together (which keeps the start-time balance) at a dual cost of
  // (cap - r) per unit.
  std::vector<double>& alpha = ws.alpha;
  alpha.assign(n, 0.0);
  const auto raise = [&](std::size_t u, double delta) {
    lam[5 * u] += delta;
    lam[5 * u + 2] += delta;
    alpha[u] += delta;
  };
  for (std::size_t u = 0; u < n; ++u) {
    const double* l = &lam[5 * u];
    const double lb_next = u + 1 < n ? lam[5 * (u + 1) + 1] : 0.0;
    alpha[u] = lb_next + l[2] + p.smin * l[3] - l[4];
    if (p.free_w[u] && alpha[u] < 0.0) {
      raise(u, -alpha[u]);
    }
  }
  // For a free node, inf over w >= 0, d > 0 of w^3/d^2 + alpha d + beta w
  // (beta = ld - le... + nu, see DESIGN.md) is 0 exactly when alpha >=
  // h(y) = (2/3) y sqrt(y/3) for y = ld - le - nu, and -inf otherwise.
  // Each group's multiplier is the smallest nu meeting that for every
  // member, which at the centre is its exact value.
  std::vector<double>& nu = ws.group_sum;
  nu.assign(p.groups, -kInf);
  for (std::size_t u = 0; u < n; ++u) {
    if (p.free_w[u]) {
      const double* l = &lam[5 * u];
      // h^-1(alpha) = (alpha * 3 sqrt(3) / 2)^(2/3).
      const double root = std::cbrt(alpha[u] * 2.598076211353316);
      nu[p.group[u]] =
          std::max(nu[p.group[u]], l[3] - l[4] - root * root);
    }
  }
  double dual = 0.0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t g = p.group[u];
    if (p.free_w[u]) {
      const double* l = &lam[5 * u];
      const double y = l[3] - l[4] - nu[g];
      const double need = y > 0.0 ? (2.0 / 3.0) * y * std::sqrt(y / 3.0) : 0.0;
      if (alpha[u] < need) {  // rounding only
        raise(u, need - alpha[u]);
      }
    } else {
      const double total = p.total[g];
      const double cube = 2.0 * total * total * total;
      if (!(alpha[u] > 0.0)) {
        const double len = p.cap[u] - p.r[u];
        raise(u, -alpha[u] + cube / (len * len * len));
      }
      // inf over d > 0 of W^3/d^2 + alpha d = 1.5 alpha (2 W^3 / alpha)^(1/3).
      const double* l = &lam[5 * u];
      dual += total * (l[4] - l[3]) +
              1.5 * alpha[u] * std::cbrt(cube / alpha[u]);
    }
    dual += lam[5 * u] * p.r[u] - lam[5 * u + 2] * p.cap[u];
  }
  for (std::size_t g = 0; g < p.groups; ++g) {
    if (p.size[g] > 1) {
      dual -= nu[g] * p.total[g];
    }
  }
  return dual;
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
  ACS_REQUIRE(problem.cap.size() == n && problem.group.size() == n,
              "chain problem: per-node arrays differ in length");
  ACS_REQUIRE(problem.max_speed > problem.min_speed && problem.min_speed >= 0.0,
              "chain problem: need 0 <= min_speed < max_speed");
  ACS_REQUIRE(problem.energy_coeff > 0.0,
              "chain problem: energy coefficient must be positive");
  for (std::size_t u = 0; u < n; ++u) {
    ACS_REQUIRE(problem.group[u] < problem.group_total.size(),
                "chain problem: group index out of range");
  }
  for (double total : problem.group_total) {
    ACS_REQUIRE(total > 0.0, "chain problem: group totals must be positive");
  }

  ChainIpmWorkspace local;
  ChainIpmWorkspace& ws = workspace != nullptr ? *workspace : local;
  ChainIpmReport report;
  solution = ChainSolution{};
  if (n == 0) {
    return report;
  }
  const Scaled p = ScaleProblem(problem);
  for (std::vector<double>* v :
       {&ws.s, &ws.f, &ws.w, &ws.ds, &ws.df, &ws.dw, &ws.gs, &ws.gf, &ws.gw,
        &ws.trial_s, &ws.trial_f, &ws.trial_w, &ws.best_s, &ws.best_f,
        &ws.best_w}) {
    v->assign(n, 0.0);
  }

  // Strictly feasible start: the fastest derating and widest idle gap that
  // fit, falling back to tighter ones.
  double min_len = kInf;
  for (std::size_t u = 0; u < n; ++u) {
    min_len = std::min(min_len, p.cap[u] - p.r[u]);
  }
  bool started = false;
  for (double rho : {1.5, 1.2, 1.05, 1.01, 1.001, 1.00001}) {
    if (!(rho * p.smin < 1.0 - 1e-9)) {
      continue;
    }
    for (double spare : {0.5, 0.1, 0.01}) {
      for (double theta : {1e-2, 1e-4, 1e-7}) {
        started = min_len > 0.0 &&
                  InteriorStart(p, rho, theta * min_len, spare, ws.s.data(),
                                ws.f.data(), ws.w.data());
        if (started) {
          break;
        }
      }
      if (started) {
        break;
      }
    }
    if (started) {
      break;
    }
  }
  if (!started) {
    report.status = ChainStatus::kNoInterior;
    return report;
  }

  BuildPlan(p, ws);
  double logs = 0.0;
  const double start_obj =
      ObjectiveAndLogs(p, ws.s.data(), ws.f.data(), ws.w.data(), &logs);
  double t = static_cast<double>(p.rows) / start_obj;
  double phi = t * start_obj - logs;
  ++report.evaluations;
  double best_gap = kInf;
  std::size_t stale_rounds = 0;
  bool breakdown = false;

  while (!breakdown && report.newton_steps < kMaxNewton) {
    ++report.rounds;
    // Centring: damped Newton on the barrier problem at this t.
    const std::size_t round_start = report.newton_steps;
    while (true) {
      ++report.newton_steps;
      if (!NewtonSystem(p, t, ws)) {
        breakdown = true;
        break;
      }
      double slope = 0.0;
      for (std::size_t u = 0; u < n; ++u) {
        slope += ws.gs[u] * ws.ds[u] + ws.gf[u] * ws.df[u] +
                 ws.gw[u] * ws.dw[u];
      }
      // Centred once the Newton decrement is negligible next to the
      // barrier value's own rounding (it is compared in t-scaled units).
      if (!(slope < 0.0) || -slope <= 1e-7 + 1e-13 * std::fabs(phi) ||
          report.newton_steps >= kMaxNewton ||
          report.newton_steps - round_start >= kMaxRoundSteps) {
        break;  // centred: the certificate reads this Newton system
      }
      double alpha = std::min(1.0, 0.99 * MaxStep(p, ws));
      bool accepted = false;
      for (int bt = 0; bt < 60 && alpha > 0.0; ++bt) {
        for (std::size_t u = 0; u < n; ++u) {
          ws.trial_s[u] = ws.s[u] + alpha * ws.ds[u];
          ws.trial_f[u] = ws.f[u] + alpha * ws.df[u];
          ws.trial_w[u] = ws.w[u] + alpha * ws.dw[u];
        }
        const double trial = Barrier(p, t, ws.trial_s.data(),
                                     ws.trial_f.data(), ws.trial_w.data());
        ++report.evaluations;
        // Inside the quadratic region (small Newton decrement) the step is
        // taken whole: a sufficient decrease there is below the barrier
        // value's rounding once t is large.
        if (trial < kInf &&
            (-slope < kPureNewton || trial <= phi + 0.01 * alpha * slope)) {
          std::swap(ws.s, ws.trial_s);
          std::swap(ws.f, ws.trial_f);
          std::swap(ws.w, ws.trial_w);
          phi = trial;
          accepted = true;
          break;
        }
        alpha *= 0.5;
      }
      if (!accepted || alpha < 1e-4) {
        break;  // no progress at working precision: treat as centred
      }
    }
    if (breakdown) {
      break;
    }

    const double primal =
        ObjectiveAndLogs(p, ws.s.data(), ws.f.data(), ws.w.data(), &logs);
    // Both estimates give valid bounds; keep the better.
    const double dual =
        std::max(DualBound(p, t, true, ws), DualBound(p, t, false, ws));
    const double gap = (primal - dual) / primal;
    if (gap < best_gap) {
      stale_rounds = 0;
      best_gap = gap;
      report.dual = dual;
      ws.best_s = ws.s;
      ws.best_f = ws.f;
      ws.best_w = ws.w;
    } else if (++stale_rounds >= 2) {
      break;  // the gap stopped shrinking at working precision
    }
    // Done at the target.  Otherwise grow t, but only up to where the
    // barrier's own gap (rows / t) is half the target: a larger t just
    // amplifies rounding in the Newton systems.
    const double t_final =
        static_cast<double>(p.rows) / (0.5 * kTargetGap * primal);
    if (best_gap <= kTargetGap || t >= t_final) {
      break;
    }
    t = std::min(t * kBarrierGrowth, t_final);
    phi = t * primal - logs;
    ++report.evaluations;
  }

  if (best_gap == kInf) {
    report.status = ChainStatus::kBreakdown;
    return report;
  }
  const double energy_unit = problem.energy_coeff * p.cycle_unit *
                             p.cycle_unit * p.cycle_unit /
                             (p.time_unit * p.time_unit);
  report.dual *= energy_unit;
  solution.start.resize(n);
  solution.finish.resize(n);
  solution.budget.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    solution.start[u] = ws.best_s[u] * p.time_unit;
    solution.finish[u] = ws.best_f[u] * p.time_unit;
    solution.budget[u] = p.free_w[u] ? ws.best_w[u] * p.cycle_unit
                                     : problem.group_total[p.group[u]];
  }
  return report;
}

}  // namespace dvs::opt
