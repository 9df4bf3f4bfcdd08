#include "opt/replay_newton.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace dvs::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
// The barrier parameter's growth per round.
constexpr double kBarrierGrowth = 20.0;
// Newton decrement squared below which full (boundary-safe) steps are taken
// without a sufficient-decrease test, and below which a point counts as
// central: the parameter grows only from a central point (growing it from
// an uncentred one runs the path ahead of the iterate).  The relative KKT
// residual reads the decrement over t * objective, so at the final
// parameter a central point is converged.
constexpr double kPureNewton = 0.1;
constexpr double kNearCentral = 1.0;
// Newton steps after which a centring round ends uncentred, and the total
// budget of a solve: guards against a solve that cannot terminate, never a
// stop rule (a solve that reaches them reports kNoConvergence).
constexpr std::size_t kMaxRoundSteps = 20;
constexpr std::size_t kMaxNewton = 1500;
// Patterns a solve may visit (each visit is a converged sub-solve).
constexpr std::size_t kMaxPatterns = 24;
// A pattern row whose slack is below this fraction of its group's budget is
// active at a converged point.
constexpr double kActiveSlack = 1e-7;
// A row that a pattern change leaves at or below this slack (solver units)
// starts shifted to it.
constexpr double kShiftMargin = 1e-9;
// A pattern change restarts the path at the first round's parameter from
// the converged point (restarting at a large parameter leaves the point
// against every active row, where Newton steps crawl; a restart with every
// row shifted to its central slack there lost the path more often than it
// saved steps).  While a shift is open the parameter is held, and each
// round gives back this fraction of a row's shifted slack; a shift still
// open after kShiftedRounds rounds means the new piece's optimum lies
// across that row.
constexpr double kShiftDecay = 0.99;
constexpr std::size_t kShiftedRounds = 4;

enum class Case : unsigned char { kEmpty, kFull, kPartial };

/// What a pattern-boundary row moves its node to when it is active.
enum class Flip : unsigned char {
  kNone,
  kToFloored,   // w >= min_speed d: the node wants to run below Vmin
  kToFree,      // min_speed d >= w: the node wants to run above Vmin
  kToPrevious,  // avg >= 0: the group's plan wants to end before this node
  kToNext,      // w >= avg: the plan wants to reach the next node
};

/// The program in solver units: time over the largest cap and cycles over
/// what max_speed runs in that time, so max_speed = energy_coeff = 1.
struct Scaled {
  std::size_t n = 0;
  std::size_t groups = 0;
  std::vector<double> r, b, cap, total, plan;
  std::vector<std::size_t> group;
  std::vector<std::vector<std::size_t>> members;  // per group, in order
  std::vector<unsigned char> w_var;  // the node's budget is a variable
  std::vector<unsigned char> c_var;  // its group's running budget C_u is one
  std::vector<std::size_t> prev;     // previous node of its group, or kNone
  double smin = 0.0;                 // min_speed / max_speed
  std::size_t frontier_cap = 0;
  double time_unit = 1.0;
  double cycle_unit = 1.0;
};

struct Pattern {
  std::vector<Case> node;
  std::vector<unsigned char> floored;  // executing nodes: speed held at Vmin
  std::vector<std::size_t> partial;    // per group: the partial node or kNone

  friend bool operator==(const Pattern& x, const Pattern& y) {
    return x.node == y.node && x.floored == y.floored;
  }
};

/// The iterate: starts, end-times and each group's running budgets C_u (the
/// budgets of its nodes up to u; the last is the group total).  Budgets w
/// and a partial node's scenario cycles a are derived from C, so the budget
/// and plan sums hold by construction and the Newton systems carry no
/// equality rows.
struct State {
  std::vector<double> s, e, c, w, a;
};

void Derive(const Scaled& p, const Pattern& pat, State& x) {
  for (std::size_t u = 0; u < p.n; ++u) {
    if (!p.w_var[u]) {
      continue;
    }
    const std::size_t g = p.group[u];
    const double before = p.prev[u] != kNone ? x.c[p.prev[u]] : 0.0;
    x.w[u] = (p.c_var[u] ? x.c[u] : p.total[g]) - before;
    x.a[u] = pat.node[u] == Case::kPartial ? p.plan[g] - before : 0.0;
  }
}

// Variable ids: 5u + {0: s, 1: e, 2: w, 3: avg, 4: lifting z}; 5n + 2g and
// 5n + 2g + 1 for group g's budget and plan multipliers.
std::int64_t IdS(std::size_t u) { return static_cast<std::int64_t>(5 * u); }
std::int64_t IdE(std::size_t u) { return IdS(u) + 1; }
std::int64_t IdW(std::size_t u) { return IdS(u) + 2; }
std::int64_t IdA(std::size_t u) { return IdS(u) + 3; }
std::int64_t IdZ(std::size_t u) { return IdS(u) + 4; }
// The running budget C_u is a variable; w and a are primitives over it.
std::int64_t IdC(std::size_t u) { return IdW(u); }

Scaled ScaleProblem(const ReplayProblem& problem) {
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
  p.r.resize(p.n);
  p.b.resize(p.n);
  p.cap.resize(p.n);
  p.group = problem.group;
  p.total.resize(p.groups);
  p.plan.resize(p.groups);
  p.members.assign(p.groups, {});
  for (std::size_t g = 0; g < p.groups; ++g) {
    p.total[g] = problem.group_total[g] / p.cycle_unit;
    p.plan[g] = problem.group_plan[g] / p.cycle_unit;
  }
  for (std::size_t u = 0; u < p.n; ++u) {
    p.r[u] = problem.release[u] / p.time_unit;
    p.b[u] = problem.begin[u] / p.time_unit;
    p.cap[u] = problem.cap[u] / p.time_unit;
    p.members[p.group[u]].push_back(u);
  }
  p.w_var.resize(p.n);
  p.c_var.resize(p.n);
  p.prev.assign(p.n, kNone);
  std::vector<int> delta(p.n + 1, 0);
  for (std::size_t g = 0; g < p.groups; ++g) {
    const std::vector<std::size_t>& group = p.members[g];
    for (std::size_t j = 0; j < group.size(); ++j) {
      p.w_var[group[j]] = group.size() > 1 ? 1 : 0;
      p.c_var[group[j]] = j + 1 < group.size() ? 1 : 0;
      p.prev[group[j]] = j > 0 ? group[j - 1] : kNone;
    }
    if (p.members[g].size() > 1) {
      ++delta[p.members[g].front()];
      --delta[p.members[g].back() + 1];
    }
  }
  // Each open group holds its running budget in the frontier; a node holds
  // at most e_{u-1}, s_u, e_u, its own running budget, z_u and s_{u+1}.
  int open = 0;
  int max_open = 0;
  for (std::size_t u = 0; u < p.n; ++u) {
    open += delta[u];
    max_open = std::max(max_open, open);
  }
  p.frontier_cap = static_cast<std::size_t>(max_open) + 8;
  return p;
}

/// The partial node's scenario cycles plan - C_prev move with the budgets
/// (a group's first node runs the whole plan when partial).
bool AvgVar(const Scaled& p, const Pattern& pat, std::size_t u) {
  return pat.node[u] == Case::kPartial && p.prev[u] != kNone;
}

double Avg(const Scaled& p, const Pattern& pat, const State& x,
           std::size_t u) {
  switch (pat.node[u]) {
    case Case::kFull:
      return x.w[u];
    case Case::kPartial:
      return p.w_var[u] ? x.a[u] : p.plan[p.group[u]];
    case Case::kEmpty:
      break;
  }
  return 0.0;
}

bool Executes(const Pattern& pat, std::size_t u) {
  return pat.node[u] != Case::kEmpty;
}

bool FreeExecuting(const Pattern& pat, std::size_t u) {
  return Executes(pat, u) && !pat.floored[u];
}

struct Term {
  std::int64_t id;
  double coeff;
};

struct Row {
  double value = 0.0;
  int count = 0;
  Term terms[6];
  Flip flip = Flip::kNone;
  bool curved = false;  // s_{u+1} - f_u with a partial free f_u
  void Add(std::int64_t id, double coeff) { terms[count++] = Term{id, coeff}; }
  /// Starts a new row (the terms past `count` are never read).
  void Reset() {
    value = 0.0;
    count = 0;
    flip = Flip::kNone;
    curved = false;
  }
};

/// Scenario finish f_u and its gradient (appended to `row` scaled by
/// `sign`).  Curved (non-linear) for a partial free node with variables.
double Finish(const Scaled& p, const Pattern& pat, const State& x,
              std::size_t u, double sign, Row* row) {
  const double s = x.s[u];
  const double e = x.e[u];
  const double w = x.w[u];
  const bool wv = p.w_var[u] != 0;
  const bool av = AvgVar(p, pat, u);
  if (pat.node[u] == Case::kEmpty) {
    if (row != nullptr) {
      row->Add(IdS(u), sign);
    }
    return s;
  }
  const double avg = Avg(p, pat, x, u);
  if (pat.floored[u]) {
    if (row != nullptr) {
      row->Add(IdS(u), sign);
      if (pat.node[u] == Case::kFull && wv) {
        row->Add(IdW(u), sign / p.smin);
      } else if (av) {
        row->Add(IdA(u), sign / p.smin);
      }
    }
    return s + avg / p.smin;
  }
  if (pat.node[u] == Case::kFull) {
    if (row != nullptr) {
      row->Add(IdE(u), sign);
    }
    return e;
  }
  const double d = e - s;
  if (row != nullptr) {
    row->Add(IdS(u), sign * (1.0 - avg / w));
    row->Add(IdE(u), sign * (avg / w));
    if (wv) {
      row->Add(IdW(u), -sign * avg * d / (w * w));
    }
    if (av) {
      row->Add(IdA(u), sign * d / w);
    }
    row->curved = wv || av;
  }
  return s + avg * d / w;
}

/// Emits node u's inequality rows (value excludes any shift): the start
/// rows of u and of u + 1, the worst-case chain, the end-time box and the
/// rows of u's piece.
template <class Fn>
void NodeRows(const Scaled& p, const Pattern& pat, const State& x,
              std::size_t u, Fn&& emit) {
  const std::size_t g = p.group[u];
  const bool wv = p.w_var[u] != 0;
  const double w = x.w[u];
  const double d = x.e[u] - x.s[u];
  Row row;
  // s_u >= release.
  row.Reset();
  row.value = x.s[u] - p.r[u];
  row.Add(IdS(u), 1.0);
  emit(row);
  // s_{u+1} >= f_u.
  if (u + 1 < p.n) {
    row.Reset();
    row.Add(IdS(u + 1), 1.0);
    row.value = x.s[u + 1] - Finish(p, pat, x, u, -1.0, &row);
    emit(row);
  }
  // Worst-case chain at max speed: e_u - e_{u-1} >= w_u, e_u - r_u >= w_u.
  row.Reset();
  row.value = x.e[u] - (u > 0 ? x.e[u - 1] : 0.0) - w;
  row.Add(IdE(u), 1.0);
  if (u > 0) {
    row.Add(IdE(u - 1), -1.0);
  }
  if (wv) {
    row.Add(IdW(u), -1.0);
  }
  emit(row);
  if (!(u == 0 && p.r[u] == 0.0)) {
    row.Reset();
    row.value = x.e[u] - p.r[u] - w;
    row.Add(IdE(u), 1.0);
    if (wv) {
      row.Add(IdW(u), -1.0);
    }
    emit(row);
  }
  row.Reset();
  row.value = x.e[u] - p.b[u];
  row.Add(IdE(u), 1.0);
  emit(row);
  row.Reset();
  row.value = p.cap[u] - x.e[u];
  row.Add(IdE(u), -1.0);
  emit(row);

  // The piece.
  const auto budget_row = [&](double value, double coeff_w, double coeff_d,
                              Flip flip) {
    Row& piece = row;
    piece.Reset();
    piece.value = value;
    if (wv && coeff_w != 0.0) {
      piece.Add(IdW(u), coeff_w);
    }
    if (coeff_d != 0.0) {
      piece.Add(IdE(u), coeff_d);
      piece.Add(IdS(u), -coeff_d);
    }
    piece.flip = flip;
    emit(piece);
  };
  if (!Executes(pat, u)) {
    // The max-speed row holds at every greedy start (s_u <= e_{u-1} or
    // r_u, both at most e_u - w_u); an empty node needs it to bound s_u.
    budget_row(d - w, -1.0, 1.0, Flip::kNone);
    if (wv) {
      budget_row(w, 1.0, 0.0, Flip::kNone);
    }
    return;
  }
  if (pat.floored[u]) {
    budget_row(p.smin * d - w, -1.0, p.smin, Flip::kToFree);
    if (pat.node[u] == Case::kFull && wv) {
      budget_row(w, 1.0, 0.0, Flip::kNone);
    }
  } else {
    budget_row(d - w, -1.0, 1.0, Flip::kNone);
    budget_row(w - p.smin * d, 1.0, -p.smin, Flip::kToFloored);
  }
  if (pat.node[u] == Case::kPartial && wv) {
    const bool av = AvgVar(p, pat, u);
    if (av) {
      row.Reset();
      row.value = x.a[u];
      row.Add(IdA(u), 1.0);
      row.flip = Flip::kToPrevious;
      emit(row);
    }
    row.Reset();
    row.value = w - x.a[u];
    row.Add(IdW(u), 1.0);
    if (av) {
      row.Add(IdA(u), -1.0);
    }
    row.flip = u == p.members[g].back() ? Flip::kNone : Flip::kToNext;
    emit(row);
  }
}

/// Node u's energy (solver units) or +inf outside its domain.
double NodeEnergy(const Scaled& p, const Pattern& pat, const State& x,
                  std::size_t u) {
  if (!Executes(pat, u)) {
    return 0.0;
  }
  const double avg = Avg(p, pat, x, u);
  if (pat.floored[u]) {
    return p.smin * p.smin * avg;
  }
  const double d = x.e[u] - x.s[u];
  if (!(d > 0.0)) {
    return kInf;
  }
  const double q = x.w[u] / d;
  return avg * q * q;
}

double Objective(const Scaled& p, const Pattern& pat, const State& x) {
  double total = 0.0;
  for (std::size_t u = 0; u < p.n; ++u) {
    total += NodeEnergy(p, pat, x, u);
  }
  return total;
}

/// t * objective - sum of logarithms of the shifted rows, +inf outside the
/// domain.  `shift` is indexed by row in emission order.
double Barrier(const Scaled& p, const Pattern& pat, const State& x, double t,
               const std::vector<double>& shift) {
  double obj = 0.0;
  double logs = 0.0;
  std::size_t index = 0;
  bool inside = true;
  for (std::size_t u = 0; u < p.n && inside; ++u) {
    obj += NodeEnergy(p, pat, x, u);
    // One logarithm per node: a product of at most nine slacks in (0, ~2]
    // stays far inside double range.
    double product = 1.0;
    NodeRows(p, pat, x, u, [&](const Row& row) {
      const double c = row.value + shift[index++];
      inside = inside && c > 0.0;
      product *= c;
    });
    if (inside) {
      logs += std::log(product);
    }
  }
  return inside && obj < kInf ? t * obj - logs : kInf;
}

std::size_t RowCount(const Scaled& p, const Pattern& pat, const State& x) {
  std::size_t count = 0;
  for (std::size_t u = 0; u < p.n; ++u) {
    NodeRows(p, pat, x, u, [&count](const Row&) { ++count; });
  }
  return count;
}

/// One Newton system of the barrier problem at x: fills the step by
/// variable id (ws.values), and the gradient (ws.grad) and step (ws.step)
/// over the primitives s, e, w, a of every node (ids 5u + 0..3).  Where the
/// non-convex blocks leave the system indefinite, the modified
/// factorisation (opt/frontal.h) turns it into a descent step.  False on a
/// non-finite pivot.
bool NewtonSystem(const Scaled& p, const Pattern& pat, const State& x,
                  const std::vector<double>& shift, double t,
                  ReplayNewtonWorkspace& ws) {
  const std::size_t n = p.n;
  Frontier fr(ws.frontal, p.frontier_cap, /*modify=*/true);
  ws.grad.assign(5 * n, 0.0);
  double* grad = ws.grad.data();

  // A primitive as a combination of variables: s and e are themselves,
  // w_u = C_u - C_prev and a_u = plan - C_prev.
  struct Lin {
    int count = 0;
    std::size_t slot[2];
    double coeff[2];
  };
  const auto expand_fresh = [&](std::int64_t id) {
    Lin lin;
    const std::size_t u = static_cast<std::size_t>(id) / 5;
    const std::int64_t kind = id % 5;
    const auto push = [&lin, &fr](std::int64_t var, double coeff) {
      lin.slot[lin.count] = fr.Slot(var);
      lin.coeff[lin.count++] = coeff;
    };
    if (kind < 2) {
      push(id, 1.0);
    } else if (kind == 2) {
      if (p.c_var[u]) {
        push(IdC(u), 1.0);
      }
      if (p.prev[u] != kNone) {
        push(IdC(p.prev[u]), -1.0);
      }
    } else if (AvgVar(p, pat, u)) {
      push(IdC(p.prev[u]), -1.0);
    }
    return lin;
  };
  // Each node's rows touch the primitives of nodes u - 1, u and u + 1 only;
  // their expansions are looked up once per node.  Slots stay valid until
  // the node's eliminations.
  std::int64_t cache_id[16];
  Lin cache_lin[16];
  int cache_size = 0;
  const auto expand = [&](std::int64_t id) {
    for (int i = 0; i < cache_size; ++i) {
      if (cache_id[i] == id) {
        return cache_lin[i];
      }
    }
    const Lin lin = expand_fresh(id);
    if (cache_size < 16) {
      cache_id[cache_size] = id;
      cache_lin[cache_size++] = lin;
    }
    return lin;
  };
  const auto add_grad = [&](std::int64_t id, double value) {
    grad[id] += value;
    const Lin lin = expand(id);
    for (int i = 0; i < lin.count; ++i) {
      fr.AddRhs(lin.slot[i], -value * lin.coeff[i]);
    }
  };
  // Adds value * (e_i e_j^T + e_j e_i^T) (value * e_i e_i^T when i == j)
  // over primitives, mapped onto the variables.
  const auto add_hess = [&](std::int64_t i, std::int64_t j, double value) {
    if (value == 0.0) {
      return;
    }
    const Lin li = expand(i);
    const Lin lj = expand(j);
    for (int a = 0; a < li.count; ++a) {
      for (int b = 0; b < lj.count; ++b) {
        if (i == j && b > a) {
          continue;
        }
        const double v = value * li.coeff[a] * lj.coeff[b];
        fr.Add(li.slot[a], lj.slot[b],
               i != j && li.slot[a] == lj.slot[b] ? 2.0 * v : v);
      }
    }
  };

  ws.row_slack.clear();
  ws.row_begin.assign(1, 0);
  ws.row_id.clear();
  ws.row_coeff.clear();
  std::size_t index = 0;
  for (std::size_t u = 0; u < n; ++u) {
    cache_size = 0;
    const bool wv = p.w_var[u] != 0;
    const bool av = AvgVar(p, pat, u);
    const std::int64_t prim[4] = {IdS(u), IdE(u), IdW(u), IdA(u)};
    const bool prim_on[4] = {true, true, wv, av};

    // Objective.
    double block[4][4] = {};
    const double d = x.e[u] - x.s[u];
    const double w = x.w[u];
    bool lifted = false;
    if (Executes(pat, u)) {
      const double avg = Avg(p, pat, x, u);
      if (pat.floored[u]) {
        if (pat.node[u] == Case::kFull && wv) {
          add_grad(IdW(u), t * p.smin * p.smin);
        } else if (av) {
          add_grad(IdA(u), t * p.smin * p.smin);
        }
      } else if (pat.node[u] == Case::kFull) {
        // t w^3 / d^2: its Hessian is the rank-one kappa v v^T, v = (s: w,
        // e: -w, w: d), kappa = 6 t w / d^4, entered through the lifting
        // variable z_u with pivot -1/kappa (as in opt/chain_ipm).
        const double q = w / d;
        const double obj_d = -2.0 * t * q * q * q;
        add_grad(IdS(u), -obj_d);
        add_grad(IdE(u), obj_d);
        if (wv) {
          add_grad(IdW(u), 3.0 * t * q * q);
        }
        const std::size_t kz = fr.Slot(IdZ(u));
        const double v[3] = {w, -w, d};
        for (int i = 0; i < (wv ? 3 : 2); ++i) {
          const Lin lin = expand(prim[i]);
          for (int a = 0; a < lin.count; ++a) {
            fr.Add(kz, lin.slot[a], v[i] * lin.coeff[a]);
          }
        }
        fr.Add(kz, kz, -d * d * d / (6.0 * t * q));
        lifted = true;
      } else {
        // t avg w^2 / d^2 over (s, e, w, avg), d = e - s.
        const double w2 = w * w;
        const double d2 = d * d;
        const double d3 = d2 * d;
        add_grad(IdS(u), t * 2.0 * avg * w2 / d3);
        add_grad(IdE(u), -t * 2.0 * avg * w2 / d3);
        if (wv) {
          add_grad(IdW(u), t * 2.0 * avg * w / d2);
        }
        if (av) {
          add_grad(IdA(u), t * w2 / d2);
        }
        const double hdd = t * 6.0 * avg * w2 / (d2 * d2);
        const double hwd = -t * 4.0 * avg * w / d3;
        const double had = -t * 2.0 * w2 / d3;
        block[0][0] += hdd;
        block[1][0] -= hdd;
        block[1][1] += hdd;
        block[2][0] -= hwd;
        block[2][1] += hwd;
        block[2][2] += t * 2.0 * avg / d2;
        block[3][0] -= had;
        block[3][1] += had;
        block[3][2] += t * 2.0 * w / d2;
      }
    }

    // Rows: -log(c) adds -a / c to the gradient and a a^T / c^2 to the
    // Hessian; the curved start row adds its own curvature over c.
    NodeRows(p, pat, x, u, [&](const Row& row) {
      const double c = row.value + shift[index++];
      ws.row_slack.push_back(c);
      for (int i = 0; i < row.count; ++i) {
        ws.row_id.push_back(row.terms[i].id);
        ws.row_coeff.push_back(row.terms[i].coeff);
      }
      ws.row_begin.push_back(ws.row_id.size());
      const double inv = 1.0 / c;
      // The row's gradient a / c over the variables (terms merged by slot);
      // it adds -a / c to the gradient and (a / c)(a / c)^T to the Hessian.
      std::size_t slot[8];
      double coeff[8];
      int count = 0;
      for (int i = 0; i < row.count; ++i) {
        const double a = row.terms[i].coeff * inv;
        grad[row.terms[i].id] -= a;
        const Lin lin = expand(row.terms[i].id);
        for (int k = 0; k < lin.count; ++k) {
          int m = 0;
          while (m < count && slot[m] != lin.slot[k]) {
            ++m;
          }
          if (m == count) {
            slot[count] = lin.slot[k];
            coeff[count++] = 0.0;
          }
          coeff[m] += a * lin.coeff[k];
        }
      }
      for (int i = 0; i < count; ++i) {
        fr.AddRhs(slot[i], coeff[i]);
        for (int j = 0; j <= i; ++j) {
          fr.Add(slot[i], slot[j], coeff[i] * coeff[j]);
        }
      }
      if (row.curved) {
        // g = s_{u+1} - f_u with f_u = s + avg d / w: -log g adds
        // +Hess(avg d / w) / g over (avg, w, d).
        const double avg = Avg(p, pat, x, u);
        const double hwd = -avg / (w * w) * inv;
        const double had = inv / w;
        block[2][0] -= hwd;
        block[2][1] += hwd;
        block[2][2] += 2.0 * avg * d / (w * w * w) * inv;
        block[3][0] -= had;
        block[3][1] += had;
        block[3][2] += -d / (w * w) * inv;
      }
    });
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j <= i; ++j) {
        if (prim_on[i] && prim_on[j]) {
          add_hess(prim[i], prim[j], block[i][j]);
        }
      }
    }

    // Eliminate what no later node touches: e_{u-1}, this node's start, the
    // previous running budget of its group and its lifting variable.
    if (u > 0 && !fr.EliminateId(IdE(u - 1), false)) {
      return false;
    }
    if (!fr.EliminateId(IdS(u), false) ||
        (p.prev[u] != kNone && !fr.EliminateId(IdC(p.prev[u]), false)) ||
        (lifted && !fr.EliminateId(IdZ(u), true))) {
      return false;
    }
    if (u + 1 == n && !fr.EliminateId(IdE(u), false)) {
      return false;
    }
  }

  ws.values.assign(5 * n, 0.0);
  fr.BackSubstitute(ws.values);
  const double* val = ws.values.data();
  ws.step.assign(5 * n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    const double before = p.prev[u] != kNone ? val[IdC(p.prev[u])] : 0.0;
    ws.step[IdS(u)] = val[IdS(u)];
    ws.step[IdE(u)] = val[IdE(u)];
    if (p.w_var[u]) {
      ws.step[IdW(u)] = (p.c_var[u] ? val[IdC(u)] : 0.0) - before;
    }
    if (AvgVar(p, pat, u)) {
      ws.step[IdA(u)] = -before;
    }
  }
  return true;
}

double Slope(const Scaled& p, const ReplayNewtonWorkspace& ws) {
  double slope = 0.0;
  for (std::size_t i = 0; i < 5 * p.n; ++i) {
    slope += ws.grad[i] * ws.step[i];
  }
  return slope;
}

void Move(const Scaled& p, const Pattern& pat, const State& x, double alpha,
          const std::vector<double>& values, State& out) {
  for (std::size_t u = 0; u < p.n; ++u) {
    out.s[u] = x.s[u] + alpha * values[IdS(u)];
    out.e[u] = x.e[u] + alpha * values[IdE(u)];
    out.c[u] = p.c_var[u] ? x.c[u] + alpha * values[IdC(u)] : x.c[u];
  }
  Derive(p, pat, out);
}

/// Largest step along the Newton direction that keeps every row's
/// linearisation (the rows NewtonSystem last assembled, kept in the
/// workspace) and every free window positive.
double MaxStep(const Scaled& p, const Pattern& pat, const State& x,
               const ReplayNewtonWorkspace& ws) {
  const std::vector<double>& step = ws.step;
  double limit = kInf;
  const auto bound = [&limit](double c, double dc) {
    if (dc < 0.0) {
      limit = std::min(limit, -c / dc);
    }
  };
  for (std::size_t r = 0; r < ws.row_slack.size(); ++r) {
    double dc = 0.0;
    for (std::size_t k = ws.row_begin[r]; k < ws.row_begin[r + 1]; ++k) {
      dc += ws.row_coeff[k] * step[ws.row_id[k]];
    }
    bound(ws.row_slack[r], dc);
  }
  for (std::size_t u = 0; u < p.n; ++u) {
    if (FreeExecuting(pat, u)) {
      bound(x.e[u] - x.s[u], step[IdE(u)] - step[IdS(u)]);
    }
  }
  return limit;
}

/// The natural pattern of (e, w) with its greedy starts: Fig. 5 cases by
/// the group's plan, the floor by the greedy speed, and starts
/// max(release, previous finish) + gap.  False when a node sits on a
/// pattern boundary (no strictly interior classification).
bool NaturalStart(const Scaled& p, double gap, State& x, Pattern& pat) {
  pat.node.assign(p.n, Case::kEmpty);
  pat.floored.assign(p.n, 0);
  pat.partial.assign(p.groups, kNone);
  x.s.assign(p.n, 0.0);
  x.a.assign(p.n, 0.0);
  std::vector<double> cum(p.groups, 0.0);
  double finish = 0.0;
  for (std::size_t u = 0; u < p.n; ++u) {
    const std::size_t g = p.group[u];
    const double left = p.plan[g] - cum[g];
    cum[g] += x.w[u];
    if (!p.w_var[u]) {
      pat.node[u] = p.plan[g] >= p.total[g] ? Case::kFull
                    : p.plan[g] > 0.0       ? Case::kPartial
                                            : Case::kEmpty;
    } else if (p.plan[g] >= p.total[g]) {
      pat.node[u] = Case::kFull;
    } else if (p.plan[g] <= 0.0) {
      pat.node[u] = Case::kEmpty;
    } else if (left > x.w[u]) {
      pat.node[u] = Case::kFull;
    } else if (left > 0.0 && left < x.w[u]) {
      pat.node[u] = Case::kPartial;
      x.a[u] = left;
    } else if (left < 0.0) {
      pat.node[u] = Case::kEmpty;
    } else {
      return false;  // on a case boundary
    }
    if (pat.node[u] == Case::kPartial) {
      pat.partial[g] = u;
    }
    x.s[u] = std::max(p.r[u], finish) + gap;
    if (Executes(pat, u)) {
      const double speed = x.w[u] / (x.e[u] - x.s[u]);
      if (!(x.e[u] > x.s[u]) || speed == p.smin) {
        return false;
      }
      pat.floored[u] = speed < p.smin ? 1 : 0;
    }
    finish = Finish(p, pat, x, u, 1.0, nullptr);
  }
  // Every multi-node group with a plan strictly inside (0, total) has its
  // partial node; a group whose plan meets a budget boundary exactly does
  // not, and cannot start strictly inside a piece.
  for (std::size_t g = 0; g < p.groups; ++g) {
    if (p.members[g].size() > 1 && p.plan[g] > 0.0 &&
        p.plan[g] < p.total[g] && pat.partial[g] == kNone) {
      return false;
    }
  }
  return true;
}

bool StrictlyInside(const Scaled& p, const Pattern& pat, const State& x) {
  bool inside = true;
  for (std::size_t u = 0; u < p.n && inside; ++u) {
    NodeRows(p, pat, x, u, [&inside](const Row& row) {
      inside = inside && row.value > 0.0;
    });
    inside = inside && NodeEnergy(p, pat, x, u) < kInf;
  }
  return inside;
}

/// An interior point of the worst-case rows: an as-soon-as-possible sweep
/// running every node at max_speed / rho with `gap` of idle time around
/// each window, early nodes of a group taking at most 1 - `spare` of their
/// room (as opt/chain_ipm's start).  End-times are the sweep's finishes.
bool WorstCaseInterior(const Scaled& p, double rho, double gap, double spare,
                       std::vector<double>& e, std::vector<double>& w) {
  e.assign(p.n, 0.0);
  w.assign(p.n, 0.0);
  std::vector<double> pending(p.total);
  std::vector<std::size_t> left(p.groups);
  for (std::size_t g = 0; g < p.groups; ++g) {
    left[g] = p.members[g].size();
  }
  double prev_end = 0.0;
  for (std::size_t u = 0; u < p.n; ++u) {
    const std::size_t g = p.group[u];
    const double start = std::max(p.r[u], prev_end) + gap;
    const double room = p.cap[u] - gap - start;
    if (!(room > 0.0)) {
      return false;
    }
    --left[g];
    if (!p.w_var[u] || left[g] == 0) {
      w[u] = pending[g];
    } else {
      const double share =
          1e-3 * p.total[g] / static_cast<double>(p.members[g].size());
      const double capacity = (1.0 - spare) * room / rho;
      const double rest = pending[g] - static_cast<double>(left[g]) * share;
      w[u] = std::max(share, std::min(rest, capacity));
    }
    const double d = w[u] * rho;
    if (!(w[u] > 0.0) || d > room) {
      return false;
    }
    e[u] = std::max(start + d, p.b[u] + gap);
    if (!(e[u] < p.cap[u])) {
      return false;
    }
    pending[g] -= w[u];
    prev_end = e[u];
  }
  return true;
}

/// Solver state of one run over patterns.
struct Run {
  const Scaled& p;
  ReplayNewtonWorkspace& ws;
  ReplayNewtonReport& report;
  Pattern pat;
  State x, trial;
  std::vector<double> shift;
  double t = 1.0;
  double kkt = kInf;
  ReplayStatus failure = ReplayStatus::kNoConvergence;

  /// Follows the central path from (x, t) to the KKT tolerance.  True when
  /// it converged with every shift back at zero.
  bool Centre(double rows) {
    double phi = Barrier(p, pat, x, t, shift);
    ++report.evaluations;
    if (phi == kInf) {
      return false;
    }
    std::size_t stuck_rounds = 0;
    while (report.newton_steps < kMaxNewton) {
      ++report.rounds;
      const std::size_t round_start = report.newton_steps;
      bool centred = false;
      double decrement = kInf;
      while (true) {
        ++report.newton_steps;
        if (!NewtonSystem(p, pat, x, shift, t, ws)) {
          failure = ReplayStatus::kBreakdown;
          return false;
        }
        const double slope = Slope(p, ws);
        decrement = std::max(0.0, -slope);
        if (!(slope < 0.0) || -slope <= kNearCentral) {
          centred = true;
          break;
        }
        if (report.newton_steps >= kMaxNewton ||
            report.newton_steps - round_start >= kMaxRoundSteps) {
          break;
        }
        double alpha =
            std::min(1.0, 0.99 * MaxStep(p, pat, x, ws));
        bool accepted = false;
        for (int bt = 0; bt < 60 && alpha > 0.0; ++bt) {
          Move(p, pat, x, alpha, ws.values, trial);
          const double value = Barrier(p, pat, trial, t, shift);
          ++report.evaluations;
          if (value < kInf &&
              (-slope < kPureNewton || value <= phi + 0.01 * alpha * slope)) {
            std::swap(x, trial);
            phi = value;
            accepted = true;
            break;
          }
          alpha *= 0.5;
        }
        if (!accepted || alpha < 1e-6) {
          // No progress at working precision: centred as far as the
          // arithmetic resolves (the residual below says how far).
          centred = !accepted || -slope <= 1e-4 * std::fabs(phi);
          break;
        }
      }
      const double obj = Objective(p, pat, x);
      // Relax the shifts of rows a pattern change started outside their
      // piece, keeping a hundredth of each row's shifted slack.
      bool shifted = false;
      std::size_t index = 0;
      const bool any_shift =
          std::any_of(shift.begin(), shift.end(),
                      [](double sigma) { return sigma > 0.0; });
      for (std::size_t u = 0; u < p.n && any_shift; ++u) {
        NodeRows(p, pat, x, u, [&](const Row& row) {
          double& sigma = shift[index++];
          if (sigma > 0.0) {
            sigma = std::max(0.0, sigma - kShiftDecay * (row.value + sigma));
            shifted = shifted || sigma > 0.0;
          }
        });
      }
      kkt = obj > 0.0 ? std::max(rows / (t * obj), decrement / (t * obj))
                      : 0.0;
      const double t_final = rows / (0.5 * kReplayKktTol * obj);
      if (!shifted && kkt <= kReplayKktTol) {
        return true;
      }
      // Shifts relax at a fixed parameter (each round then gives back most
      // of a row's shifted slack); one still open after a few rounds means
      // the piece's optimum lies across its row.
      if (shifted) {
        if (++stuck_rounds > kShiftedRounds) {
          return false;
        }
      } else if (centred) {
        t = std::min(t * kBarrierGrowth, std::max(t, t_final));
      }
      phi = Barrier(p, pat, x, t, shift);
      ++report.evaluations;
      if (phi == kInf) {
        return false;
      }
    }
    return false;
  }

  /// Pattern rows left active at the converged point, with the move each
  /// asks for (one per node at most).
  std::vector<std::pair<std::size_t, Flip>> ActiveFlips() const {
    std::vector<std::pair<std::size_t, Flip>> flips;
    std::size_t index = 0;
    for (std::size_t u = 0; u < p.n; ++u) {
      const double ref = p.total[p.group[u]];
      NodeRows(p, pat, x, u, [&](const Row& row) {
        const double c = row.value + shift[index++];
        if (row.flip != Flip::kNone && c < kActiveSlack * ref &&
            (flips.empty() || flips.back().first != u)) {
          flips.emplace_back(u, row.flip);
        }
      });
    }
    return flips;
  }

  /// Moves the flipped nodes to their neighbouring pieces at the current
  /// point.  False when no flip applies.
  bool ApplyFlips(const std::vector<std::pair<std::size_t, Flip>>& flips) {
    bool changed = false;
    for (const auto& [u, flip] : flips) {
      const std::size_t g = p.group[u];
      const std::vector<std::size_t>& group = p.members[g];
      const std::size_t pos = static_cast<std::size_t>(
          std::find(group.begin(), group.end(), u) - group.begin());
      switch (flip) {
        case Flip::kToFloored:
        case Flip::kToFree:
          pat.floored[u] = flip == Flip::kToFloored ? 1 : 0;
          changed = true;
          break;
        case Flip::kToPrevious:
        case Flip::kToNext: {
          if (pat.partial[g] != u) {
            break;  // an earlier flip in this pass moved the group already
          }
          const std::size_t v =
              flip == Flip::kToPrevious ? group[pos - 1] : group[pos + 1];
          pat.node[u] = flip == Flip::kToPrevious ? Case::kEmpty : Case::kFull;
          pat.node[v] = Case::kPartial;
          pat.partial[g] = v;
          if (flip == Flip::kToNext) {
            const double d = x.e[v] - x.s[v];
            pat.floored[v] = d > 0.0 && x.w[v] / d < p.smin ? 1 : 0;
          }
          changed = true;
          break;
        }
        case Flip::kNone:
          break;
      }
    }
    if (!changed) {
      return false;
    }
    Derive(p, pat, x);
    // Start every row the change left at or below the margin shifted to it.
    shift.clear();
    for (std::size_t u = 0; u < p.n; ++u) {
      NodeRows(p, pat, x, u, [&](const Row& row) {
        shift.push_back(std::max(0.0, kShiftMargin - row.value));
      });
    }
    return true;
  }
};

}  // namespace

ReplayNewtonReport SolveReplay(const ReplayProblem& problem,
                               const std::vector<double>& warm_end,
                               const std::vector<double>& warm_budget,
                               ReplaySolution& solution,
                               ReplayNewtonWorkspace* workspace) {
  const std::size_t n = problem.release.size();
  ACS_REQUIRE(problem.begin.size() == n && problem.cap.size() == n &&
                  problem.group.size() == n,
              "replay problem: per-node arrays differ in length");
  ACS_REQUIRE(problem.group_plan.size() == problem.group_total.size(),
              "replay problem: per-group arrays differ in length");
  ACS_REQUIRE(problem.max_speed > problem.min_speed && problem.min_speed > 0.0,
              "replay problem: need 0 < min_speed < max_speed");
  ACS_REQUIRE(problem.energy_coeff > 0.0,
              "replay problem: energy coefficient must be positive");
  ACS_REQUIRE(warm_end.empty() ||
                  (warm_end.size() == n && warm_budget.size() == n),
              "replay problem: warm start size mismatch");
  for (std::size_t u = 0; u < n; ++u) {
    ACS_REQUIRE(problem.group[u] < problem.group_total.size(),
                "replay problem: group index out of range");
  }
  for (std::size_t g = 0; g < problem.group_total.size(); ++g) {
    ACS_REQUIRE(problem.group_total[g] > 0.0 && problem.group_plan[g] >= 0.0 &&
                    problem.group_plan[g] <= problem.group_total[g],
                "replay problem: need 0 <= plan <= total, total > 0");
  }

  ReplayNewtonWorkspace local;
  ReplayNewtonWorkspace& ws = workspace != nullptr ? *workspace : local;
  ReplayNewtonReport report;
  solution = ReplaySolution{};
  if (n == 0) {
    return report;
  }
  const Scaled p = ScaleProblem(problem);

  // A strictly feasible start near the warm start: the warm (e, w) mixed
  // with a little of a worst-case interior point, its natural pattern and
  // greedy starts a hair late.
  std::vector<double> e1;
  std::vector<double> w1;
  double min_len = kInf;
  for (std::size_t u = 0; u < n; ++u) {
    min_len = std::min(min_len, p.cap[u] - p.r[u]);
  }
  bool interior = false;
  for (double rho : {1.5, 1.2, 1.05, 1.01, 1.001}) {
    for (double spare : {0.5, 0.1}) {
      for (double theta : {1e-2, 1e-4, 1e-7}) {
        interior = min_len > 0.0 &&
                   WorstCaseInterior(p, rho, theta * min_len, spare, e1, w1);
        if (interior) {
          break;
        }
      }
      if (interior) {
        break;
      }
    }
    if (interior) {
      break;
    }
  }
  if (!interior) {
    report.status = ReplayStatus::kNoInterior;
    return report;
  }
  Run run{p, ws, report, {}, {}, {}, {}};
  bool started = false;
  const bool warm = !warm_end.empty();
  for (double mix : {1e-3, 1e-2, 0.1, 0.5, 1.0}) {
    if (!warm && mix < 1.0) {
      continue;
    }
    for (double gap : {1e-9, 1e-6, 1e-4}) {
      State& x = run.x;
      x.e.resize(n);
      x.w.resize(n);
      x.c.resize(n);
      std::vector<double> running(p.groups, 0.0);
      for (std::size_t u = 0; u < n; ++u) {
        const double we = warm ? warm_end[u] / p.time_unit : e1[u];
        const double ww = warm ? warm_budget[u] / p.cycle_unit : w1[u];
        x.e[u] = (1.0 - mix) * we + mix * e1[u];
        x.w[u] = p.w_var[u] ? (1.0 - mix) * ww + mix * w1[u]
                            : p.total[p.group[u]];
        running[p.group[u]] += x.w[u];
        x.c[u] = running[p.group[u]];
      }
      started = NaturalStart(p, gap * min_len, x, run.pat);
      if (started) {
        Derive(p, run.pat, x);
        started = StrictlyInside(p, run.pat, x);
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
    report.status = ReplayStatus::kNoInterior;
    return report;
  }
  run.trial = run.x;

  const double start_obj = Objective(p, run.pat, run.x);
  const std::size_t rows = RowCount(p, run.pat, run.x);
  run.shift.assign(rows, 0.0);
  run.t = start_obj > 0.0 ? static_cast<double>(rows) / start_obj : 1.0;
  const double t_start = run.t;

  std::vector<Pattern> visited;
  State best;
  double best_obj = kInf;
  double best_kkt = kInf;
  bool failed = false;
  while (true) {
    visited.push_back(run.pat);
    ++report.patterns;
    const bool converged =
        start_obj > 0.0
            ? run.Centre(static_cast<double>(RowCount(p, run.pat, run.x)))
            : true;
    if (!converged) {
      failed = best_obj == kInf;
      break;
    }
    const double obj = Objective(p, run.pat, run.x);
    if (!(obj < best_obj)) {
      break;  // a pattern change that does not pay: keep the better point
    }
    best = run.x;
    best_obj = obj;
    best_kkt = start_obj > 0.0 ? run.kkt : 0.0;
    if (report.patterns >= kMaxPatterns) {
      break;
    }
    const auto flips = run.ActiveFlips();
    if (flips.empty() || !run.ApplyFlips(flips)) {
      break;
    }
    if (std::find(visited.begin(), visited.end(), run.pat) != visited.end()) {
      break;  // crossing back: the optimum sits on the boundary (a kink)
    }
    run.t = t_start;
  }
  if (failed) {
    report.status = run.failure;
    report.kkt_residual = run.kkt;
    return report;
  }
  report.kkt_residual = best_kkt;
  const double energy_unit = problem.energy_coeff * p.cycle_unit *
                             p.cycle_unit * p.cycle_unit /
                             (p.time_unit * p.time_unit);
  report.objective = best_obj * energy_unit;
  solution.start.resize(n);
  solution.end.resize(n);
  solution.budget.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    solution.start[u] = best.s[u] * p.time_unit;
    solution.end[u] = best.e[u] * p.time_unit;
    solution.budget[u] = p.w_var[u] ? best.w[u] * p.cycle_unit
                                    : problem.group_total[p.group[u]];
  }
  return report;
}

}  // namespace dvs::opt
