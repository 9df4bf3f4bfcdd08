#include "opt/replay_newton.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace dvs::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
// Patterns a solve may visit (each visit is a converged sub-solve).
constexpr std::size_t kMaxPatterns = 24;
// A pattern row whose value is below this fraction of its group's budget is
// active at a converged point.
constexpr double kActiveSlack = 1e-7;
// A step covers at most this fraction of the distance to the boundary of
// any slack or multiplier, and of a free node's speed band.
constexpr double kToBoundary = 0.995;
// The smallest slack a relaxed row starts with (solver units): a row below
// it starts violated by the difference, which its slack carries until the
// iteration closes it.
constexpr double kStartSlack = 1e-3;
// A pattern row is shifted just enough to hold with this slack where the
// start or a pattern change leaves it at or below zero.
constexpr double kBoundaryShift = 1e-12;
// The barrier subproblem at mu is solved when the Newton decrement is at
// most mu and the complementarity and row violation are at most the gap;
// the relative gap then falls to min(kMuFactor * gap, gap^kMuPower).
constexpr double kMuFactor = 0.05;
constexpr double kMuPower = 1.5;
// Below this summed row violation (solver units) a step must lower the
// barrier objective by the Armijo rule.
constexpr double kNearlyFeasible = 1e-6;
// A free node's speed w / d stays within [kSpeedBand * floor, max speed /
// kSpeedBand] once it is there: its energy and finish degenerate as the
// budget and the window vanish together.
constexpr double kSpeedBand = 0.5;
// Multipliers stay within this factor of mu / slack.
constexpr double kDualSafeguard = 1e10;

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
  bool strict = false;  // a pattern boundary: never relaxed by a slack
  void Add(std::int64_t id, double coeff) { terms[count++] = Term{id, coeff}; }
  /// Starts a new row (the terms past `count` are never read).
  void Reset() {
    value = 0.0;
    count = 0;
    flip = Flip::kNone;
    curved = false;
    strict = false;
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

/// Sets `row` to the start row s_{u+1} >= f_u of node u < n - 1: curved
/// (non-linear) for a partial free node with variables.
void StartRow(const Scaled& p, const Pattern& pat, const State& x,
              std::size_t u, Row& row) {
  row.Reset();
  row.Add(IdS(u + 1), 1.0);
  row.value = x.s[u + 1] - Finish(p, pat, x, u, -1.0, &row);
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
    StartRow(p, pat, x, u, row);
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
    piece.strict = flip != Flip::kNone;
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
      row.strict = true;
      emit(row);
    }
    row.Reset();
    row.value = w - x.a[u];
    row.Add(IdW(u), 1.0);
    if (av) {
      row.Add(IdA(u), -1.0);
    }
    row.flip = u == p.members[g].back() ? Flip::kNone : Flip::kToNext;
    row.strict = true;
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

/// Maps a vector over the primitives s, e, w, a of every node (ids 5u +
/// 0..3) onto the variables s, e and C (ids 5u + 0..2): the transpose of
/// the primitives' expansion w_u = C_u - C_prev, a_u = plan - C_prev.
void ToVariables(const Scaled& p, const Pattern& pat,
                 const std::vector<double>& prim, std::vector<double>& var) {
  var.assign(5 * p.n, 0.0);
  for (std::size_t u = 0; u < p.n; ++u) {
    var[IdS(u)] += prim[IdS(u)];
    var[IdE(u)] += prim[IdE(u)];
    if (p.w_var[u]) {
      if (p.c_var[u]) {
        var[IdC(u)] += prim[IdW(u)];
      }
      if (p.prev[u] != kNone) {
        var[IdC(p.prev[u])] -= prim[IdW(u)];
      }
    }
    if (AvgVar(p, pat, u)) {
      var[IdC(p.prev[u])] -= prim[IdA(u)];
    }
  }
}

/// A primitive as a combination of variables, entering them into the plan's
/// frontier: s and e are themselves, w_u = C_u - C_prev and a_u = plan -
/// C_prev.
ReplayLin Expand(const Scaled& p, const Pattern& pat, FrontalPlan& fp,
                 std::int64_t id) {
  ReplayLin lin;
  const std::size_t u = static_cast<std::size_t>(id) / 5;
  const std::int64_t kind = id % 5;
  const auto push = [&lin, &fp](std::int64_t var, double coeff) {
    lin.slot[lin.count] = fp.Slot(var);
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
}

/// The symbolic pass of a pattern (ws.plan): walks NewtonSystem's assembly
/// order on variable ids, entering variables into the frontier as the
/// assembly first touches them, marking every entry it adds to and planning
/// each elimination; also records the rows' term ids and coefficients
/// (ws.row_id, ws.row_coeff) and each row's gradient over the variables.
/// The rows' structure does not depend on the point, nor do the
/// coefficients of a row that is not curved, so any x of the pattern
/// serves.
void BuildPlan(const Scaled& p, const Pattern& pat, const State& x,
               ReplayNewtonWorkspace& ws) {
  ReplayPlan& plan = ws.plan;
  FrontalPlan& fp = plan.frontal;
  fp.Reset(p.frontier_cap);
  plan.node.assign(p.n, ReplayNodePlan{});
  plan.slot_begin.assign(1, 0);
  plan.slot.clear();
  plan.part_begin.assign(1, 0);
  plan.part.clear();
  plan.coeff.clear();
  ws.row_begin.assign(1, 0);
  ws.row_id.clear();
  ws.row_coeff.clear();
  const auto touch = [&fp](const ReplayLin& a, const ReplayLin& b) {
    for (int i = 0; i < a.count; ++i) {
      for (int j = 0; j < b.count; ++j) {
        fp.Touch(a.slot[i], b.slot[j]);
      }
    }
  };
  for (std::size_t u = 0; u < p.n; ++u) {
    ReplayNodePlan& node = plan.node[u];
    const bool wv = p.w_var[u] != 0;
    const bool av = AvgVar(p, pat, u);
    const std::int64_t prim[4] = {IdS(u), IdE(u), IdW(u), IdA(u)};
    const bool prim_on[4] = {true, true, wv, av};
    // A full free node's rank-one w^3 / d^2 enters through z_u.
    const bool lifted = FreeExecuting(pat, u) && pat.node[u] == Case::kFull;
    if (lifted) {
      node.lift = fp.Slot(IdZ(u));
      for (int i = 0; i < (wv ? 3 : 2); ++i) {
        const ReplayLin lin = Expand(p, pat, fp, prim[i]);
        for (int a = 0; a < lin.count; ++a) {
          fp.Touch(node.lift, lin.slot[a]);
        }
      }
    }
    NodeRows(p, pat, x, u, [&](const Row& row) {
      if (row.curved) {
        node.curved_row = ws.row_begin.size() - 1;
      }
      const std::size_t first = plan.slot.size();
      for (int i = 0; i < row.count; ++i) {
        ws.row_id.push_back(row.terms[i].id);
        ws.row_coeff.push_back(row.terms[i].coeff);
        const ReplayLin lin = Expand(p, pat, fp, row.terms[i].id);
        for (int k = 0; k < lin.count; ++k) {
          std::size_t m = first;
          while (m < plan.slot.size() && plan.slot[m] != lin.slot[k]) {
            ++m;
          }
          if (m == plan.slot.size()) {
            plan.slot.push_back(lin.slot[k]);
            plan.coeff.push_back(0.0);
          }
          plan.coeff[m] += row.terms[i].coeff * lin.coeff[k];
          plan.part.push_back(ReplayPart{static_cast<unsigned char>(i),
                                         static_cast<unsigned char>(m - first),
                                         lin.coeff[k]});
        }
      }
      ws.row_begin.push_back(ws.row_id.size());
      plan.slot_begin.push_back(plan.slot.size());
      plan.part_begin.push_back(plan.part.size());
      for (std::size_t i = first; i < plan.slot.size(); ++i) {
        for (std::size_t j = first; j <= i; ++j) {
          fp.Touch(plan.slot[i], plan.slot[j]);
        }
      }
    });
    node.rows_end = plan.slot_begin.size() - 1;
    for (int i = 0; i < 4; ++i) {
      if (prim_on[i]) {
        node.prim[i] = Expand(p, pat, fp, prim[i]);
      }
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j <= i; ++j) {
        if (prim_on[i] && prim_on[j]) {
          touch(node.prim[i], node.prim[j]);
        }
      }
    }
    // Eliminate what no later node touches: e_{u-1}, this node's start, the
    // previous running budget of its group and its lifting variable.
    if (u > 0) {
      fp.Eliminate(IdE(u - 1), false);
    }
    fp.Eliminate(IdS(u), false);
    if (p.prev[u] != kNone) {
      fp.Eliminate(IdC(p.prev[u]), false);
    }
    if (lifted) {
      fp.Eliminate(IdZ(u), true);
    }
    if (u + 1 == p.n) {
      fp.Eliminate(IdE(u), false);
    }
    node.steps_end = fp.steps().size();
  }
  ws.row_value.resize(plan.slot_begin.size() - 1);
}

/// Assembles and factors the primal-dual Newton matrix at x
///
///   Hess f + sum_i dual_i Hess(-g_i) + sum_i (dual_i / slack_i) a_i a_i^T
///
/// over the variables along the pattern's plan (ws.plan), and records the
/// curved rows' term coefficients (ws.row_coeff) and the objective's
/// gradient over the primitives (ws.grad); the rows' values at x
/// (ws.row_value) come from the pattern's start or the accepted trial's
/// merit.  Where the non-convex blocks leave the matrix indefinite, the
/// modified factorisation (opt/frontal.h) keeps every direction a descent
/// one.  False on a non-finite pivot.
bool NewtonSystem(const Scaled& p, const Pattern& pat, const State& x,
                  Frontier& fr, ReplayNewtonWorkspace& ws) {
  const std::size_t n = p.n;
  const ReplayPlan& plan = ws.plan;
  ws.grad.assign(5 * n, 0.0);
  double* grad = ws.grad.data();

  // Adds value * (e_i e_j^T + e_j e_i^T) (value * e_i e_i^T when i == j)
  // over primitives i and j, mapped onto the variables.
  const auto add_hess = [&fr](const ReplayLin& li, const ReplayLin& lj,
                              bool same, double value) {
    if (value == 0.0) {
      return;
    }
    for (int a = 0; a < li.count; ++a) {
      for (int b = 0; b < lj.count; ++b) {
        if (same && b > a) {
          continue;
        }
        const double v = value * li.coeff[a] * lj.coeff[b];
        fr.Add(li.slot[a], lj.slot[b],
               !same && li.slot[a] == lj.slot[b] ? 2.0 * v : v);
      }
    }
  };

  std::size_t index = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const ReplayNodePlan& node = plan.node[u];
    const bool wv = p.w_var[u] != 0;
    const bool av = AvgVar(p, pat, u);
    const bool prim_on[4] = {true, true, wv, av};

    // Objective.
    double block[4][4] = {};
    const double d = x.e[u] - x.s[u];
    const double w = x.w[u];
    if (Executes(pat, u)) {
      const double avg = Avg(p, pat, x, u);
      if (pat.floored[u]) {
        if (pat.node[u] == Case::kFull && wv) {
          grad[IdW(u)] += p.smin * p.smin;
        } else if (av) {
          grad[IdA(u)] += p.smin * p.smin;
        }
      } else if (pat.node[u] == Case::kFull) {
        // w^3 / d^2: its Hessian is the rank-one kappa v v^T, v = (s: w,
        // e: -w, w: d), kappa = 6 w / d^4, entered through the lifting
        // variable z_u with pivot -1/kappa (as in opt/chain_ipm).
        const double q = w / d;
        const double obj_d = -2.0 * q * q * q;
        grad[IdS(u)] -= obj_d;
        grad[IdE(u)] += obj_d;
        if (wv) {
          grad[IdW(u)] += 3.0 * q * q;
        }
        const std::size_t kz = node.lift;
        const double v[3] = {w, -w, d};
        for (int i = 0; i < (wv ? 3 : 2); ++i) {
          const ReplayLin& lin = node.prim[i];
          for (int a = 0; a < lin.count; ++a) {
            fr.Add(kz, lin.slot[a], v[i] * lin.coeff[a]);
          }
        }
        fr.Add(kz, kz, -d * d * d / (6.0 * q));
      } else {
        // avg w^2 / d^2 over (s, e, w, avg), d = e - s.
        const double w2 = w * w;
        const double d2 = d * d;
        const double d3 = d2 * d;
        grad[IdS(u)] += 2.0 * avg * w2 / d3;
        grad[IdE(u)] -= 2.0 * avg * w2 / d3;
        if (wv) {
          grad[IdW(u)] += 2.0 * avg * w / d2;
        }
        if (av) {
          grad[IdA(u)] += w2 / d2;
        }
        const double hdd = 6.0 * avg * w2 / (d2 * d2);
        const double hwd = -4.0 * avg * w / d3;
        const double had = -2.0 * w2 / d3;
        block[0][0] += hdd;
        block[1][0] -= hdd;
        block[1][1] += hdd;
        block[2][0] -= hwd;
        block[2][1] += hwd;
        block[2][2] += 2.0 * avg / d2;
        block[3][0] -= had;
        block[3][1] += had;
        block[3][2] += 2.0 * w / d2;
      }
    }

    // Rows: row i adds (dual_i / slack_i) a_i a_i^T at the planned slots
    // with the plan's gradient; the curved start row g = s_{u+1} - f_u has
    // its gradient at x and adds dual_i Hess(-g) = dual_i Hess(avg d / w)
    // over (avg, w, d).
    for (; index < node.rows_end; ++index) {
      const double dual = ws.dual[index];
      const double weight = dual / ws.slack[index];
      const std::size_t* slot = plan.slot.data() + plan.slot_begin[index];
      const std::size_t count = plan.slot_begin[index + 1] -
                                plan.slot_begin[index];
      const double* coeff = plan.coeff.data() + plan.slot_begin[index];
      double merged[8];
      const bool curved = index == node.curved_row;
      if (curved) {
        Row row;
        StartRow(p, pat, x, u, row);
        for (int i = 0; i < row.count; ++i) {
          ws.row_coeff[ws.row_begin[index] + i] = row.terms[i].coeff;
        }
        std::fill(merged, merged + count, 0.0);
        for (std::size_t k = plan.part_begin[index];
             k < plan.part_begin[index + 1]; ++k) {
          const ReplayPart& part = plan.part[k];
          merged[part.merged] += row.terms[part.term].coeff * part.coeff;
        }
        coeff = merged;
      }
      for (std::size_t i = 0; i < count; ++i) {
        const double scaled = weight * coeff[i];
        for (std::size_t j = 0; j <= i; ++j) {
          fr.Add(slot[i], slot[j], scaled * coeff[j]);
        }
      }
      if (curved) {
        const double avg = Avg(p, pat, x, u);
        const double hwd = -avg / (w * w) * dual;
        const double had = dual / w;
        block[2][0] -= hwd;
        block[2][1] += hwd;
        block[2][2] += 2.0 * avg * d / (w * w * w) * dual;
        block[3][0] -= had;
        block[3][1] += had;
        block[3][2] += -d / (w * w) * dual;
      }
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j <= i; ++j) {
        if (prim_on[i] && prim_on[j]) {
          add_hess(node.prim[i], node.prim[j], i == j, block[i][j]);
        }
      }
    }

    // The node's planned eliminations.
    while (fr.eliminated() < node.steps_end) {
      if (!fr.Eliminate()) {
        return false;
      }
    }
  }
  return true;
}

/// The natural pattern of (e, w) with its greedy starts: Fig. 5 cases by
/// the group's plan, the floor by the greedy speed, and starts
/// max(release, previous finish).  A node on a case boundary is partial,
/// so every group with a plan strictly inside (0, total) has its partial
/// node; an executing node without a window faster than the floor is
/// floored.  The point need not satisfy any row.
void NaturalStart(const Scaled& p, State& x, Pattern& pat) {
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
    if (p.plan[g] >= p.total[g]) {
      pat.node[u] = Case::kFull;
    } else if (p.plan[g] <= 0.0) {
      pat.node[u] = Case::kEmpty;
    } else if (!p.w_var[u]) {
      pat.node[u] = Case::kPartial;
    } else if (left > x.w[u]) {
      pat.node[u] = Case::kFull;
    } else if (left > 0.0) {
      pat.node[u] = Case::kPartial;
      x.a[u] = left;
    }
    if (pat.node[u] == Case::kPartial) {
      pat.partial[g] = u;
    }
    x.s[u] = std::max(p.r[u], finish);
    if (Executes(pat, u)) {
      const double d = x.e[u] - x.s[u];
      pat.floored[u] = d > 0.0 && x.w[u] > p.smin * d ? 0 : 1;
    }
    finish = Finish(p, pat, x, u, 1.0, nullptr);
  }
}

/// A worst-case start without a warm schedule: an as-soon-as-possible
/// sweep at max_speed, each node taking what its group still needs up to
/// its room (a group's last node takes the rest).
void AsapStart(const Scaled& p, State& x) {
  std::vector<double> pending(p.total);
  double prev_end = 0.0;
  for (std::size_t u = 0; u < p.n; ++u) {
    const std::size_t g = p.group[u];
    const double start = std::max(p.r[u], prev_end);
    const bool last = p.members[g].back() == u;
    x.w[u] = last ? pending[g]
                  : std::min(pending[g], std::max(0.0, p.cap[u] - start));
    x.e[u] = std::max(start + x.w[u], p.b[u]);
    pending[g] -= x.w[u];
    prev_end = x.e[u];
  }
}

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

/// Solver state of one run over patterns: the primal point x with its
/// pattern and barrier parameter mu, and per row (in emission order) its
/// slack, multiplier and shift in the workspace.
struct Run {
  const Scaled& p;
  ReplayNewtonWorkspace& ws;
  ReplayNewtonReport& report;
  std::size_t max_newton;
  Pattern pat;
  State x, trial;
  double mu = 0.0;
  double kkt = kInf;
  // The merit's sums at x when x is an accepted trial point: its slacks
  // moved there by the same alpha * d_slack, so the sums repeat exactly.
  bool merit_kept = false;
  double kept_logs = 0.0;
  double kept_violation = 0.0;
  ReplayStatus failure = ReplayStatus::kNoConvergence;

  /// Starts the pattern from x at complementarity energy / rows: a pattern
  /// row shifted just enough to hold, with its shifted value as its slack
  /// (a pattern row is never relaxed: its piece's formulas hold only inside
  /// it), any other row at slack max(row, kStartSlack).  Plans the
  /// pattern's Newton systems.
  void Restart() {
    BuildPlan(p, pat, x, ws);
    merit_kept = false;
    ws.slack.clear();
    ws.row_shift.clear();
    std::size_t index = 0;
    for (std::size_t u = 0; u < p.n; ++u) {
      NodeRows(p, pat, x, u, [&](const Row& row) {
        ws.row_shift.push_back(
            row.strict ? std::max(0.0, kBoundaryShift - row.value) : 0.0);
        ws.row_value[index++] = row.value + ws.row_shift.back();
        ws.slack.push_back(row.strict ? row.value + ws.row_shift.back()
                                      : std::max(row.value, kStartSlack));
      });
    }
    const double obj = Objective(p, pat, x);
    mu = (obj > 0.0 ? obj : 1.0) / static_cast<double>(ws.slack.size());
    ws.dual.resize(ws.slack.size());
    for (std::size_t r = 0; r < ws.slack.size(); ++r) {
      ws.dual[r] = mu / ws.slack[r];
    }
  }

  /// The primal step over the primitives (ws.step) from the variables'
  /// (ws.values).
  void StepOfValues() {
    const double* val = ws.values.data();
    ws.step.assign(5 * p.n, 0.0);
    for (std::size_t u = 0; u < p.n; ++u) {
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
  }

  /// The Newton direction at mu on the factored system: the primal step
  /// (ws.values, ws.step) and the slack and multiplier steps (ws.d_slack,
  /// ws.d_dual).  Returns the barrier objective's slope along it.
  double Direction(const Frontier& fr) {
    const std::size_t rows = ws.slack.size();
    ws.prim.resize(ws.grad.size());
    for (std::size_t i = 0; i < ws.grad.size(); ++i) {
      ws.prim[i] = -ws.grad[i];
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const double rho =
          ws.dual[r] - (ws.dual[r] * ws.row_value[r] - mu) / ws.slack[r];
      for (std::size_t k = ws.row_begin[r]; k < ws.row_begin[r + 1]; ++k) {
        ws.prim[ws.row_id[k]] += rho * ws.row_coeff[k];
      }
    }
    ToVariables(p, pat, ws.prim, ws.rhs);
    ws.values.assign(5 * p.n, 0.0);
    fr.Resolve(ws.rhs, ws.values);
    StepOfValues();
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
      ws.d_dual[r] = (mu - ws.dual[r] * ds) / ws.slack[r] - ws.dual[r];
      slope -= mu * ds / ws.slack[r];
    }
    return slope;
  }

  /// Largest primal step in (0, 1] keeping `fraction` of every slack and of
  /// every free node's distance to its speed band (or of its budget and
  /// window while it is outside the band).
  double PrimalLimit(double fraction) const {
    double limit = StepLimit(ws.slack, ws.d_slack, fraction, 1.0);
    const auto bound = [&limit, fraction](double v, double dv) {
      if (dv < 0.0) {
        limit = std::min(limit, -fraction * v / dv);
      }
    };
    const double lo = kSpeedBand * p.smin;
    const double hi = 1.0 / kSpeedBand;
    for (std::size_t u = 0; u < p.n; ++u) {
      if (!FreeExecuting(pat, u)) {
        continue;
      }
      const double d = x.e[u] - x.s[u];
      const double dd = ws.step[IdE(u)] - ws.step[IdS(u)];
      const double w = x.w[u];
      const double dw = p.w_var[u] ? ws.step[IdW(u)] : 0.0;
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
    }
    return limit;
  }

  /// Moves x by alpha along the primal step (ws.values) into `out`.
  void MoveTo(double alpha, State& out) const {
    out = x;
    for (std::size_t u = 0; u < p.n; ++u) {
      out.s[u] = x.s[u] + alpha * ws.values[IdS(u)];
      out.e[u] = x.e[u] + alpha * ws.values[IdE(u)];
      if (p.c_var[u]) {
        out.c[u] = x.c[u] + alpha * ws.values[IdC(u)];
      }
    }
    Derive(p, pat, out);
  }

  /// Merit(x, 0, violation, logs) from x's objective `obj`, its rows
  /// (ws.row_value) and the slope of the last direction: the accepted
  /// trial's sums when a finite slope shows every d_slack finite (so
  /// 0 * d_slack moves no slack), or the same sums in the same order.
  double MeritHere(double obj, double slope, double& violation) const {
    if (merit_kept && std::isfinite(slope)) {
      violation = kept_violation;
      return obj - mu * kept_logs;
    }
    double logs = 0.0;
    violation = 0.0;
    bool inside = obj < kInf;
    std::size_t r = 0;
    for (std::size_t u = 0; u < p.n && inside; ++u) {
      for (; r < ws.plan.node[u].rows_end; ++r) {
        const double slack = ws.slack[r] + 0.0 * ws.d_slack[r];
        inside = inside && slack > 0.0;
        logs += std::log(slack);
        violation += std::fabs(ws.row_value[r] - slack);
      }
    }
    return inside ? obj - mu * logs : kInf;
  }

  /// The barrier objective f - mu sum log(slack) at `at` with the slacks
  /// moved by alpha along ws.d_slack (+inf outside the domain); `violation`
  /// and `logs` receive the summed row violation |row - slack| and the sum
  /// of log(slack), and ws.trial_value the shifted rows at `at` (all of
  /// them when the merit is finite).
  double Merit(const State& at, double alpha, double& violation,
               double& logs) const {
    const double obj = Objective(p, pat, at);
    logs = 0.0;
    violation = 0.0;
    bool inside = obj < kInf;
    std::size_t index = 0;
    ws.trial_value.resize(ws.slack.size());
    for (std::size_t u = 0; u < p.n && inside; ++u) {
      NodeRows(p, pat, at, u, [&](const Row& row) {
        const double slack = ws.slack[index] + alpha * ws.d_slack[index];
        inside = inside && slack > 0.0;
        logs += std::log(slack);
        ws.trial_value[index] = row.value + ws.row_shift[index];
        violation += std::fabs(ws.trial_value[index] - slack);
        ++index;
      });
    }
    return inside ? obj - mu * logs : kInf;
  }

  /// Primal-dual barrier iterations on the fixed pattern until the
  /// relative KKT residual is at most kReplayKktTol.  Each builds one
  /// Newton system; a barrier update re-solves it for the new right-hand
  /// side.
  bool Converge() {
    const double rows = static_cast<double>(ws.slack.size());
    while (true) {
      if (report.newton_steps >= max_newton) {
        failure = ReplayStatus::kNoConvergence;
        return false;
      }
      ++report.newton_steps;
      Frontier fr(ws.frontal, ws.plan.frontal, /*modify=*/true);
      const double obj = Objective(p, pat, x);
      if (!NewtonSystem(p, pat, x, fr, ws) || !(obj < kInf)) {
        failure = ReplayStatus::kBreakdown;
        return false;
      }
      const double scale = obj > 0.0 ? obj : 1.0;
      double gap = 0.0;
      double centrality = 0.0;
      double infeasible = 0.0;
      for (std::size_t r = 0; r < ws.slack.size(); ++r) {
        gap += ws.slack[r] * ws.dual[r];
        centrality += std::fabs(ws.slack[r] * ws.dual[r] - mu);
        infeasible =
            std::max(infeasible, std::fabs(ws.row_value[r] - ws.slack[r]));
      }
      // The residual: the gap and the Newton decrement relative to the
      // energy, and the largest row violation.
      double slope = Direction(fr);
      kkt = std::max({gap / scale, std::fabs(slope) / scale, infeasible});
      if (!std::isfinite(kkt)) {
        failure = ReplayStatus::kBreakdown;
        return false;
      }
      if (kkt <= kReplayKktTol) {
        return true;
      }
      // A solved barrier subproblem lowers mu superlinearly (relative to
      // the energy, down to a tenth of the tolerance) and re-solves.
      const double floor_mu = 0.1 * kReplayKktTol * scale / rows;
      if (mu > floor_mu && std::fabs(slope) <= mu &&
          centrality <= mu * rows && infeasible * scale <= mu * rows) {
        const double relative = mu * rows / scale;
        mu = std::max(floor_mu, std::min(kMuFactor * relative,
                                         std::pow(relative, kMuPower)) *
                                    scale / rows);
        slope = Direction(fr);
      }
      // Line search: a trial point is accepted when it lowers the row
      // violation or the barrier objective in proportion to the step and
      // the violation; a nearly feasible point must lower the barrier
      // objective by the Armijo rule.
      double violation = 0.0;
      const double phi = MeritHere(obj, slope, violation);
      double alpha = PrimalLimit(kToBoundary);
      const double alpha_dual =
          StepLimit(ws.dual, ws.d_dual, kToBoundary, 1.0);
      bool accepted = false;
      double trial_violation = 0.0;
      double trial_logs = 0.0;
      for (int halvings = 0; halvings < 50 && !accepted; ++halvings) {
        MoveTo(alpha, trial);
        const double value = Merit(trial, alpha, trial_violation, trial_logs);
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
      std::swap(x, trial);
      std::swap(ws.row_value, ws.trial_value);
      merit_kept = true;
      kept_logs = trial_logs;
      kept_violation = trial_violation;
      for (std::size_t r = 0; r < ws.slack.size(); ++r) {
        ws.slack[r] += alpha * ws.d_slack[r];
        ws.dual[r] = std::min(
            std::max(ws.dual[r] + alpha_dual * ws.d_dual[r],
                     mu / (kDualSafeguard * ws.slack[r])),
            kDualSafeguard * mu / ws.slack[r]);
      }
    }
  }

  /// Pattern rows left active at the converged point, with the move each
  /// asks for (one per node at most).
  std::vector<std::pair<std::size_t, Flip>> ActiveFlips() const {
    std::vector<std::pair<std::size_t, Flip>> flips;
    for (std::size_t u = 0; u < p.n; ++u) {
      const double ref = p.total[p.group[u]];
      NodeRows(p, pat, x, u, [&](const Row& row) {
        if (row.flip != Flip::kNone && row.value < kActiveSlack * ref &&
            (flips.empty() || flips.back().first != u)) {
          flips.emplace_back(u, row.flip);
        }
      });
    }
    return flips;
  }

  /// Moves the flipped nodes to their neighbouring pieces at the converged
  /// point and restarts from it.  False when no flip applies.
  bool ApplyFlips(const std::vector<std::pair<std::size_t, Flip>>& flips) {
    const Pattern before = pat;
    for (const auto& [u, flip] : flips) {
      const std::size_t g = p.group[u];
      const std::vector<std::size_t>& group = p.members[g];
      const std::size_t pos = static_cast<std::size_t>(
          std::find(group.begin(), group.end(), u) - group.begin());
      switch (flip) {
        case Flip::kToFloored:
          pat.floored[u] = 1;
          break;
        case Flip::kToFree:
          // Only a node with a window and more than a vanishing budget runs
          // above the floor.
          if (x.e[u] > x.s[u] && x.w[u] > kActiveSlack * p.total[g]) {
            pat.floored[u] = 0;
          }
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
            pat.floored[v] = d > 0.0 && x.w[v] > p.smin * d ? 0 : 1;
          }
          break;
        }
        case Flip::kNone:
          break;
      }
    }
    if (pat == before) {
      return false;
    }
    Derive(p, pat, x);
    Restart();
    return true;
  }
};

}  // namespace

ReplayNewtonReport SolveReplay(const ReplayProblem& problem,
                               const std::vector<double>& warm_end,
                               const std::vector<double>& warm_budget,
                               ReplaySolution& solution,
                               ReplayNewtonWorkspace* workspace,
                               std::size_t max_newton_steps) {
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

  // The start: the warm (e, w), or an as-soon-as-possible sweep, with its
  // natural pattern and greedy starts; every row starts at complementarity
  // energy / rows.
  Run run{p, ws, report, max_newton_steps, {}, {}, {}};
  State& x = run.x;
  x.e.resize(n);
  x.w.resize(n);
  x.c.resize(n);
  if (warm_end.empty()) {
    AsapStart(p, x);
  } else {
    for (std::size_t u = 0; u < n; ++u) {
      x.e[u] = warm_end[u] / p.time_unit;
      x.w[u] = warm_budget[u] / p.cycle_unit;
    }
  }
  std::vector<double> running(p.groups, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t g = p.group[u];
    if (!p.w_var[u]) {
      x.w[u] = p.total[g];
    } else if (!p.c_var[u]) {
      x.w[u] = p.total[g] - running[g];
    }
    running[g] += x.w[u];
    x.c[u] = running[g];
  }
  NaturalStart(p, x, run.pat);
  Derive(p, run.pat, x);
  run.Restart();

  // The pattern walk.  A guard or breakdown exit in any pattern fails the
  // solve: an earlier pattern's point still has an active boundary row.
  std::vector<Pattern> visited;
  State best;
  double best_obj = kInf;
  double best_kkt = kInf;
  while (true) {
    visited.push_back(run.pat);
    ++report.patterns;
    if (!run.Converge()) {
      report.status = run.failure;
      report.kkt_residual = run.kkt;
      return report;
    }
    const double obj = Objective(p, run.pat, x);
    if (!(obj < best_obj)) {
      break;  // a pattern change that does not pay: keep the better point
    }
    best = x;
    best_obj = obj;
    best_kkt = run.kkt;
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
