#include "opt/problem.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.h"

namespace dvs::opt {
namespace {

/// Descending compare-exchange.
inline void CswapDesc(double& a, double& b) {
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  a = hi;
  b = lo;
}

/// Sorts v[0..m) descending for m <= 8 via branchless sorting networks —
/// the same sorted values std::sort(greater) produces, at a fraction of the
/// cost for the small groups that dominate the budget simplexes.
inline void SortDescSmall(double* v, std::size_t m) {
  switch (m) {
    case 4:
      CswapDesc(v[0], v[1]);
      CswapDesc(v[2], v[3]);
      CswapDesc(v[0], v[2]);
      CswapDesc(v[1], v[3]);
      CswapDesc(v[1], v[2]);
      break;
    case 5:
      CswapDesc(v[0], v[1]);
      CswapDesc(v[3], v[4]);
      CswapDesc(v[2], v[4]);
      CswapDesc(v[2], v[3]);
      CswapDesc(v[1], v[4]);
      CswapDesc(v[0], v[3]);
      CswapDesc(v[0], v[2]);
      CswapDesc(v[1], v[3]);
      CswapDesc(v[1], v[2]);
      break;
    case 6:
      CswapDesc(v[1], v[2]);
      CswapDesc(v[4], v[5]);
      CswapDesc(v[0], v[2]);
      CswapDesc(v[3], v[5]);
      CswapDesc(v[0], v[1]);
      CswapDesc(v[3], v[4]);
      CswapDesc(v[2], v[5]);
      CswapDesc(v[0], v[3]);
      CswapDesc(v[1], v[4]);
      CswapDesc(v[2], v[4]);
      CswapDesc(v[1], v[3]);
      CswapDesc(v[2], v[3]);
      break;
    case 7:
      CswapDesc(v[1], v[2]);
      CswapDesc(v[3], v[4]);
      CswapDesc(v[5], v[6]);
      CswapDesc(v[0], v[2]);
      CswapDesc(v[3], v[5]);
      CswapDesc(v[4], v[6]);
      CswapDesc(v[0], v[1]);
      CswapDesc(v[4], v[5]);
      CswapDesc(v[2], v[6]);
      CswapDesc(v[0], v[4]);
      CswapDesc(v[1], v[5]);
      CswapDesc(v[0], v[3]);
      CswapDesc(v[2], v[5]);
      CswapDesc(v[1], v[3]);
      CswapDesc(v[2], v[4]);
      CswapDesc(v[2], v[3]);
      break;
    case 8:
      CswapDesc(v[0], v[1]);
      CswapDesc(v[2], v[3]);
      CswapDesc(v[4], v[5]);
      CswapDesc(v[6], v[7]);
      CswapDesc(v[0], v[2]);
      CswapDesc(v[1], v[3]);
      CswapDesc(v[4], v[6]);
      CswapDesc(v[5], v[7]);
      CswapDesc(v[1], v[2]);
      CswapDesc(v[5], v[6]);
      CswapDesc(v[0], v[4]);
      CswapDesc(v[3], v[7]);
      CswapDesc(v[1], v[5]);
      CswapDesc(v[2], v[6]);
      CswapDesc(v[1], v[4]);
      CswapDesc(v[3], v[6]);
      CswapDesc(v[2], v[4]);
      CswapDesc(v[3], v[5]);
      CswapDesc(v[3], v[4]);
      break;
    default:
      std::sort(v, v + m, std::greater<double>());
      break;
  }
}

}  // namespace

double FeasibleSet::SpgCriterion(const Vector& x, const Vector& grad,
                                 double /*threshold*/,
                                 ProjectionScratch& scratch) const {
  // Generic sets: project the unit-step probe in full and measure.
  std::vector<double>& probe = scratch.values;
  probe.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    probe[i] = x[i] - grad[i];
  }
  Project(probe);
  double criterion = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    criterion = std::max(criterion, std::fabs(probe[i] - x[i]));
  }
  return criterion;
}

BoxSimplexSet::BoxSimplexSet(std::size_t dim)
    : lo_(dim, -kNoBound),
      hi_(dim, kNoBound),
      in_simplex_(dim, false) {}

void BoxSimplexSet::SetBounds(std::size_t i, double lo, double hi) {
  ACS_REQUIRE(i < lo_.size(), "variable index out of range");
  ACS_REQUIRE(lo <= hi, "lower bound exceeds upper bound");
  ACS_REQUIRE(!in_simplex_[i], "variable already owned by a simplex group");
  lo_[i] = lo;
  hi_[i] = hi;
}

void BoxSimplexSet::AddSimplex(std::vector<std::size_t> indices,
                               double total) {
  ACS_REQUIRE(!indices.empty(), "empty simplex group");
  ACS_REQUIRE(total >= 0.0, "simplex total must be non-negative");
  for (std::size_t idx : indices) {
    ACS_REQUIRE(idx < lo_.size(), "simplex index out of range");
    ACS_REQUIRE(!in_simplex_[idx], "variable reused across simplex groups");
    ACS_REQUIRE(lo_[idx] == -kNoBound && hi_[idx] == kNoBound,
                "simplex variable must not carry box bounds");
    in_simplex_[idx] = true;
  }
  simplexes_.push_back(Simplex{std::move(indices), total});
}

void BoxSimplexSet::Project(Vector& x) const {
  ProjectionScratch scratch;
  Project(x, scratch);
}

void BoxSimplexSet::Project(Vector& x, ProjectionScratch& scratch) const {
  ACS_REQUIRE(x.size() == lo_.size(), "dimension mismatch in projection");
  // Simplex-owned variables carry (-inf, +inf) bounds (enforced by
  // AddSimplex), so clamping them is an exact identity — the clamp runs
  // branchless over every variable instead of testing membership.
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::min(std::max(x[i], lo_[i]), hi_[i]);
  }
  for (const Simplex& group : simplexes_) {
    if (group.indices.size() == 2) {
      // In-place two-element projection (the dominant group size): same
      // closed form as ProjectOntoSimplex's two-element case, applied
      // straight to x without the gather/scatter round-trip.
      double& x0 = x[group.indices[0]];
      double& x1 = x[group.indices[1]];
      const double a = std::max(x0, x1);
      const double b = std::min(x0, x1);
      double tau = a - group.total;
      if (b > tau) {
        tau = ((a + b) - group.total) / 2.0;
      }
      x0 = std::max(0.0, x0 - tau);
      x1 = std::max(0.0, x1 - tau);
      continue;
    }
    if (group.indices.size() == 3) {
      double& x0 = x[group.indices[0]];
      double& x1 = x[group.indices[1]];
      double& x2 = x[group.indices[2]];
      double a = x0;
      double b = x1;
      double c = x2;
      if (a < b) std::swap(a, b);
      if (b < c) std::swap(b, c);
      if (a < b) std::swap(a, b);
      double running = a;
      double tau = running - group.total;
      if (b > tau) {
        running += b;
        tau = (running - group.total) / 2.0;
        if (c > tau) {
          running += c;
          tau = (running - group.total) / 3.0;
        }
      }
      x0 = std::max(0.0, x0 - tau);
      x1 = std::max(0.0, x1 - tau);
      x2 = std::max(0.0, x2 - tau);
      continue;
    }
    // General case: sort a descending copy to find tau, then shift the
    // group in place — same arithmetic as ProjectOntoSimplex without the
    // gather/scatter round-trip through a second buffer.
    std::vector<double>& sorted = scratch.sorted;
    sorted.resize(group.indices.size());
    for (std::size_t j = 0; j < group.indices.size(); ++j) {
      sorted[j] = x[group.indices[j]];
    }
    SortDescSmall(sorted.data(), sorted.size());
    double running = 0.0;
    double tau = 0.0;
    for (std::size_t k = 0; k < sorted.size(); ++k) {
      running += sorted[k];
      const double candidate =
          (running - group.total) / static_cast<double>(k + 1);
      if (k + 1 == sorted.size() || sorted[k + 1] <= candidate) {
        tau = candidate;
        break;
      }
    }
    for (std::size_t idx : group.indices) {
      x[idx] = std::max(0.0, x[idx] - tau);
    }
  }
}

double BoxSimplexSet::SpgCriterion(const Vector& x, const Vector& grad,
                                   double threshold,
                                   ProjectionScratch& scratch) const {
  ACS_REQUIRE(x.size() == lo_.size(), "dimension mismatch in criterion");
  // The set is separable, so each non-simplex coordinate's displacement is
  // exactly |clamp(x_i - g_i) - x_i|.  Their running max is a sound lower
  // bound on the full criterion: once it exceeds the threshold the solver's
  // "not converged" decision is already fixed and the simplex projections
  // can be skipped.
  double criterion = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (in_simplex_[i]) {
      continue;
    }
    const double projected =
        std::min(std::max(x[i] - grad[i], lo_[i]), hi_[i]);
    criterion = std::max(criterion, std::fabs(projected - x[i]));
    if (criterion > threshold) {
      // Decision fixed ("not converged"); no need to finish the sweep.
      return criterion;
    }
  }
  // Possibly converged: finish exactly with the simplex groups.
  std::vector<double>& values = scratch.values;
  for (const Simplex& group : simplexes_) {
    values.resize(group.indices.size());
    for (std::size_t j = 0; j < group.indices.size(); ++j) {
      const std::size_t idx = group.indices[j];
      values[j] = x[idx] - grad[idx];
    }
    ProjectOntoSimplex(values, group.total, scratch.sorted);
    for (std::size_t j = 0; j < group.indices.size(); ++j) {
      criterion = std::max(
          criterion, std::fabs(values[j] - x[group.indices[j]]));
    }
  }
  return criterion;
}

void ProjectOntoSimplex(std::vector<double>& values, double total) {
  std::vector<double> sorted_scratch;
  ProjectOntoSimplex(values, total, sorted_scratch);
}

void ProjectOntoSimplex(std::vector<double>& values, double total,
                        std::vector<double>& sorted_scratch) {
  ACS_REQUIRE(!values.empty(), "empty vector in simplex projection");
  ACS_REQUIRE(total >= 0.0, "simplex total must be non-negative");
  if (values.size() == 1) {
    values[0] = total;
    return;
  }
  // Held-Wolfe-Crowder: find tau with sum max(0, v_i - tau) = total.
  if (values.size() == 2) {
    // Closed-form two-element case — a dominant group size in the ACS
    // budget simplexes.  Arithmetic mirrors the general loop exactly
    // (same running-sum order, same divisors), so results are bit-identical.
    const double a = std::max(values[0], values[1]);
    const double b = std::min(values[0], values[1]);
    double tau = a - total;  // (running - total) / 1
    if (b > tau) {
      tau = ((a + b) - total) / 2.0;
    }
    values[0] = std::max(0.0, values[0] - tau);
    values[1] = std::max(0.0, values[1] - tau);
    return;
  }
  if (values.size() == 3) {
    // Three-element case via a sorting network; running sums and divisors
    // match the general loop term for term.
    double a = values[0];
    double b = values[1];
    double c = values[2];
    if (a < b) std::swap(a, b);
    if (b < c) std::swap(b, c);
    if (a < b) std::swap(a, b);
    double running = a;
    double tau = running - total;  // (running - total) / 1
    if (b > tau) {
      running += b;
      tau = (running - total) / 2.0;
      if (c > tau) {
        running += c;
        tau = (running - total) / 3.0;
      }
    }
    values[0] = std::max(0.0, values[0] - tau);
    values[1] = std::max(0.0, values[1] - tau);
    values[2] = std::max(0.0, values[2] - tau);
    return;
  }
  std::vector<double>& sorted = sorted_scratch;
  sorted.assign(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double running = 0.0;
  double tau = 0.0;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    running += sorted[k];
    const double candidate =
        (running - total) / static_cast<double>(k + 1);
    if (k + 1 == sorted.size() || sorted[k + 1] <= candidate) {
      tau = candidate;
      break;
    }
  }
  for (double& v : values) {
    v = std::max(0.0, v - tau);
  }
}

double LinearConstraint::Evaluate(const Vector& x) const {
  double acc = constant;
  for (const auto& [index, coeff] : terms) {
    acc += coeff * x[index];
  }
  return acc;
}

double LinearConstraint::Violation(const Vector& x) const {
  const double value = Evaluate(x);
  switch (kind) {
    case Kind::kGeZero:
      return std::max(0.0, -value);
    case Kind::kEqZero:
      return std::fabs(value);
  }
  return 0.0;
}

}  // namespace dvs::opt
