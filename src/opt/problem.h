// Optimisation problem interfaces.
//
// The ACS formulation reduces to:   minimise f(x)
//                                   s.t.  x in X  (box bounds x simplexes)
//                                         A x + b >= 0 / == 0  (linear)
// where f is the piecewise-smooth average-case energy.  The solver stack is
// split accordingly: Objective (f and its gradient), FeasibleSet (projection
// onto X), LinearConstraint (rows of A), and the augmented-Lagrangian driver
// that composes them.
#ifndef ACS_OPT_PROBLEM_H
#define ACS_OPT_PROBLEM_H

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "opt/vec.h"

namespace dvs::opt {

/// Differentiable objective.  Implementations must be deterministic and
/// thread-compatible; Gradient writes the full gradient (no accumulation).
class Objective {
 public:
  virtual ~Objective() = default;

  virtual std::size_t dim() const = 0;
  virtual double Value(const Vector& x) const = 0;
  virtual void Gradient(const Vector& x, Vector& grad) const = 0;

  /// Override when value+gradient share work; default calls both.
  virtual double ValueAndGradient(const Vector& x, Vector& grad) const {
    Gradient(x, grad);
    return Value(x);
  }

  /// Gradient at `x`, which must be the point of the most recent Value()
  /// call on this objective.  Line searches evaluate the value alone at
  /// every trial and ask for the gradient only at the accepted one;
  /// objectives that keep their forward state override this to run just
  /// the reverse pass from it.  Must write the same bits as
  /// ValueAndGradient(x, grad); the default simply recomputes.
  virtual void GradientAfterValue(const Vector& x, Vector& grad) const {
    (void)ValueAndGradient(x, grad);
  }
};

/// Reusable buffers for FeasibleSet projections (one per solver workspace;
/// see opt/workspace.h).  BoxSimplexSet sorts each simplex group's copy in
/// `sorted`; `values` serves as the probe buffer of the default
/// SpgCriterion.  Other sets may ignore it.
struct ProjectionScratch {
  std::vector<double> values;
  std::vector<double> sorted;
};

/// Closed convex set supporting Euclidean projection.
class FeasibleSet {
 public:
  virtual ~FeasibleSet() = default;
  virtual void Project(Vector& x) const = 0;

  /// Projection with caller-provided scratch — identical results to
  /// Project(x); overriding it (as BoxSimplexSet does) only removes the
  /// per-call allocations on the solver hot path.
  virtual void Project(Vector& x, ProjectionScratch& /*scratch*/) const {
    Project(x);
  }

  /// SPG's convergence measure ||P(x - grad) - x||_inf.  The returned value
  /// is exact whenever it is <= `threshold`; above it, implementations may
  /// return early with any sound lower bound that already exceeds the
  /// threshold (BoxSimplexSet proves "not converged" from the separable box
  /// coordinates alone, skipping the simplex sorts).  Callers comparing the
  /// result against `threshold` therefore get the exact same decision as
  /// projecting in full.
  virtual double SpgCriterion(const Vector& x, const Vector& grad,
                              double threshold,
                              ProjectionScratch& scratch) const;
};

/// The whole space (no projection).
class FreeSet final : public FeasibleSet {
 public:
  void Project(Vector&) const override {}
};

inline constexpr double kNoBound = std::numeric_limits<double>::infinity();

/// Product of per-variable intervals and disjoint probability-simplex-style
/// groups {w_i >= 0, sum w_i = total}.  Variables in a simplex group must
/// not also carry box bounds (the group projection owns them).
class BoxSimplexSet final : public FeasibleSet {
 public:
  explicit BoxSimplexSet(std::size_t dim);

  /// Sets [lo, hi] bounds for variable `i` (use +-kNoBound for one-sided).
  void SetBounds(std::size_t i, double lo, double hi);

  /// Declares {x[idx] >= 0 for idx in indices, sum = total}; indices must be
  /// distinct, unbounded and not reused across groups.
  void AddSimplex(std::vector<std::size_t> indices, double total);

  void Project(Vector& x) const override;
  void Project(Vector& x, ProjectionScratch& scratch) const override;
  double SpgCriterion(const Vector& x, const Vector& grad, double threshold,
                      ProjectionScratch& scratch) const override;

  std::size_t dim() const { return lo_.size(); }
  double lower(std::size_t i) const { return lo_.at(i); }
  double upper(std::size_t i) const { return hi_.at(i); }

 private:
  struct Simplex {
    std::vector<std::size_t> indices;
    double total;
  };

  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<bool> in_simplex_;
  std::vector<Simplex> simplexes_;
};

/// Projects `values` (in place) onto {v >= 0, sum v = total}.
/// Classic O(n log n) sort-and-threshold algorithm.
void ProjectOntoSimplex(std::vector<double>& values, double total);

/// Same projection with a caller-provided sort buffer (bit-identical
/// results; avoids the per-call copy allocation on the solver hot path).
void ProjectOntoSimplex(std::vector<double>& values, double total,
                        std::vector<double>& sorted_scratch);

/// Constraint sense.
enum class ConstraintKind { kGeZero, kEqZero };

/// One linear constraint  sum coeff_j * x[index_j] + constant  (>= 0 | == 0).
struct LinearConstraint {
  using Kind = ConstraintKind;

  Kind kind = Kind::kGeZero;
  std::vector<std::pair<std::size_t, double>> terms;  // (index, coefficient)
  double constant = 0.0;
  std::string name;  // for diagnostics

  double Evaluate(const Vector& x) const;

  /// Violation: max(0, -value) for >=, |value| for ==.
  double Violation(const Vector& x) const;
};

}  // namespace dvs::opt

#endif  // ACS_OPT_PROBLEM_H
