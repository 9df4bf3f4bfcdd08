#include "opt/augmented_lagrangian.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "opt/workspace.h"
#include "util/error.h"
#include "util/logging.h"

namespace dvs::opt {
namespace {

/// f(x) plus the augmented-Lagrangian terms of the constraints.
///
/// Multipliers and the penalty are constant across one inner solve, so the
/// per-row lambda / rho ratio and the constant -lambda^2 / (2 rho) shift of
/// the >=-row hinge are precomputed once per outer iteration (into
/// workspace buffers) instead of re-divided on every objective evaluation.
/// The precomputed values are the very expressions the inline code used, so
/// evaluations are bit-identical.
class AugmentedObjective final : public Objective {
 public:
  AugmentedObjective(const Objective& base, const FlatLinearSystem& system,
                     const std::vector<double>& multipliers, double penalty,
                     std::vector<double>& ratio_scratch,
                     std::vector<double>& shift_scratch,
                     std::vector<double>& row_scratch)
      : base_(base),
        system_(system),
        multipliers_(multipliers),
        penalty_(penalty),
        ratio_(ratio_scratch),
        shift_(shift_scratch),
        row_values_(row_scratch) {
    ratio_.assign(system.rows(), 0.0);
    shift_.assign(system.rows(), 0.0);
    for (std::size_t c = 0; c < system.rows(); ++c) {
      if (system.kind[c] == ConstraintKind::kGeZero) {
        const double lambda = multipliers[c];
        ratio_[c] = lambda / penalty;
        shift_[c] = 0.5 * lambda * lambda / penalty;
      }
    }
  }

  std::size_t dim() const override { return base_.dim(); }

  double Value(const Vector& x) const override { return Evaluate(x, nullptr); }

  // No zero-fill before delegating: the Objective contract has the base
  // write the full gradient, and the constraint terms accumulate on top.
  void Gradient(const Vector& x, Vector& grad) const override {
    (void)Evaluate(x, &grad);
  }

  double ValueAndGradient(const Vector& x, Vector& grad) const override {
    return Evaluate(x, &grad);
  }

  // The row values of the last Value() call are still in row_values_, so
  // the accepted trial needs only the base reverse pass and the scatter.
  void GradientAfterValue(const Vector& x, Vector& grad) const override {
    base_.GradientAfterValue(x, grad);
    ScatterRows(grad);
  }

 private:
  double Evaluate(const Vector& x, Vector* grad) const {
    double value = grad != nullptr ? base_.ValueAndGradient(x, *grad)
                                   : base_.Value(x);
    // Two phases: batch every row value first, then the hinge algebra walks
    // the rows in order; the scatter-indexed gradient accumulation repeats
    // that walk.
    system_.EvaluateAll(x, row_values_);
    for (std::size_t c = 0; c < system_.rows(); ++c) {
      const double cv = row_values_[c];
      if (system_.kind[c] == ConstraintKind::kGeZero) {
        // Treat as g(x) = -c(x) <= 0.
        const double active = std::max(0.0, ratio_[c] - cv);
        value += 0.5 * penalty_ * active * active - shift_[c];
      } else {
        const double lambda = multipliers_[c];
        value += lambda * cv + 0.5 * penalty_ * cv * cv;
      }
    }
    if (grad != nullptr) {
      ScatterRows(*grad);
    }
    return value;
  }

  /// grad += the constraint terms' gradient at the batched row values.
  void ScatterRows(Vector& grad) const {
    for (std::size_t c = 0; c < system_.rows(); ++c) {
      const double cv = row_values_[c];
      if (system_.kind[c] == ConstraintKind::kGeZero) {
        const double active = std::max(0.0, ratio_[c] - cv);
        if (active > 0.0) {
          system_.AccumulateGradient(c, -penalty_ * active, grad);
        }
      } else {
        system_.AccumulateGradient(c, multipliers_[c] + penalty_ * cv, grad);
      }
    }
  }

  const Objective& base_;
  const FlatLinearSystem& system_;
  const std::vector<double>& multipliers_;
  double penalty_;
  std::vector<double>& ratio_;  // per >=-row: lambda / rho
  std::vector<double>& shift_;  // per >=-row: (0.5 * lambda * lambda) / rho
  std::vector<double>& row_values_;  // batched row values (phase one)
};

/// Largest row violation: max(0, -value) for >=, |value| for ==.
double MaxViolation(const FlatLinearSystem& system, const Vector& x,
                    std::vector<double>& row_scratch) {
  system.EvaluateAll(x, row_scratch);
  double worst = 0.0;
  for (std::size_t c = 0; c < system.rows(); ++c) {
    const double value = row_scratch[c];
    const double violation = system.kind[c] == ConstraintKind::kGeZero
                                 ? (value < 0.0 ? -value : 0.0)
                                 : (value < 0.0 ? -value : value);
    worst = std::max(worst, violation);
  }
  return worst;
}

AlmReport Drive(const Objective& objective, const FeasibleSet& set,
                const FlatLinearSystem& system, Vector& x,
                const AlmOptions& options, AlmWorkspace& ws) {
  ACS_REQUIRE(x.size() == objective.dim(), "start point dimension mismatch");
  AlmReport report;

  if (system.rows() == 0) {
    SpgOptions inner_options = options.inner;
    inner_options.observer = options.observer;
    const SpgReport inner = MinimizeSpg(objective, set, x, inner_options,
                                        &ws.spg);
    report.feasible = true;
    report.inner_status = inner.status;
    report.outer_iterations = 1;
    report.total_inner_iterations = inner.iterations;
    report.evaluations = inner.evaluations;
    report.final_value = inner.final_value;
    return report;
  }

  // Dual continuation: a size-matched seed restores the previous solve's
  // multipliers and penalty and skips the loose-to-tight tolerance ramp; a
  // null or mismatched seed is the historical cold start, bit-for-bit.
  const bool warm_dual = options.dual_seed != nullptr &&
                         options.dual_seed->size() == system.rows();
  std::vector<double>& multipliers = ws.multipliers;
  if (warm_dual) {
    multipliers = *options.dual_seed;
  } else {
    multipliers.assign(system.rows(), 0.0);
  }
  double penalty =
      warm_dual ? std::max(options.initial_penalty, options.dual_penalty_seed)
                : options.initial_penalty;
  double inner_tol =
      warm_dual ? options.inner.tolerance : options.inner_tol_start;
  double previous_violation = std::numeric_limits<double>::infinity();

  set.Project(x, ws.spg.projection);

  for (std::size_t outer = 0; outer < options.max_outer; ++outer) {
    report.outer_iterations = outer + 1;

    AugmentedObjective augmented(objective, system, multipliers, penalty,
                                 ws.penalty_ratio, ws.penalty_shift,
                                 ws.row_values);
    SpgOptions inner_options = options.inner;
    inner_options.tolerance = std::max(options.inner.tolerance, inner_tol);
    inner_options.observer = options.observer;
    const SpgReport inner =
        MinimizeSpg(augmented, set, x, inner_options, &ws.spg);
    report.inner_status = inner.status;
    report.total_inner_iterations += inner.iterations;
    report.evaluations += inner.evaluations;

    const double violation = MaxViolation(system, x, ws.row_values);
    report.max_violation = violation;
    report.final_penalty = penalty;
    ACS_LOG_DEBUG << "ALM outer " << outer << ": viol=" << violation
                  << " rho=" << penalty << " inner="
                  << SolveStatusName(inner.status) << "/" << inner.iterations;
    if (options.observer != nullptr) {
      AlmOuterEvent event;
      event.outer = report.outer_iterations;
      event.violation = violation;
      event.penalty = penalty;
      event.inner_tolerance = inner_options.tolerance;
      event.inner_iterations = inner.iterations;
      event.inner_status = inner.status;
      event.evaluations = report.evaluations;
      options.observer->OnAlmOuter(event);
    }

    if (violation <= options.feasibility_tol &&
        inner_options.tolerance <= options.inner.tolerance * (1.0 + 1e-12)) {
      report.feasible = true;
      break;
    }

    // First-order multiplier updates (batched row values, same row order).
    system.EvaluateAll(x, ws.row_values);
    for (std::size_t c = 0; c < system.rows(); ++c) {
      const double cv = ws.row_values[c];
      if (system.kind[c] == ConstraintKind::kGeZero) {
        multipliers[c] = std::max(0.0, multipliers[c] - penalty * cv);
      } else {
        multipliers[c] += penalty * cv;
      }
    }

    // Penalty growth when feasibility stalls.
    if (violation > options.violation_shrink * previous_violation &&
        violation > options.feasibility_tol) {
      penalty = std::min(penalty * options.penalty_growth,
                         options.max_penalty);
    }
    previous_violation = violation;
    inner_tol = std::max(inner_tol * 0.1, options.inner.tolerance);
  }

  report.final_value = objective.Value(x);
  report.max_violation = MaxViolation(system, x, ws.row_values);
  report.feasible = report.max_violation <= options.feasibility_tol;
  ++report.evaluations;
  report.multipliers = multipliers;
  return report;
}

}  // namespace

void FlatLinearSystem::Assign(const std::vector<LinearConstraint>& constraints) {
  term_index.clear();
  term_coeff.clear();
  row_begin.clear();
  constant.clear();
  kind.clear();
  row_begin.reserve(constraints.size() + 1);
  constant.reserve(constraints.size());
  kind.reserve(constraints.size());
  for (const LinearConstraint& con : constraints) {
    row_begin.push_back(term_index.size());
    constant.push_back(con.constant);
    kind.push_back(con.kind);
    for (const auto& [index, coeff] : con.terms) {
      term_index.push_back(index);
      term_coeff.push_back(coeff);
    }
  }
  row_begin.push_back(term_index.size());
}

AlmReport MinimizeAlm(const Objective& objective, const FeasibleSet& set,
                      const std::vector<LinearConstraint>& constraints,
                      Vector& x, const AlmOptions& options,
                      AlmWorkspace* workspace) {
  AlmWorkspace local;
  AlmWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.flat.Assign(constraints);
  return Drive(objective, set, ws.flat, x, options, ws);
}

}  // namespace dvs::opt
