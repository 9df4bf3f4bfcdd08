#include "opt/augmented_lagrangian.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "opt/workspace.h"
#include "util/error.h"
#include "util/logging.h"

namespace dvs::opt {
namespace {

// The ALM driver is templated over the constraint-system representation so
// the same outer loop serves both the general ConstraintFunction pointers
// and the flattened all-linear system.  A System exposes:
//   size()                                  — number of rows
//   Kind(c)                                 — row sense
//   Evaluate(c, x)                          — row value
//   EvaluateAll(x, out)                     — every row value, in row order
//   Violation(c, x)                         — row violation
//   AccumulateGradient(c, x, weight, grad)  — grad += weight * d row / d x

/// Rows behind ConstraintFunction pointers (the general entry point).
class PointerSystem {
 public:
  explicit PointerSystem(
      const std::vector<const ConstraintFunction*>& constraints)
      : constraints_(&constraints) {}

  std::size_t size() const { return constraints_->size(); }
  ConstraintKind Kind(std::size_t c) const { return (*constraints_)[c]->kind(); }
  double Evaluate(std::size_t c, const Vector& x) const {
    return (*constraints_)[c]->Evaluate(x);
  }
  void EvaluateAll(const Vector& x, std::vector<double>& out) const {
    out.resize(size());
    for (std::size_t c = 0; c < size(); ++c) {
      out[c] = Evaluate(c, x);
    }
  }
  double Violation(std::size_t c, const Vector& x) const {
    return (*constraints_)[c]->Violation(x);
  }
  void AccumulateGradient(std::size_t c, const Vector& x, double weight,
                          Vector& grad) const {
    (*constraints_)[c]->AccumulateGradient(x, weight, grad);
  }

 private:
  const std::vector<const ConstraintFunction*>* constraints_;
};

/// Rows of one contiguous FlatLinearSystem (the all-linear fast path).
class FlatSystem {
 public:
  explicit FlatSystem(const FlatLinearSystem& flat) : flat_(&flat) {}

  std::size_t size() const { return flat_->rows(); }
  ConstraintKind Kind(std::size_t c) const { return flat_->kind[c]; }
  double Evaluate(std::size_t c, const Vector& x) const {
    return flat_->Evaluate(c, x);
  }
  void EvaluateAll(const Vector& x, std::vector<double>& out) const {
    flat_->EvaluateAll(x, out);
  }
  double Violation(std::size_t c, const Vector& x) const {
    return flat_->Violation(c, x);
  }
  void AccumulateGradient(std::size_t c, const Vector& /*x*/, double weight,
                          Vector& grad) const {
    flat_->AccumulateGradient(c, weight, grad);
  }

 private:
  const FlatLinearSystem* flat_;
};

/// f(x) plus the augmented-Lagrangian terms of the constraints.
///
/// Multipliers and the penalty are constant across one inner solve, so the
/// per-row lambda / rho ratio and the constant -lambda^2 / (2 rho) shift of
/// the >=-row hinge are precomputed once per outer iteration (into
/// workspace buffers) instead of re-divided on every objective evaluation.
/// The precomputed values are the very expressions the inline code used, so
/// evaluations are bit-identical.
template <typename System>
class AugmentedObjective final : public Objective {
 public:
  AugmentedObjective(const Objective& base, const System& system,
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
    ratio_.assign(system.size(), 0.0);
    shift_.assign(system.size(), 0.0);
    for (std::size_t c = 0; c < system.size(); ++c) {
      if (system.Kind(c) == ConstraintKind::kGeZero) {
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
    ScatterRows(x, grad);
  }

 private:
  double Evaluate(const Vector& x, Vector* grad) const {
    double value = grad != nullptr ? base_.ValueAndGradient(x, *grad)
                                   : base_.Value(x);
    // Two phases: batch every row value first (vectorizable — four gathered
    // rows per step on the flat system at AVX2 dispatch), then the hinge
    // algebra walks the rows in order; the scatter-indexed gradient
    // accumulation repeats that walk, so scalar dispatch is bit-identical.
    system_.EvaluateAll(x, row_values_);
    for (std::size_t c = 0; c < system_.size(); ++c) {
      const double cv = row_values_[c];
      if (system_.Kind(c) == ConstraintKind::kGeZero) {
        // Treat as g(x) = -c(x) <= 0.
        const double active = std::max(0.0, ratio_[c] - cv);
        value += 0.5 * penalty_ * active * active - shift_[c];
      } else {
        const double lambda = multipliers_[c];
        value += lambda * cv + 0.5 * penalty_ * cv * cv;
      }
    }
    if (grad != nullptr) {
      ScatterRows(x, *grad);
    }
    return value;
  }

  /// grad += the constraint terms' gradient at the batched row values.
  void ScatterRows(const Vector& x, Vector& grad) const {
    for (std::size_t c = 0; c < system_.size(); ++c) {
      const double cv = row_values_[c];
      if (system_.Kind(c) == ConstraintKind::kGeZero) {
        const double active = std::max(0.0, ratio_[c] - cv);
        if (active > 0.0) {
          system_.AccumulateGradient(c, x, -penalty_ * active, grad);
        }
      } else {
        system_.AccumulateGradient(c, x, multipliers_[c] + penalty_ * cv,
                                   grad);
      }
    }
  }

  const Objective& base_;
  const System& system_;
  const std::vector<double>& multipliers_;
  double penalty_;
  std::vector<double>& ratio_;  // per >=-row: lambda / rho
  std::vector<double>& shift_;  // per >=-row: (0.5 * lambda * lambda) / rho
  std::vector<double>& row_values_;  // batched row values (phase one)
};

template <typename System>
double MaxViolation(const System& system, const Vector& x,
                    std::vector<double>& row_scratch) {
  system.EvaluateAll(x, row_scratch);
  double worst = 0.0;
  for (std::size_t c = 0; c < system.size(); ++c) {
    const double value = row_scratch[c];
    const double violation = system.Kind(c) == ConstraintKind::kGeZero
                                 ? (value < 0.0 ? -value : 0.0)
                                 : (value < 0.0 ? -value : value);
    worst = std::max(worst, violation);
  }
  return worst;
}

template <typename System>
AlmReport Drive(const Objective& objective, const FeasibleSet& set,
                const System& system, Vector& x, const AlmOptions& options,
                AlmWorkspace& ws) {
  ACS_REQUIRE(x.size() == objective.dim(), "start point dimension mismatch");
  AlmReport report;

  if (system.size() == 0) {
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
                         options.dual_seed->size() == system.size();
  std::vector<double>& multipliers = ws.multipliers;
  if (warm_dual) {
    multipliers = *options.dual_seed;
  } else {
    multipliers.assign(system.size(), 0.0);
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

    AugmentedObjective<System> augmented(objective, system, multipliers,
                                         penalty, ws.penalty_ratio,
                                         ws.penalty_shift, ws.row_values);
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
    for (std::size_t c = 0; c < system.size(); ++c) {
      const double cv = ws.row_values[c];
      if (system.Kind(c) == ConstraintKind::kGeZero) {
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

  // Slot-major padded mirror for the batched evaluation; bail out when a
  // row exceeds three terms (never happens for the ACS chain system) or an
  // index does not fit the 32-bit gather lanes.
  const std::size_t n_rows = rows();
  packed3 = true;
  for (std::size_t r = 0; r < n_rows && packed3; ++r) {
    if (row_begin[r + 1] - row_begin[r] > 3) {
      packed3 = false;
    }
  }
  for (std::size_t t = 0; t < term_index.size() && packed3; ++t) {
    if (term_index[t] >
        static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
      packed3 = false;
    }
  }
  if (packed3) {
    packed_coeff.assign(3 * n_rows, 0.0);
    packed_idx.assign(3 * n_rows, 0);
    for (std::size_t r = 0; r < n_rows; ++r) {
      const std::size_t b = row_begin[r];
      const std::size_t e = row_begin[r + 1];
      for (std::size_t t = b; t < e; ++t) {
        const std::size_t slot = t - b;
        packed_coeff[slot * n_rows + r] = term_coeff[t];
        packed_idx[slot * n_rows + r] =
            static_cast<std::int32_t>(term_index[t]);
      }
    }
  } else {
    packed_coeff.clear();
    packed_idx.clear();
  }
}

AlmReport MinimizeAlm(const Objective& objective, const FeasibleSet& set,
                      const std::vector<const ConstraintFunction*>& constraints,
                      Vector& x, const AlmOptions& options,
                      AlmWorkspace* workspace) {
  AlmWorkspace local;
  AlmWorkspace& ws = workspace != nullptr ? *workspace : local;
  return Drive(objective, set, PointerSystem(constraints), x, options, ws);
}

AlmReport MinimizeAlm(const Objective& objective, const FeasibleSet& set,
                      const std::vector<LinearConstraint>& constraints,
                      Vector& x, const AlmOptions& options,
                      AlmWorkspace* workspace) {
  AlmWorkspace local;
  AlmWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.flat.Assign(constraints);
  return Drive(objective, set, FlatSystem(ws.flat), x, options, ws);
}

}  // namespace dvs::opt
