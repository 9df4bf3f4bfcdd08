// Reusable solver scratch buffers.
//
// Every solver in the stack (SPG, ALM) historically allocated its
// working vectors per call — and some per *iteration* — which made redundant
// heap traffic the dominant cost of grid-scale experiments (hundreds of
// thousands of objective evaluations per cell).  The workspace structs here
// own those buffers instead: a caller keeps one workspace per thread, passes
// it to every solve, and after the first solve the steady-state path
// performs no solver allocations at all.  Passing nullptr (the default on
// every entry point) falls back to a call-local workspace, so the workspace
// parameter never changes results — only where the memory lives.
//
// Thread affinity: a workspace is not synchronised; it must be used by one
// thread at a time (one workspace per runner::ThreadPool worker is the
// intended pattern, see core::EvalWorkspace and runner::RunGrid).
#ifndef ACS_OPT_WORKSPACE_H
#define ACS_OPT_WORKSPACE_H

#include <cstdint>
#include <vector>

#include "opt/chain_ipm.h"
#include "opt/problem.h"
#include "opt/vec.h"
#include "util/simd.h"

namespace dvs::opt {

/// Scratch for MinimizeSpg: the iterate/gradient/direction vectors plus the
/// GLL nonmonotone window and the projection scratch shared with the
/// feasible set.
struct SpgWorkspace {
  Vector grad;
  Vector trial;
  Vector trial_grad;
  Vector direction;
  std::vector<double> recent;  // nonmonotone reference window
  ProjectionScratch projection;
};

/// One flattened linear constraint system: the same rows as a
/// std::vector<LinearConstraint>, stored contiguously so the augmented-
/// Lagrangian inner loop walks one array instead of chasing a heap vector
/// per constraint.  Term order is preserved exactly, so evaluations are
/// bit-identical to LinearConstraint::Evaluate.
struct FlatLinearSystem {
  std::vector<std::size_t> term_index;   // concatenated term variable indices
  std::vector<double> term_coeff;        // matching coefficients
  std::vector<std::size_t> row_begin;    // row r spans [row_begin[r], row_begin[r+1])
  std::vector<double> constant;          // per-row constant
  std::vector<ConstraintKind> kind;      // per-row sense

  // Padded slot-major mirror for the vectorized batch evaluation: slot t of
  // row r is packed_coeff[t * rows + r] * x[packed_idx[t * rows + r]]; rows
  // with fewer than three terms pad with coeff 0 / index 0.  Built by
  // Assign whenever every row carries <= 3 terms (the ACS chain system
  // always does); `packed3` is false otherwise and the batch path falls
  // back to the per-row loop.
  bool packed3 = false;
  std::vector<double> packed_coeff;       // 3 * rows, slot-major
  std::vector<std::int32_t> packed_idx;   // 3 * rows, slot-major

  std::size_t rows() const { return constant.size(); }

  /// Rebuilds from `constraints`, reusing capacity.
  void Assign(const std::vector<LinearConstraint>& constraints);

  /// Every row value into `out` (resized to rows()).  At scalar dispatch
  /// this is exactly the per-row Evaluate loop in row order; at AVX2
  /// dispatch with a packed3 system it gathers four rows per step.
  void EvaluateAll(const Vector& x, std::vector<double>& out) const {
    out.resize(rows());
    if (packed3 && util::simd::Active() != util::simd::Level::kScalar) {
      util::simd::PackedRows3(constant.data(), packed_coeff.data(),
                              packed_idx.data(), x.data(), out.data(),
                              rows());
      return;
    }
    for (std::size_t c = 0; c < rows(); ++c) {
      out[c] = Evaluate(c, x);
    }
  }

  // Row operations are inline: the augmented-Lagrangian evaluation calls
  // them once per row per objective evaluation — the hottest loop after the
  // objective itself.

  /// Row value: constant + sum coeff * x[index], in stored term order.
  /// Rows of the ACS chain system carry 1-3 terms, so those counts are
  /// unrolled (same accumulation order as the loop).
  double Evaluate(std::size_t row, const Vector& x) const {
    const std::size_t b = row_begin[row];
    const std::size_t e = row_begin[row + 1];
    double acc = constant[row];
    switch (e - b) {
      case 3:
        acc += term_coeff[b] * x[term_index[b]];
        acc += term_coeff[b + 1] * x[term_index[b + 1]];
        acc += term_coeff[b + 2] * x[term_index[b + 2]];
        return acc;
      case 2:
        acc += term_coeff[b] * x[term_index[b]];
        acc += term_coeff[b + 1] * x[term_index[b + 1]];
        return acc;
      case 1:
        acc += term_coeff[b] * x[term_index[b]];
        return acc;
      default:
        for (std::size_t t = b; t < e; ++t) {
          acc += term_coeff[t] * x[term_index[t]];
        }
        return acc;
    }
  }

  /// max(0, -value) for >=, |value| for ==.
  double Violation(std::size_t row, const Vector& x) const {
    const double value = Evaluate(row, x);
    if (kind[row] == ConstraintKind::kGeZero) {
      return value < 0.0 ? -value : 0.0;
    }
    return value < 0.0 ? -value : value;  // |value|
  }

  /// grad[index] += weight * coeff over the row's terms.
  void AccumulateGradient(std::size_t row, double weight, Vector& grad) const {
    const std::size_t b = row_begin[row];
    const std::size_t e = row_begin[row + 1];
    switch (e - b) {
      case 3:
        grad[term_index[b]] += weight * term_coeff[b];
        grad[term_index[b + 1]] += weight * term_coeff[b + 1];
        grad[term_index[b + 2]] += weight * term_coeff[b + 2];
        return;
      case 2:
        grad[term_index[b]] += weight * term_coeff[b];
        grad[term_index[b + 1]] += weight * term_coeff[b + 1];
        return;
      case 1:
        grad[term_index[b]] += weight * term_coeff[b];
        return;
      default:
        for (std::size_t t = b; t < e; ++t) {
          grad[term_index[t]] += weight * term_coeff[t];
        }
        return;
    }
  }
};

/// Scratch for MinimizeAlm: the inner SPG workspace, the multiplier vector
/// and the flattened constraint system of the all-linear overload.
struct AlmWorkspace {
  SpgWorkspace spg;
  std::vector<double> multipliers;
  std::vector<double> penalty_ratio;  // per >=-row: lambda / rho
  std::vector<double> penalty_shift;  // per >=-row: lambda^2 / (2 rho)
  std::vector<double> row_values;     // batched constraint-row values
  FlatLinearSystem flat;
};

/// The full per-thread solver scratch bundle.
struct SolverWorkspace {
  AlmWorkspace alm;
  ChainIpmWorkspace chain;  // exact WCS solves
};

}  // namespace dvs::opt

#endif  // ACS_OPT_WORKSPACE_H
