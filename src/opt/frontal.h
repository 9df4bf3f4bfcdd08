// Frontal elimination of a symmetric Newton (KKT) system along an execution
// order, shared by the structured solvers (opt/chain_ipm, opt/replay_newton).
// A factored system can be solved again for another right-hand side.
//
// Variables enter a small dense frontier by id when a node first touches
// them and leave it once no later node can: elimination records the pivot
// row for the back-substitution, so a system over n nodes costs
// O(n * frontier^2) whatever its total size.  Primal variables are expected
// to pivot positive and multipliers (and lifting variables) negative: a
// pivot of the other sign means the system does not have the inertia of a
// convex program's Newton step.
#ifndef ACS_OPT_FRONTAL_H
#define ACS_OPT_FRONTAL_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.h"

namespace dvs::opt {

/// A primal pivot below this fraction of the diagonal mass that built it is
/// rounding noise; it is clamped to the floor.
inline constexpr double kFrontalPivotFloor = 1e-13;

/// Reusable buffers of one frontal system (one per thread).
struct FrontalBuffers {
  std::vector<double> frontier;        // dense frontier matrix
  std::vector<double> frontier_rhs;
  std::vector<double> frontier_scale;  // diagonal mass per frontier slot
  std::vector<std::int64_t> frontier_id;
  std::vector<std::int64_t> rec_id;    // elimination records
  std::vector<double> rec_pivot, rec_rhs;
  std::vector<std::size_t> rec_begin;
  std::vector<std::int64_t> rec_nbr;
  std::vector<double> rec_coeff;
  std::vector<std::size_t> nonzero;    // scratch of one elimination
};

class Frontier {
 public:
  /// `modify` replaces a primal pivot that is clearly negative (below minus
  /// the noise floor) by its magnitude, so a non-convex system is factored
  /// as the Hessian plus a non-negative diagonal (a modified Cholesky
  /// factorisation, whose step still descends), and a negative (lifting)
  /// pivot that is not clearly negative by minus its magnitude, at least the
  /// floor; modified() counts both.  The default clamps every small primal
  /// pivot, which is right for convex systems whose only failure is
  /// cancellation.
  Frontier(FrontalBuffers& ws, std::size_t cap, bool modify = false)
      : ws_(ws), cap_(cap), modify_(modify) {
    ws_.frontier.assign(cap * cap, 0.0);
    ws_.frontier_rhs.assign(cap, 0.0);
    ws_.frontier_scale.assign(cap, 0.0);
    ws_.frontier_id.clear();
    ws_.rec_id.clear();
    ws_.rec_pivot.clear();
    ws_.rec_rhs.clear();
    ws_.rec_begin.clear();
    ws_.rec_nbr.clear();
    ws_.rec_coeff.clear();
  }

  bool Has(std::int64_t id) const {
    for (std::int64_t open : ws_.frontier_id) {
      if (open == id) {
        return true;
      }
    }
    return false;
  }

  std::size_t Slot(std::int64_t id) {
    for (std::size_t i = 0; i < ws_.frontier_id.size(); ++i) {
      if (ws_.frontier_id[i] == id) {
        return i;
      }
    }
    ACS_CHECK(ws_.frontier_id.size() < cap_, "frontal system overflow");
    ws_.frontier_id.push_back(id);
    return ws_.frontier_id.size() - 1;
  }

  void Add(std::size_t i, std::size_t j, double value) {
    ws_.frontier[i * cap_ + j] += value;
    if (i != j) {
      ws_.frontier[j * cap_ + i] += value;
    } else {
      ws_.frontier_scale[i] += std::fabs(value);
    }
  }
  void AddRhs(std::size_t i, double value) { ws_.frontier_rhs[i] += value; }

  /// Eliminates `slot`, recording its row for back-substitution.  False
  /// when the pivot has the wrong sign (primal pivots are positive,
  /// multiplier pivots negative) or is not finite.
  bool Eliminate(std::size_t slot, bool negative) {
    double* m = ws_.frontier.data();
    double* rhs = ws_.frontier_rhs.data();
    const std::size_t size = ws_.frontier_id.size();
    double pivot = m[slot * cap_ + slot];
    const double floor = kFrontalPivotFloor * ws_.frontier_scale[slot];
    if (!negative && modify_ && pivot < -floor) {
      pivot = -pivot;
      ++modified_;
    }
    if (negative && modify_ && !(pivot < -floor)) {
      // A lifting pivot that its couplings to earlier lifting or modified
      // pivots left non-negative: the same modification, mirrored.
      pivot = -std::max(std::fabs(pivot), floor);
      ++modified_;
    }
    if (!negative && pivot <= floor) {
      // A primal pivot lost to cancellation among huge barrier terms (an
      // active chain row s_u >= f_{u-1} at a large barrier parameter):
      // clamp it to the noise floor.  (Dropping the direction instead froze
      // those starts and stalled the gap near 1e-6 on large sets.)
      pivot = floor;
    }
    if (!std::isfinite(pivot) || (negative ? !(pivot < 0.0) : !(pivot > 0.0))) {
      return false;
    }
    ws_.rec_id.push_back(ws_.frontier_id[slot]);
    ws_.rec_pivot.push_back(pivot);
    ws_.rec_rhs.push_back(rhs[slot]);
    ws_.rec_begin.push_back(ws_.rec_nbr.size());
    // Only the pivot row's nonzeros take part: the matrix is symmetric, and
    // an exact zero neither updates an entry nor enters a record.
    std::vector<std::size_t>& nz = ws_.nonzero;
    nz.clear();
    for (std::size_t j = 0; j < size; ++j) {
      if (j != slot && m[slot * cap_ + j] != 0.0) {
        nz.push_back(j);
        ws_.rec_nbr.push_back(ws_.frontier_id[j]);
        ws_.rec_coeff.push_back(m[slot * cap_ + j]);
      }
    }
    for (std::size_t i : nz) {
      const double l = m[i * cap_ + slot] / pivot;
      for (std::size_t j : nz) {
        m[i * cap_ + j] -= l * m[slot * cap_ + j];
      }
      rhs[i] -= l * rhs[slot];
    }
    // Move the last slot into the freed one and clear the last.
    const std::size_t last = size - 1;
    if (slot != last) {
      for (std::size_t j = 0; j < size; ++j) {
        m[slot * cap_ + j] = m[last * cap_ + j];
      }
      for (std::size_t i = 0; i < size; ++i) {
        m[i * cap_ + slot] = m[i * cap_ + last];
      }
      m[slot * cap_ + slot] = m[last * cap_ + last];
      rhs[slot] = rhs[last];
      ws_.frontier_scale[slot] = ws_.frontier_scale[last];
      ws_.frontier_id[slot] = ws_.frontier_id[last];
    }
    for (std::size_t j = 0; j < size; ++j) {
      m[last * cap_ + j] = 0.0;
      m[j * cap_ + last] = 0.0;
    }
    rhs[last] = 0.0;
    ws_.frontier_scale[last] = 0.0;
    ws_.frontier_id.pop_back();
    return true;
  }

  std::size_t modified() const { return modified_; }

  /// Eliminates variable `id` if it is in the frontier (see Eliminate).
  bool EliminateId(std::int64_t id, bool negative) {
    return !Has(id) || Eliminate(Slot(id), negative);
  }

  /// Solves for every eliminated id (reverse elimination order).
  void BackSubstitute(std::vector<double>& values) const {
    for (std::size_t k = ws_.rec_id.size(); k-- > 0;) {
      double v = ws_.rec_rhs[k];
      const std::size_t end =
          k + 1 < ws_.rec_begin.size() ? ws_.rec_begin[k + 1]
                                       : ws_.rec_nbr.size();
      for (std::size_t e = ws_.rec_begin[k]; e < end; ++e) {
        v -= ws_.rec_coeff[e] *
             values[static_cast<std::size_t>(ws_.rec_nbr[e])];
      }
      values[static_cast<std::size_t>(ws_.rec_id[k])] = v / ws_.rec_pivot[k];
    }
  }

  /// Solves the factored system for another right-hand side, given in full
  /// by id: replays the recorded eliminations on `rhs` (overwritten by the
  /// forward pass), then back-substitutes into `values`.  The factorisation
  /// is reused as it was recorded, modified and clamped pivots included.
  void Resolve(std::vector<double>& rhs, std::vector<double>& values) const {
    const std::size_t records = ws_.rec_id.size();
    const auto end_of = [this, records](std::size_t k) {
      return k + 1 < records ? ws_.rec_begin[k + 1] : ws_.rec_nbr.size();
    };
    for (std::size_t k = 0; k < records; ++k) {
      const double y =
          rhs[static_cast<std::size_t>(ws_.rec_id[k])] / ws_.rec_pivot[k];
      for (std::size_t e = ws_.rec_begin[k]; e < end_of(k); ++e) {
        rhs[static_cast<std::size_t>(ws_.rec_nbr[e])] -= ws_.rec_coeff[e] * y;
      }
    }
    for (std::size_t k = records; k-- > 0;) {
      double v = rhs[static_cast<std::size_t>(ws_.rec_id[k])];
      for (std::size_t e = ws_.rec_begin[k]; e < end_of(k); ++e) {
        v -= ws_.rec_coeff[e] *
             values[static_cast<std::size_t>(ws_.rec_nbr[e])];
      }
      values[static_cast<std::size_t>(ws_.rec_id[k])] = v / ws_.rec_pivot[k];
    }
  }

 private:
  FrontalBuffers& ws_;
  std::size_t cap_;
  bool modify_;
  std::size_t modified_ = 0;
};

}  // namespace dvs::opt

#endif  // ACS_OPT_FRONTAL_H
