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
//
// The work is split in two passes.  A solver plans the elimination of a
// sparsity pattern once (FrontalPlan, a symbolic pass over variable ids:
// each variable's frontier slot, the structural non-zeros, and per
// elimination its pivot and neighbours), then factors every Newton system of
// that pattern numerically from the plan (Frontier): it adds at planned
// slots and eliminates over planned neighbours, with no id lookups, no scan
// of the whole frontier and no slot moves.
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

/// The symbolic elimination of one sparsity pattern.  Build it by replaying
/// the assembly's order on ids: Slot when a node first touches a variable,
/// Touch for every entry the assembly adds to, Eliminate when no later node
/// touches the variable.  A variable keeps its slot until it is eliminated;
/// a freed slot is reused by a later one.
///
/// Each elimination lists its neighbours (the variables it is structurally
/// coupled to, fill-in included) in a fixed order: variables in order of
/// entry, where an eliminated variable's place goes to the last one.  The
/// elimination records, and so the back-substitution's sums, follow that
/// order, which fixes their rounding.
class FrontalPlan {
 public:
  struct Step {
    std::int64_t id;        // the eliminated variable
    std::size_t slot;       // its frontier slot
    bool negative;          // a multiplier or lifting pivot
    std::size_t nbr_begin;  // its neighbours: [nbr_begin, NeighboursEnd)
  };

  /// Starts an empty plan whose frontier holds at most `cap` variables.
  void Reset(std::size_t cap) {
    // Only the variables left live by the previous plan (one cut short by
    // an overflow included) have a slot to forget.
    for (std::size_t slot : order_) {
      slot_of_[static_cast<std::size_t>(id_of_[slot])] = kNoSlot;
    }
    cap_ = cap;
    steps_.clear();
    nbr_slot_.clear();
    nbr_id_.clear();
    order_.clear();
    id_of_.assign(cap, -1);
    position_.assign(cap, 0);
    pattern_.assign(cap * cap, 0);
    free_.resize(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      free_[i] = cap - 1 - i;  // slot 0 is handed out first
    }
  }

  std::size_t cap() const { return cap_; }

  bool Has(std::int64_t id) const {
    const std::size_t i = static_cast<std::size_t>(id);
    return i < slot_of_.size() && slot_of_[i] != kNoSlot;
  }

  /// The slot of `id`, entering it into the frontier on first touch.
  std::size_t Slot(std::int64_t id) {
    const std::size_t i = static_cast<std::size_t>(id);
    if (i >= slot_of_.size()) {
      slot_of_.resize(i + 1, kNoSlot);
    }
    if (slot_of_[i] != kNoSlot) {
      return slot_of_[i];
    }
    ACS_CHECK(order_.size() < cap_, "frontal system overflow");
    const std::size_t slot = free_.back();
    free_.pop_back();
    slot_of_[i] = slot;
    id_of_[slot] = id;
    position_[slot] = order_.size();
    order_.push_back(slot);
    return slot;
  }

  /// Marks the entries (i, j) and (j, i) structurally non-zero.
  void Touch(std::size_t i, std::size_t j) {
    pattern_[i * cap_ + j] = 1;
    pattern_[j * cap_ + i] = 1;
  }

  /// Appends the elimination of `id`; nothing when it is not in the
  /// frontier.
  void Eliminate(std::int64_t id, bool negative) {
    if (!Has(id)) {
      return;
    }
    const std::size_t slot = slot_of_[static_cast<std::size_t>(id)];
    const std::size_t begin = nbr_slot_.size();
    steps_.push_back(Step{id, slot, negative, begin});
    for (std::size_t j : order_) {
      if (j != slot && pattern_[slot * cap_ + j] != 0) {
        nbr_slot_.push_back(j);
        nbr_id_.push_back(id_of_[j]);
      }
    }
    // Fill-in: the neighbours couple to each other.
    for (std::size_t a = begin; a < nbr_slot_.size(); ++a) {
      for (std::size_t b = begin; b < nbr_slot_.size(); ++b) {
        pattern_[nbr_slot_[a] * cap_ + nbr_slot_[b]] = 1;
      }
    }
    for (std::size_t j = 0; j < cap_; ++j) {
      pattern_[slot * cap_ + j] = 0;
      pattern_[j * cap_ + slot] = 0;
    }
    const std::size_t pos = position_[slot];
    order_[pos] = order_.back();
    position_[order_[pos]] = pos;
    order_.pop_back();
    slot_of_[static_cast<std::size_t>(id)] = kNoSlot;
    free_.push_back(slot);
  }

  const std::vector<Step>& steps() const { return steps_; }
  std::size_t NeighboursEnd(std::size_t k) const {
    return k + 1 < steps_.size() ? steps_[k + 1].nbr_begin : nbr_slot_.size();
  }
  const std::vector<std::size_t>& neighbour_slots() const { return nbr_slot_; }
  const std::vector<std::int64_t>& neighbour_ids() const { return nbr_id_; }

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  std::size_t cap_ = 0;
  std::vector<Step> steps_;
  std::vector<std::size_t> nbr_slot_;
  std::vector<std::int64_t> nbr_id_;
  // Symbolic state while the plan is built.
  std::vector<std::size_t> slot_of_;   // per id: its slot or kNoSlot
  std::vector<std::int64_t> id_of_;    // per slot
  std::vector<std::size_t> order_;     // live slots, in neighbour order
  std::vector<std::size_t> position_;  // per live slot: its index in order_
  std::vector<std::size_t> free_;      // free slots
  std::vector<unsigned char> pattern_;  // cap x cap structural non-zeros
};

/// Reusable buffers of one frontal system (one per thread).
struct FrontalBuffers {
  std::vector<double> frontier;        // dense frontier matrix
  std::vector<double> frontier_rhs;
  std::vector<double> frontier_scale;  // diagonal mass per frontier slot
  // Elimination records: per step its pivot, right-hand side and the range
  // [rec_begin[k], rec_begin[k + 1]) of its row's non-zeros.
  std::vector<double> rec_pivot, rec_rhs;
  std::vector<std::size_t> rec_begin;
  std::vector<std::int64_t> rec_nbr;
  std::vector<double> rec_coeff;
  std::vector<std::size_t> nonzero;    // scratch of one elimination
};

/// One Newton system, factored numerically along a FrontalPlan.
class Frontier {
 public:
  /// `modify` replaces a primal pivot that is clearly negative (below minus
  /// the noise floor) by its magnitude, so a non-convex system is factored
  /// as the Hessian plus a non-negative diagonal (a modified Cholesky
  /// factorisation, whose step still descends), and a negative (lifting)
  /// pivot that is not clearly negative by minus its magnitude, at least the
  /// floor.  The default clamps every small primal pivot, which is right for
  /// convex systems whose only failure is cancellation.
  Frontier(FrontalBuffers& ws, const FrontalPlan& plan, bool modify = false)
      : ws_(ws), plan_(plan), cap_(plan.cap()), modify_(modify) {
    // Every elimination clears its slot, but a system that failed part way
    // leaves entries behind: start from zero.
    ws_.frontier.assign(cap_ * cap_, 0.0);
    ws_.frontier_rhs.assign(cap_, 0.0);
    ws_.frontier_scale.assign(cap_, 0.0);
    // Records are written in place; the plan bounds their sizes.
    const std::size_t steps = plan.steps().size();
    const std::size_t nbrs = plan.neighbour_slots().size();
    ws_.rec_pivot.resize(steps);
    ws_.rec_rhs.resize(steps);
    ws_.rec_begin.resize(steps + 1);
    ws_.rec_begin[0] = 0;
    ws_.rec_nbr.resize(nbrs);
    ws_.rec_coeff.resize(nbrs);
    ws_.nonzero.resize(cap_);
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

  /// Performs the plan's next elimination, recording the pivot row for
  /// back-substitution.  False when the pivot has the wrong sign (primal
  /// pivots are positive, multiplier pivots negative) or is not finite.
  bool Eliminate() {
    const FrontalPlan::Step& step = plan_.steps()[done_];
    const std::size_t slot = step.slot;
    const bool negative = step.negative;
    double* m = ws_.frontier.data();
    double* rhs = ws_.frontier_rhs.data();
    double pivot = m[slot * cap_ + slot];
    const double floor = kFrontalPivotFloor * ws_.frontier_scale[slot];
    if (!negative && modify_ && pivot < -floor) {
      pivot = -pivot;
    }
    if (negative && modify_ && !(pivot < -floor)) {
      // A lifting pivot that its couplings to earlier lifting or modified
      // pivots left non-negative: the same modification, mirrored.
      pivot = -std::max(std::fabs(pivot), floor);
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
    ws_.rec_pivot[done_] = pivot;
    ws_.rec_rhs[done_] = rhs[slot];
    // Only the pivot row's nonzeros take part: the matrix is symmetric in
    // structure, and an exact zero neither updates an entry nor enters a
    // record.
    const std::size_t begin = step.nbr_begin;
    const std::size_t end = plan_.NeighboursEnd(done_);
    const std::size_t* nbr = plan_.neighbour_slots().data();
    const std::int64_t* nbr_id = plan_.neighbour_ids().data();
    std::size_t* nz = ws_.nonzero.data();
    std::size_t count = 0;
    std::size_t record = ws_.rec_begin[done_];
    for (std::size_t e = begin; e < end; ++e) {
      const double coeff = m[slot * cap_ + nbr[e]];
      if (coeff != 0.0) {
        nz[count++] = nbr[e];
        ws_.rec_nbr[record] = nbr_id[e];
        ws_.rec_coeff[record++] = coeff;
      }
    }
    ws_.rec_begin[done_ + 1] = record;
    for (std::size_t a = 0; a < count; ++a) {
      const std::size_t i = nz[a];
      const double l = m[i * cap_ + slot] / pivot;
      for (std::size_t b = 0; b < count; ++b) {
        m[i * cap_ + nz[b]] -= l * m[slot * cap_ + nz[b]];
      }
      rhs[i] -= l * rhs[slot];
    }
    // Free the slot for a later variable.
    for (std::size_t e = begin; e < end; ++e) {
      m[slot * cap_ + nbr[e]] = 0.0;
      m[nbr[e] * cap_ + slot] = 0.0;
    }
    m[slot * cap_ + slot] = 0.0;
    rhs[slot] = 0.0;
    ws_.frontier_scale[slot] = 0.0;
    ++done_;
    return true;
  }

  /// Eliminations performed so far.
  std::size_t eliminated() const { return done_; }

  /// Solves for every eliminated id (reverse elimination order).
  void BackSubstitute(std::vector<double>& values) const {
    for (std::size_t k = done_; k-- > 0;) {
      double v = ws_.rec_rhs[k];
      for (std::size_t e = ws_.rec_begin[k]; e < RecordEnd(k); ++e) {
        v -= ws_.rec_coeff[e] *
             values[static_cast<std::size_t>(ws_.rec_nbr[e])];
      }
      values[Id(k)] = v / ws_.rec_pivot[k];
    }
  }

  /// Solves the factored system for another right-hand side, given in full
  /// by id: replays the recorded eliminations on `rhs` (overwritten by the
  /// forward pass), then back-substitutes into `values`.  The factorisation
  /// is reused as it was recorded, modified and clamped pivots included.
  void Resolve(std::vector<double>& rhs, std::vector<double>& values) const {
    for (std::size_t k = 0; k < done_; ++k) {
      const double y = rhs[Id(k)] / ws_.rec_pivot[k];
      for (std::size_t e = ws_.rec_begin[k]; e < RecordEnd(k); ++e) {
        rhs[static_cast<std::size_t>(ws_.rec_nbr[e])] -= ws_.rec_coeff[e] * y;
      }
    }
    for (std::size_t k = done_; k-- > 0;) {
      double v = rhs[Id(k)];
      for (std::size_t e = ws_.rec_begin[k]; e < RecordEnd(k); ++e) {
        v -= ws_.rec_coeff[e] *
             values[static_cast<std::size_t>(ws_.rec_nbr[e])];
      }
      values[Id(k)] = v / ws_.rec_pivot[k];
    }
  }

 private:
  std::size_t Id(std::size_t k) const {
    return static_cast<std::size_t>(plan_.steps()[k].id);
  }
  std::size_t RecordEnd(std::size_t k) const { return ws_.rec_begin[k + 1]; }

  FrontalBuffers& ws_;
  const FrontalPlan& plan_;
  std::size_t cap_;
  bool modify_;
  std::size_t done_ = 0;
};

}  // namespace dvs::opt

#endif  // ACS_OPT_FRONTAL_H
