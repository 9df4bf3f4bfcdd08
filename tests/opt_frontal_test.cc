// Tests for the planned frontal elimination (opt/frontal.h): it records the
// same eliminations, bit for bit, as a frontier that looks variables up by
// id and moves its last slot into each freed one; reused buffers and plans
// give the same records as fresh ones, also after a failed system or an
// overflowing plan; a re-solve matches the back-substitution; and a plan
// that outgrows its frontier throws.
#include "opt/frontal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "stats/rng.h"
#include "util/error.h"

namespace dvs::opt {
namespace {

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// The reference: a dense frontier that finds variables by a linear scan,
/// scans its whole pivot row for non-zeros and moves its last slot into
/// each freed one.
class MovingFrontier {
 public:
  MovingFrontier(std::size_t cap, bool modify)
      : cap_(cap), modify_(modify), m_(cap * cap, 0.0), rhs_(cap, 0.0),
        scale_(cap, 0.0) {}

  std::size_t Slot(std::int64_t id) {
    for (std::size_t i = 0; i < id_.size(); ++i) {
      if (id_[i] == id) {
        return i;
      }
    }
    if (id_.size() == cap_) {
      throw util::InternalError("reference frontier overflow");
    }
    id_.push_back(id);
    return id_.size() - 1;
  }
  bool Has(std::int64_t id) const {
    for (std::int64_t open : id_) {
      if (open == id) {
        return true;
      }
    }
    return false;
  }
  void Add(std::size_t i, std::size_t j, double value) {
    m_[i * cap_ + j] += value;
    if (i != j) {
      m_[j * cap_ + i] += value;
    } else {
      scale_[i] += std::fabs(value);
    }
  }
  void AddRhs(std::size_t i, double value) { rhs_[i] += value; }

  bool Eliminate(std::size_t slot, bool negative) {
    const std::size_t size = id_.size();
    double pivot = m_[slot * cap_ + slot];
    const double floor = kFrontalPivotFloor * scale_[slot];
    if (!negative && modify_ && pivot < -floor) {
      pivot = -pivot;
    }
    if (negative && modify_ && !(pivot < -floor)) {
      pivot = -std::max(std::fabs(pivot), floor);
    }
    if (!negative && pivot <= floor) {
      pivot = floor;
    }
    if (!std::isfinite(pivot) || (negative ? !(pivot < 0.0) : !(pivot > 0.0))) {
      return false;
    }
    rec_id.push_back(id_[slot]);
    rec_pivot.push_back(pivot);
    rec_rhs.push_back(rhs_[slot]);
    rec_begin.push_back(rec_nbr.size());
    std::vector<std::size_t> nz;
    for (std::size_t j = 0; j < size; ++j) {
      if (j != slot && m_[slot * cap_ + j] != 0.0) {
        nz.push_back(j);
        rec_nbr.push_back(id_[j]);
        rec_coeff.push_back(m_[slot * cap_ + j]);
      }
    }
    for (std::size_t i : nz) {
      const double l = m_[i * cap_ + slot] / pivot;
      for (std::size_t j : nz) {
        m_[i * cap_ + j] -= l * m_[slot * cap_ + j];
      }
      rhs_[i] -= l * rhs_[slot];
    }
    const std::size_t last = size - 1;
    if (slot != last) {
      for (std::size_t j = 0; j < size; ++j) {
        m_[slot * cap_ + j] = m_[last * cap_ + j];
      }
      for (std::size_t i = 0; i < size; ++i) {
        m_[i * cap_ + slot] = m_[i * cap_ + last];
      }
      m_[slot * cap_ + slot] = m_[last * cap_ + last];
      rhs_[slot] = rhs_[last];
      scale_[slot] = scale_[last];
      id_[slot] = id_[last];
    }
    for (std::size_t j = 0; j < size; ++j) {
      m_[last * cap_ + j] = 0.0;
      m_[j * cap_ + last] = 0.0;
    }
    rhs_[last] = 0.0;
    scale_[last] = 0.0;
    id_.pop_back();
    return true;
  }
  bool EliminateId(std::int64_t id, bool negative) {
    return !Has(id) || Eliminate(Slot(id), negative);
  }

  void BackSubstitute(std::vector<double>& values) const {
    for (std::size_t k = rec_id.size(); k-- > 0;) {
      double v = rec_rhs[k];
      const std::size_t end =
          k + 1 < rec_begin.size() ? rec_begin[k + 1] : rec_nbr.size();
      for (std::size_t e = rec_begin[k]; e < end; ++e) {
        v -= rec_coeff[e] * values[static_cast<std::size_t>(rec_nbr[e])];
      }
      values[static_cast<std::size_t>(rec_id[k])] = v / rec_pivot[k];
    }
  }

  std::vector<std::int64_t> rec_id;
  std::vector<double> rec_pivot, rec_rhs;
  std::vector<std::size_t> rec_begin;
  std::vector<std::int64_t> rec_nbr;
  std::vector<double> rec_coeff;

 private:
  std::size_t cap_;
  bool modify_;
  std::vector<double> m_, rhs_, scale_;
  std::vector<std::int64_t> id_;
};

/// A random system assembled along an order of nodes.  Node k touches the
/// variables k .. k + width - 1 (some also an extra variable far ahead, so
/// slots are freed and reused out of order), adds a random symmetric block
/// (some entries exactly zero, some cancelling to zero) and a right-hand
/// side, then eliminates variable k; the last node eliminates the rest,
/// ids never touched included (which eliminates nothing).
struct Assembly {
  struct Add {
    std::int64_t i, j;
    double value;
  };
  struct Node {
    std::vector<Add> adds;
    std::vector<std::pair<std::int64_t, double>> rhs;
    std::vector<std::int64_t> eliminate;
  };
  std::size_t ids = 0;
  std::size_t cap = 0;
  std::vector<Node> nodes;
  std::vector<unsigned char> negative;  // per id: a negative pivot
};

Assembly RandomAssembly(std::uint64_t seed, bool indefinite) {
  stats::Rng rng(seed);
  Assembly a;
  const std::size_t n = 12 + static_cast<std::size_t>(rng.UniformInt(0, 10));
  const std::size_t width = 2 + static_cast<std::size_t>(rng.UniformInt(0, 3));
  a.ids = n + width + 4;
  a.cap = width + 6;
  a.negative.assign(a.ids, 0);
  if (indefinite) {
    // Lifting-like variables: negative pivots, some left non-negative by
    // their couplings (the modified factorisation mirrors those).
    for (std::size_t v = 0; v < a.ids; ++v) {
      a.negative[v] = rng.NextDouble() < 0.15 ? 1 : 0;
    }
  }
  std::vector<unsigned char> done(a.ids, 0);
  for (std::size_t k = 0; k < n; ++k) {
    Assembly::Node node;
    std::vector<std::int64_t> vars;
    for (std::size_t v = k; v < k + width; ++v) {
      vars.push_back(static_cast<std::int64_t>(v));
    }
    if (rng.NextDouble() < 0.3 && k + width + 3 < a.ids) {
      vars.push_back(static_cast<std::int64_t>(k + width + 3));
    }
    for (std::size_t x = 0; x < vars.size(); ++x) {
      const std::int64_t i = vars[x];
      // Diagonal dominance keeps the convex systems' pivots positive.
      const double diag = static_cast<double>(vars.size()) + rng.NextDouble();
      const bool flip = a.negative[static_cast<std::size_t>(i)] != 0 ||
                        (indefinite && rng.NextDouble() < 0.2);
      node.adds.push_back({i, i, flip ? -diag : diag});
      for (std::size_t y = 0; y < x; ++y) {
        const double u = rng.NextDouble();
        if (u < 0.15) {
          node.adds.push_back({i, vars[y], 0.0});
        } else if (u < 0.3) {
          node.adds.push_back({i, vars[y], 0.75});
          node.adds.push_back({vars[y], i, -0.75});
        } else {
          node.adds.push_back({i, vars[y], rng.Uniform(-1.0, 1.0)});
        }
      }
      node.rhs.emplace_back(i, rng.Uniform(-1.0, 1.0));
    }
    const auto finish = [&](std::int64_t id) {
      node.eliminate.push_back(id);
      done[static_cast<std::size_t>(id)] = 1;
    };
    finish(static_cast<std::int64_t>(k));
    if (k + 1 == n) {
      for (std::size_t v = 0; v < a.ids; ++v) {
        if (!done[v]) {
          finish(static_cast<std::int64_t>(v));  // untouched ids are skipped
        }
      }
    }
    a.nodes.push_back(std::move(node));
  }
  return a;
}

/// The records and solution of one factorisation.
struct Factored {
  bool ok = false;
  std::vector<std::int64_t> id;
  std::vector<std::uint64_t> pivot, rhs, coeff, solution;
  std::vector<std::int64_t> nbr;
  std::vector<std::size_t> begin;
};

Factored FactorMoving(const Assembly& a, bool modify) {
  MovingFrontier fr(a.cap, modify);
  Factored f;
  for (const Assembly::Node& node : a.nodes) {
    for (const Assembly::Add& add : node.adds) {
      const std::size_t i = fr.Slot(add.i);
      fr.Add(i, fr.Slot(add.j), add.value);
    }
    for (const auto& [id, value] : node.rhs) {
      fr.AddRhs(fr.Slot(id), value);
    }
    for (std::int64_t id : node.eliminate) {
      if (!fr.EliminateId(id, a.negative[static_cast<std::size_t>(id)] != 0)) {
        return f;
      }
    }
  }
  std::vector<double> values(a.ids, 0.0);
  fr.BackSubstitute(values);
  f.ok = true;
  f.id = fr.rec_id;
  for (double v : fr.rec_pivot) f.pivot.push_back(Bits(v));
  for (double v : fr.rec_rhs) f.rhs.push_back(Bits(v));
  for (double v : fr.rec_coeff) f.coeff.push_back(Bits(v));
  for (double v : values) f.solution.push_back(Bits(v));
  f.nbr = fr.rec_nbr;
  f.begin = fr.rec_begin;
  return f;
}

/// Plans `a` (its symbolic pass) into `plan`; per node, the end of its
/// planned eliminations.
std::vector<std::size_t> Plan(const Assembly& a, FrontalPlan& plan) {
  plan.Reset(a.cap);
  std::vector<std::size_t> ends;
  for (const Assembly::Node& node : a.nodes) {
    for (const Assembly::Add& add : node.adds) {
      const std::size_t i = plan.Slot(add.i);
      plan.Touch(i, plan.Slot(add.j));
    }
    for (const auto& pair : node.rhs) {
      plan.Slot(pair.first);
    }
    for (std::int64_t id : node.eliminate) {
      plan.Eliminate(id, a.negative[static_cast<std::size_t>(id)] != 0);
    }
    ends.push_back(plan.steps().size());
  }
  return ends;
}

/// Factors `a` along its plan; with `resolved`, also re-solves the
/// factored system for its own right-hand side into it.
Factored FactorPlanned(const Assembly& a, bool modify, FrontalBuffers& ws,
                       FrontalPlan& plan,
                       std::vector<double>* resolved = nullptr) {
  const std::vector<std::size_t> ends = Plan(a, plan);
  // The numeric pass adds at the slots the symbolic pass gave out, which
  // the plan no longer holds once a variable is eliminated: record them.
  FrontalPlan shadow;
  shadow.Reset(a.cap);
  std::vector<std::vector<std::size_t>> add_slots, rhs_slots;
  for (const Assembly::Node& node : a.nodes) {
    std::vector<std::size_t> adds, rhs;
    for (const Assembly::Add& add : node.adds) {
      adds.push_back(shadow.Slot(add.i));
      adds.push_back(shadow.Slot(add.j));
    }
    for (const auto& pair : node.rhs) {
      rhs.push_back(shadow.Slot(pair.first));
    }
    for (std::int64_t id : node.eliminate) {
      shadow.Eliminate(id, false);
    }
    add_slots.push_back(adds);
    rhs_slots.push_back(rhs);
  }
  Frontier fr(ws, plan, modify);
  Factored f;
  for (std::size_t k = 0; k < a.nodes.size(); ++k) {
    const Assembly::Node& node = a.nodes[k];
    for (std::size_t e = 0; e < node.adds.size(); ++e) {
      fr.Add(add_slots[k][2 * e], add_slots[k][2 * e + 1],
             node.adds[e].value);
    }
    for (std::size_t e = 0; e < node.rhs.size(); ++e) {
      fr.AddRhs(rhs_slots[k][e], node.rhs[e].second);
    }
    while (fr.eliminated() < ends[k]) {
      if (!fr.Eliminate()) {
        return f;
      }
    }
  }
  std::vector<double> values(a.ids, 0.0);
  fr.BackSubstitute(values);
  if (resolved != nullptr) {
    std::vector<double> rhs(a.ids, 0.0);
    for (const Assembly::Node& node : a.nodes) {
      for (const auto& [id, value] : node.rhs) {
        rhs[static_cast<std::size_t>(id)] += value;
      }
    }
    resolved->assign(a.ids, 0.0);
    fr.Resolve(rhs, *resolved);
  }
  f.ok = true;
  const std::size_t steps = plan.steps().size();
  for (std::size_t k = 0; k < steps; ++k) {
    f.id.push_back(plan.steps()[k].id);
    f.pivot.push_back(Bits(ws.rec_pivot[k]));
    f.rhs.push_back(Bits(ws.rec_rhs[k]));
    f.begin.push_back(ws.rec_begin[k]);
  }
  for (std::size_t e = 0; e < ws.rec_begin[steps]; ++e) {
    f.nbr.push_back(ws.rec_nbr[e]);
    f.coeff.push_back(Bits(ws.rec_coeff[e]));
  }
  for (double v : values) f.solution.push_back(Bits(v));
  return f;
}

void ExpectSame(const Factored& x, const Factored& y) {
  ASSERT_EQ(x.ok, y.ok);
  EXPECT_EQ(x.id, y.id);
  EXPECT_EQ(x.pivot, y.pivot);
  EXPECT_EQ(x.rhs, y.rhs);
  EXPECT_EQ(x.begin, y.begin);
  EXPECT_EQ(x.nbr, y.nbr);
  EXPECT_EQ(x.coeff, y.coeff);
  EXPECT_EQ(x.solution, y.solution);
}

// The planned factorisation performs the moving frontier's floating-point
// operations in the same order: the same pivots, records and solution to
// the bit, on convex systems and, with modified pivots, indefinite ones;
// exact and cancelled zeros are skipped as before.
TEST(Frontal, PlannedEliminationMatchesAMovingFrontierBitForBit) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    const bool indefinite = seed % 2 == 0;
    const Assembly a = RandomAssembly(seed, indefinite);
    FrontalBuffers ws;
    FrontalPlan plan;
    const Factored planned = FactorPlanned(a, indefinite, ws, plan);
    ASSERT_TRUE(planned.ok);
    ExpectSame(FactorMoving(a, indefinite), planned);
  }
}

TEST(Frontal, ReusedBuffersRecordTheSameEliminationsAsFreshOnes) {
  FrontalBuffers reused;
  FrontalPlan reused_plan;
  // Warm the buffers and the plan on larger systems first.
  for (std::uint64_t seed : {101u, 102u, 103u}) {
    ASSERT_TRUE(FactorPlanned(RandomAssembly(seed, false), false, reused,
                              reused_plan)
                    .ok);
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const Assembly a = RandomAssembly(seed, seed % 2 == 0);
    FrontalBuffers fresh;
    FrontalPlan fresh_plan;
    ExpectSame(FactorPlanned(a, seed % 2 == 0, fresh, fresh_plan),
               FactorPlanned(a, seed % 2 == 0, reused, reused_plan));
  }
}

// A multiplier whose pivot comes out positive fails the system part way,
// leaving entries in the buffers; the next system on them starts clean.
TEST(Frontal, AFailedSystemLeavesNoStaleSlotForTheNextOne) {
  Assembly bad = RandomAssembly(7, false);
  bad.negative[5] = 1;  // a positive pivot where a negative one is required
  FrontalBuffers reused;
  FrontalPlan reused_plan;
  EXPECT_FALSE(FactorPlanned(bad, false, reused, reused_plan).ok);
  const Assembly good = RandomAssembly(8, false);
  FrontalBuffers fresh;
  FrontalPlan fresh_plan;
  ExpectSame(FactorPlanned(good, false, fresh, fresh_plan),
             FactorPlanned(good, false, reused, reused_plan));
}

// A plan cut short by an overflow leaves variables live; resetting it
// forgets their slots, so a new plan on it equals a fresh one.
TEST(Frontal, OverflowThrowsAndLeavesNoStaleSlot) {
  FrontalPlan plan;
  plan.Reset(2);
  plan.Slot(0);
  plan.Slot(1);
  EXPECT_THROW(plan.Slot(2), util::InternalError);
  EXPECT_TRUE(plan.Has(0));
  const Assembly a = RandomAssembly(9, false);
  FrontalBuffers ws;
  FrontalBuffers fresh_ws;
  FrontalPlan fresh;
  ExpectSame(FactorPlanned(a, false, fresh_ws, fresh),
             FactorPlanned(a, false, ws, plan));
}

// Resolve on the factored system's own right-hand side reproduces the
// back-substitution (to rounding: it divides before it multiplies).
TEST(Frontal, ResolveEqualsBackSubstitute) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const Assembly a = RandomAssembly(seed, seed % 2 == 0);
    FrontalBuffers ws;
    FrontalPlan plan;
    std::vector<double> resolved;
    const Factored f = FactorPlanned(a, seed % 2 == 0, ws, plan, &resolved);
    ASSERT_TRUE(f.ok);
    double scale = 0.0;
    for (std::size_t v = 0; v < a.ids; ++v) {
      double direct = 0.0;
      std::memcpy(&direct, &f.solution[v], sizeof direct);
      scale = std::max(scale, std::fabs(direct));
    }
    for (std::size_t v = 0; v < a.ids; ++v) {
      double direct = 0.0;
      std::memcpy(&direct, &f.solution[v], sizeof direct);
      EXPECT_NEAR(resolved[v], direct, 1e-12 * scale) << "id " << v;
    }
  }
}

}  // namespace
}  // namespace dvs::opt
