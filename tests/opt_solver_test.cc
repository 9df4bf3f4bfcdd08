// Tests for the optimisation stack: SPG, augmented Lagrangian and
// the finite-difference reference.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "opt/augmented_lagrangian.h"
#include "opt/finite_diff.h"
#include "opt/problem.h"
#include "opt/spg.h"

namespace dvs::opt {
namespace {

/// f(x) = sum (x_i - c_i)^2 — convex quadratic with known minimiser.
class Quadratic final : public Objective {
 public:
  explicit Quadratic(Vector center) : center_(std::move(center)) {}
  std::size_t dim() const override { return center_.size(); }
  double Value(const Vector& x) const override {
    double f = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      f += (x[i] - center_[i]) * (x[i] - center_[i]);
    }
    return f;
  }
  void Gradient(const Vector& x, Vector& grad) const override {
    grad.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      grad[i] = 2.0 * (x[i] - center_[i]);
    }
  }

 private:
  Vector center_;
};

/// The 2-D Rosenbrock valley — the classic curvature stress test.
class Rosenbrock final : public Objective {
 public:
  std::size_t dim() const override { return 2; }
  double Value(const Vector& x) const override {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  }
  void Gradient(const Vector& x, Vector& grad) const override {
    grad.resize(2);
    const double b = x[1] - x[0] * x[0];
    grad[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * b;
    grad[1] = 200.0 * b;
  }
};

TEST(FiniteDiff, MatchesAnalyticGradient) {
  const Rosenbrock f;
  const Vector x{-1.2, 1.0};
  EXPECT_LT(GradientCheck(f, x), 1e-6);
}

TEST(FiniteDiff, FunctionOverload) {
  const auto f = [](const Vector& x) { return x[0] * x[0] * x[1]; };
  const Vector g = FiniteDifferenceGradient(f, {2.0, 3.0});
  EXPECT_NEAR(g[0], 12.0, 1e-5);
  EXPECT_NEAR(g[1], 4.0, 1e-5);
}

TEST(Spg, UnconstrainedQuadratic) {
  const Quadratic f({1.0, -2.0, 3.0});
  const FreeSet space;
  Vector x{0.0, 0.0, 0.0};
  const SpgReport report = MinimizeSpg(f, space, x);
  EXPECT_EQ(report.status, SolveStatus::kConverged);
  EXPECT_NEAR(x[0], 1.0, 1e-6);
  EXPECT_NEAR(x[1], -2.0, 1e-6);
  EXPECT_NEAR(x[2], 3.0, 1e-6);
}

TEST(Spg, BoxConstrainedQuadratic) {
  // Minimiser (5, 5) clipped by the box [0,1]^2 -> (1, 1).
  const Quadratic f({5.0, 5.0});
  BoxSimplexSet box(2);
  box.SetBounds(0, 0.0, 1.0);
  box.SetBounds(1, 0.0, 1.0);
  Vector x{0.5, 0.5};
  const SpgReport report = MinimizeSpg(f, box, x);
  EXPECT_EQ(report.status, SolveStatus::kConverged);
  EXPECT_NEAR(x[0], 1.0, 1e-8);
  EXPECT_NEAR(x[1], 1.0, 1e-8);
}

TEST(Spg, SimplexConstrainedQuadratic) {
  // min ||x - (1, 0, 0)||^2 over the probability simplex -> (1, 0, 0).
  const Quadratic f({1.0, 0.0, 0.0});
  BoxSimplexSet set(3);
  set.AddSimplex({0, 1, 2}, 1.0);
  Vector x{1.0 / 3, 1.0 / 3, 1.0 / 3};
  MinimizeSpg(f, set, x);
  EXPECT_NEAR(x[0], 1.0, 1e-6);
  EXPECT_NEAR(x[1], 0.0, 1e-6);
  EXPECT_NEAR(x[2], 0.0, 1e-6);
}

TEST(Spg, RosenbrockConverges) {
  const Rosenbrock f;
  const FreeSet space;
  Vector x{-1.2, 1.0};
  SpgOptions options;
  options.max_iterations = 5000;
  options.tolerance = 1e-8;
  const SpgReport report = MinimizeSpg(f, space, x, options);
  EXPECT_NEAR(x[0], 1.0, 1e-3);
  EXPECT_NEAR(x[1], 1.0, 1e-3);
  EXPECT_LT(report.final_value, 1e-6);
}

TEST(Alm, EqualityConstrainedQuadratic) {
  // min ||x||^2 s.t. x0 + x1 = 1 -> (0.5, 0.5).
  const Quadratic f({0.0, 0.0});
  const FreeSet space;
  LinearConstraint c;
  c.kind = ConstraintKind::kEqZero;
  c.terms = {{0, 1.0}, {1, 1.0}};
  c.constant = -1.0;
  Vector x{3.0, -1.0};
  const AlmReport report = MinimizeAlm(f, space, {c}, x);
  EXPECT_TRUE(report.feasible);
  EXPECT_NEAR(x[0], 0.5, 1e-5);
  EXPECT_NEAR(x[1], 0.5, 1e-5);
}

TEST(Alm, InequalityInactiveAtOptimum) {
  // min ||x - (0.2, 0.2)||^2 s.t. x0 + x1 <= 1: unconstrained optimum is
  // feasible, so ALM must return it untouched.
  const Quadratic f({0.2, 0.2});
  const FreeSet space;
  LinearConstraint c;
  c.kind = ConstraintKind::kGeZero;  // 1 - x0 - x1 >= 0
  c.terms = {{0, -1.0}, {1, -1.0}};
  c.constant = 1.0;
  Vector x{0.0, 0.0};
  const AlmReport report = MinimizeAlm(f, space, {c}, x);
  EXPECT_TRUE(report.feasible);
  EXPECT_NEAR(x[0], 0.2, 1e-5);
  EXPECT_NEAR(x[1], 0.2, 1e-5);
}

TEST(Alm, InequalityActiveAtOptimum) {
  // min ||x - (1, 1)||^2 s.t. x0 + x1 <= 1 -> (0.5, 0.5).
  const Quadratic f({1.0, 1.0});
  const FreeSet space;
  LinearConstraint c;
  c.kind = ConstraintKind::kGeZero;
  c.terms = {{0, -1.0}, {1, -1.0}};
  c.constant = 1.0;
  Vector x{0.0, 0.0};
  const AlmReport report = MinimizeAlm(f, space, {c}, x);
  EXPECT_TRUE(report.feasible);
  EXPECT_NEAR(x[0], 0.5, 1e-4);
  EXPECT_NEAR(x[1], 0.5, 1e-4);
}

TEST(Alm, CombinesBoxAndLinearConstraints) {
  // min ||x - (2, 2)||^2 s.t. x in [0,1]^2, x0 - x1 >= 0.5.
  // Optimum: x0 = 1 (box), then x1 <= 0.5, objective pulls x1 up -> 0.5.
  const Quadratic f({2.0, 2.0});
  BoxSimplexSet box(2);
  box.SetBounds(0, 0.0, 1.0);
  box.SetBounds(1, 0.0, 1.0);
  LinearConstraint c;
  c.kind = ConstraintKind::kGeZero;
  c.terms = {{0, 1.0}, {1, -1.0}};
  c.constant = -0.5;
  Vector x{0.0, 0.0};
  const AlmReport report = MinimizeAlm(f, box, {c}, x);
  EXPECT_TRUE(report.feasible);
  EXPECT_NEAR(x[0], 1.0, 1e-4);
  EXPECT_NEAR(x[1], 0.5, 1e-4);
}

TEST(Alm, ReportExportsMultipliersForActiveConstraints) {
  // Same active-inequality problem as above: the converged report must
  // carry one multiplier per constraint row, strictly positive for the
  // active row (KKT), so a chain neighbor can continue from it.
  const Quadratic f({1.0, 1.0});
  const FreeSet space;
  LinearConstraint c;
  c.kind = ConstraintKind::kGeZero;
  c.terms = {{0, -1.0}, {1, -1.0}};
  c.constant = 1.0;
  Vector x{0.0, 0.0};
  const AlmReport report = MinimizeAlm(f, space, {c}, x);
  ASSERT_TRUE(report.feasible);
  ASSERT_EQ(report.multipliers.size(), 1u);
  EXPECT_GT(report.multipliers[0], 0.0);
}

TEST(Alm, DualSeedPolishesInFewerOuterIterations) {
  // Cold-solve once, then re-solve the same problem seeded from the
  // converged primal AND dual.  The warm solve must land on the same
  // optimum while skipping most of the cold outer schedule (the dual seed
  // collapses the inner-tolerance ramp).
  const Quadratic f({1.0, 1.0});
  const FreeSet space;
  LinearConstraint c;
  c.kind = ConstraintKind::kGeZero;
  c.terms = {{0, -1.0}, {1, -1.0}};
  c.constant = 1.0;
  Vector cold_x{0.0, 0.0};
  const AlmReport cold = MinimizeAlm(f, space, {c}, cold_x);
  ASSERT_TRUE(cold.feasible);

  Vector warm_x = cold_x;
  AlmOptions options;
  options.dual_seed = &cold.multipliers;
  options.dual_penalty_seed = cold.final_penalty;
  const AlmReport warm = MinimizeAlm(f, space, {c}, warm_x, options);
  EXPECT_TRUE(warm.feasible);
  EXPECT_LT(warm.outer_iterations, cold.outer_iterations);
  EXPECT_LT(warm.total_inner_iterations, cold.total_inner_iterations);
  EXPECT_NEAR(warm_x[0], cold_x[0], 1e-4);
  EXPECT_NEAR(warm_x[1], cold_x[1], 1e-4);
}

TEST(Alm, DualSeedSizeMismatchFallsBackToColdPath) {
  // A seed whose size does not match the constraint system must be ignored
  // — the solve is then bit-identical to the unseeded cold path.
  const Quadratic f({1.0, 1.0});
  const FreeSet space;
  LinearConstraint c;
  c.kind = ConstraintKind::kGeZero;
  c.terms = {{0, -1.0}, {1, -1.0}};
  c.constant = 1.0;
  Vector cold_x{0.0, 0.0};
  const AlmReport cold = MinimizeAlm(f, space, {c}, cold_x);

  const std::vector<double> bad_seed(3, 1.0);  // system has 1 row
  AlmOptions options;
  options.dual_seed = &bad_seed;
  options.dual_penalty_seed = 99.0;
  Vector x{0.0, 0.0};
  const AlmReport report = MinimizeAlm(f, space, {c}, x, options);
  EXPECT_EQ(report.outer_iterations, cold.outer_iterations);
  EXPECT_EQ(report.total_inner_iterations, cold.total_inner_iterations);
  EXPECT_EQ(x[0], cold_x[0]);
  EXPECT_EQ(x[1], cold_x[1]);
}

TEST(Alm, NoConstraintsDelegatesToSpg) {
  const Quadratic f({1.0, 2.0});
  const FreeSet space;
  Vector x{0.0, 0.0};
  const AlmReport report =
      MinimizeAlm(f, space, std::vector<LinearConstraint>{}, x);
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.outer_iterations, 1u);
  EXPECT_NEAR(x[1], 2.0, 1e-6);
}

/// Records every hook invocation (the obs-layer convergence recorder's
/// shape, minus the file sink).
class RecordingObserver final : public SolveObserver {
 public:
  void OnSpgIteration(const SpgIterationEvent& event) override {
    spg_events.push_back(event);
  }
  void OnAlmOuter(const AlmOuterEvent& event) override {
    alm_events.push_back(event);
  }

  std::vector<SpgIterationEvent> spg_events;
  std::vector<AlmOuterEvent> alm_events;
};

TEST(SolveObserverHooks, SpgReportsEveryAcceptedIteration) {
  const Rosenbrock f;
  const FreeSet space;
  RecordingObserver observer;
  SpgOptions options;
  options.max_iterations = 2000;
  options.observer = &observer;
  Vector x{-1.2, 1.0};
  const SpgReport report = MinimizeSpg(f, space, x, options);

  // One event per *accepted* step: the final iteration only detects
  // convergence at entry and accepts nothing, so a converged solve has
  // iterations - 1 events.
  ASSERT_EQ(report.status, SolveStatus::kConverged);
  ASSERT_EQ(observer.spg_events.size(), report.iterations - 1);
  EXPECT_TRUE(observer.alm_events.empty());
  for (std::size_t i = 0; i < observer.spg_events.size(); ++i) {
    EXPECT_EQ(observer.spg_events[i].iteration, i + 1);
  }
  // The last accepted step's objective is the value the solve returns.
  const SpgIterationEvent& last = observer.spg_events.back();
  EXPECT_DOUBLE_EQ(last.value, report.final_value);
  EXPECT_LE(last.evaluations, report.evaluations);
}

TEST(SolveObserverHooks, AlmReportsOuterCyclesAndInnerIterations) {
  const Quadratic f({1.0, 1.0});
  const FreeSet space;
  LinearConstraint c;
  c.kind = ConstraintKind::kGeZero;
  c.terms = {{0, -1.0}, {1, -1.0}};
  c.constant = 1.0;
  RecordingObserver observer;
  AlmOptions options;
  options.observer = &observer;
  Vector x{0.0, 0.0};
  const AlmReport report = MinimizeAlm(f, space, {c}, x, options);

  ASSERT_EQ(observer.alm_events.size(), report.outer_iterations);
  EXPECT_FALSE(observer.spg_events.empty()) << "inner solves must observe";
  for (std::size_t i = 0; i < observer.alm_events.size(); ++i) {
    EXPECT_EQ(observer.alm_events[i].outer, i + 1);
    EXPECT_GT(observer.alm_events[i].penalty, 0.0);
  }
  // Cumulative at hook time; the driver may evaluate once more after the
  // last outer cycle.
  EXPECT_LE(observer.alm_events.back().evaluations, report.evaluations);
  EXPECT_GT(observer.alm_events.back().evaluations, 0u);
}

TEST(SolveObserverHooks, ObservationDoesNotPerturbTheSolve) {
  // The observation-only contract at the solver level: bit-identical
  // iterates, reports and evaluation counts with and without an observer.
  const auto solve = [](SolveObserver* observer, Vector& x) {
    const Rosenbrock f;
    const FreeSet space;
    SpgOptions options;
    options.max_iterations = 2000;
    options.observer = observer;
    x = {-1.2, 1.0};
    return MinimizeSpg(f, space, x, options);
  };
  Vector bare_x;
  Vector observed_x;
  RecordingObserver observer;
  const SpgReport bare = solve(nullptr, bare_x);
  const SpgReport observed = solve(&observer, observed_x);

  EXPECT_EQ(bare_x, observed_x) << "observer changed the iterate path";
  EXPECT_EQ(bare.iterations, observed.iterations);
  EXPECT_EQ(bare.evaluations, observed.evaluations);
  EXPECT_EQ(bare.status, observed.status);
  EXPECT_DOUBLE_EQ(bare.final_value, observed.final_value);
  EXPECT_DOUBLE_EQ(bare.criterion, observed.criterion);

  // Same contract through the ALM driver.
  const auto alm_solve = [](SolveObserver* observer, Vector& x) {
    const Quadratic f({1.0, 1.0});
    const FreeSet space;
    LinearConstraint c;
    c.kind = ConstraintKind::kGeZero;
    c.terms = {{0, -1.0}, {1, -1.0}};
    c.constant = 1.0;
    AlmOptions options;
    options.observer = observer;
    x = {0.0, 0.0};
    return MinimizeAlm(f, space, {c}, x, options);
  };
  Vector alm_bare_x;
  Vector alm_observed_x;
  RecordingObserver alm_observer;
  const AlmReport alm_bare = alm_solve(nullptr, alm_bare_x);
  const AlmReport alm_observed = alm_solve(&alm_observer, alm_observed_x);
  EXPECT_EQ(alm_bare_x, alm_observed_x);
  EXPECT_EQ(alm_bare.outer_iterations, alm_observed.outer_iterations);
  EXPECT_EQ(alm_bare.evaluations, alm_observed.evaluations);
  EXPECT_DOUBLE_EQ(alm_bare.final_value, alm_observed.final_value);
}

TEST(SolveStatusName, AllNamed) {
  EXPECT_STREQ(SolveStatusName(SolveStatus::kConverged), "converged");
  EXPECT_STREQ(SolveStatusName(SolveStatus::kMaxIterations),
               "max-iterations");
  EXPECT_STREQ(SolveStatusName(SolveStatus::kLineSearchFailed),
               "line-search-failed");
}

}  // namespace
}  // namespace dvs::opt
