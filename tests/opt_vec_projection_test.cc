// Tests for dense vector kernels and Euclidean projections.
#include <gtest/gtest.h>

#include "opt/problem.h"
#include "opt/vec.h"
#include "stats/rng.h"
#include "util/error.h"

namespace dvs::opt {
namespace {

TEST(Vec, DotAndNorms) {
  const Vector a{1.0, 2.0, 3.0};
  const Vector b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(Norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(NormInf(b), 6.0);
  EXPECT_THROW(Dot({1.0}, {1.0, 2.0}), util::InvalidArgumentError);
}

TEST(Vec, AxpyScaleSubtract) {
  Vector y{1.0, 1.0};
  Axpy(2.0, {3.0, 4.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
  Scale(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 3.5);
  const Vector d = Subtract({5.0, 5.0}, y);
  EXPECT_DOUBLE_EQ(d[0], 1.5);
  const Vector s = AddScaled({1.0, 2.0}, 3.0, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(s[0], 4.0);
  EXPECT_DOUBLE_EQ(s[1], 5.0);
}

TEST(SimplexProjection, AlreadyFeasibleIsFixedPoint) {
  std::vector<double> v{0.2, 0.3, 0.5};
  ProjectOntoSimplex(v, 1.0);
  EXPECT_NEAR(v[0], 0.2, 1e-12);
  EXPECT_NEAR(v[1], 0.3, 1e-12);
  EXPECT_NEAR(v[2], 0.5, 1e-12);
}

TEST(SimplexProjection, SumsToTotalAndNonNegative) {
  stats::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v(5);
    for (double& x : v) {
      x = rng.Uniform(-10.0, 10.0);
    }
    const double total = rng.Uniform(0.0, 20.0);
    ProjectOntoSimplex(v, total);
    double sum = 0.0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, total, 1e-9);
  }
}

TEST(SimplexProjection, KnownSolution) {
  // Projection of (2, 1) onto {x+y = 1, x,y >= 0} is (1, 0).
  std::vector<double> v{2.0, 1.0};
  ProjectOntoSimplex(v, 1.0);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 0.0, 1e-12);
}

TEST(SimplexProjection, SingleElementPinsToTotal) {
  std::vector<double> v{-3.0};
  ProjectOntoSimplex(v, 4.0);
  EXPECT_DOUBLE_EQ(v[0], 4.0);
}

TEST(SimplexProjection, ZeroTotalZeroesEverything) {
  std::vector<double> v{1.0, 2.0, 3.0};
  ProjectOntoSimplex(v, 0.0);
  for (double x : v) {
    EXPECT_NEAR(x, 0.0, 1e-12);
  }
}

TEST(SimplexProjection, IsIdempotent) {
  std::vector<double> v{5.0, -2.0, 0.5, 3.0};
  ProjectOntoSimplex(v, 2.0);
  std::vector<double> again = v;
  ProjectOntoSimplex(again, 2.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(again[i], v[i], 1e-12);
  }
}

TEST(BoxSimplexSet, ProjectsBoxes) {
  BoxSimplexSet set(3);
  set.SetBounds(0, 0.0, 1.0);
  set.SetBounds(1, -1.0, kNoBound);
  Vector x{5.0, -3.0, 42.0};
  set.Project(x);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], -1.0);
  EXPECT_DOUBLE_EQ(x[2], 42.0);  // unbounded
}

TEST(BoxSimplexSet, ProjectsSimplexGroups) {
  BoxSimplexSet set(4);
  set.SetBounds(0, 0.0, 10.0);
  set.AddSimplex({1, 2, 3}, 6.0);
  Vector x{20.0, 1.0, 2.0, 3.0};
  set.Project(x);
  EXPECT_DOUBLE_EQ(x[0], 10.0);
  EXPECT_NEAR(x[1] + x[2] + x[3], 6.0, 1e-9);
}

TEST(BoxSimplexSet, RejectsVariableReuse) {
  BoxSimplexSet set(3);
  set.AddSimplex({0, 1}, 1.0);
  EXPECT_THROW(set.AddSimplex({1, 2}, 1.0), util::InvalidArgumentError);
  EXPECT_THROW(set.SetBounds(0, 0.0, 1.0), util::InvalidArgumentError);
}

TEST(BoxSimplexSet, RejectsBoundedSimplexVariable) {
  BoxSimplexSet set(2);
  set.SetBounds(0, 0.0, 1.0);
  EXPECT_THROW(set.AddSimplex({0, 1}, 1.0), util::InvalidArgumentError);
}

TEST(BoxSimplexSet, SpgCriterionDecisionMatchesFullProjection) {
  // The box sweep may stop early with a lower bound once it passes the
  // threshold.  The converged/not-converged decision must still be the one
  // a full projection gives, and a converged value must be exact.
  stats::Rng rng(31);
  for (std::size_t n = 1; n < 20; ++n) {
    BoxSimplexSet set(n);
    std::vector<std::size_t> simplex;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 == 0) {
        simplex.push_back(i);  // simplex-owned: skipped by the box sweep
      } else {
        const double lo = rng.Uniform(-2.0, 2.0);
        set.SetBounds(i, lo, lo + 2.0);
      }
    }
    set.AddSimplex(simplex, 1.0);
    Vector x(n);
    Vector grad(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(-2.0, 2.0);
      grad[i] = rng.Uniform(-2.0, 2.0);
    }
    ProjectionScratch scratch;
    const double full = set.FeasibleSet::SpgCriterion(x, grad, 0.0, scratch);
    for (double threshold : {0.0, 1e-6, 0.5, 1e9}) {
      const double swept = set.SpgCriterion(x, grad, threshold, scratch);
      EXPECT_EQ(swept > threshold, full > threshold)
          << "n=" << n << " threshold=" << threshold;
      if (full <= threshold) {
        EXPECT_DOUBLE_EQ(swept, full) << "n=" << n;
      }
    }
  }
}

TEST(LinearConstraint, EvaluateAndViolation) {
  LinearConstraint c;
  c.kind = ConstraintKind::kGeZero;
  c.terms = {{0, 1.0}, {1, -1.0}};
  c.constant = -2.0;  // x0 - x1 - 2 >= 0
  EXPECT_DOUBLE_EQ(c.Evaluate({5.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(c.Violation({5.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(c.Violation({1.0, 1.0}), 2.0);

  c.kind = ConstraintKind::kEqZero;
  EXPECT_DOUBLE_EQ(c.Violation({5.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(c.Violation({3.0, 1.0}), 0.0);
}

}  // namespace
}  // namespace dvs::opt
