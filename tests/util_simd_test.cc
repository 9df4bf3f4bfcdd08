// SIMD dispatch + kernel agreement tests.
//
// Every kernel is exercised over a lane-width sweep (n = 0 .. 19, covering
// empty input, sub-vector tails and multi-block bodies) at the scalar level
// and at the best level the CPU supports.  Element-wise kernels must agree
// bit-for-bit across levels (identical per-element arithmetic, only the
// batching differs); reductions fold lanes in a different FP association,
// so they agree to tight relative tolerance.  On hardware without AVX2 the
// forced level clamps to scalar and the comparisons hold trivially — the
// sweep then pins the scalar kernels against the reference loops below.
// Cbrt is additionally pinned to glibc's std::cbrt bits: against libm
// itself on glibc, and against a recorded bit table everywhere.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace dvs::util::simd {
namespace {

/// Deterministic fill in roughly [-2, 2] — no <random> so the expected
/// values are stable across standard libraries.
std::vector<double> Fill(std::size_t n, std::uint64_t seed) {
  std::vector<double> values(n);
  std::uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    values[i] = static_cast<double>(static_cast<std::int64_t>(state >> 11)) /
                    static_cast<double>(1ll << 51) -
                1.0;
    values[i] *= 2.0;
  }
  return values;
}

constexpr std::size_t kMaxN = 20;
constexpr double kRelTol = 1e-12;

double RelNear(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1.0});
}

std::uint64_t BitsOf(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

double FromBits(std::uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

std::vector<std::uint64_t> BitsOf(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    bits[i] = BitsOf(values[i]);
  }
  return bits;
}

/// Cube-root inputs covering every branch of the kernel: ±0, subnormals,
/// negatives, ±inf, NaN, the survival-grid values k/128 and every normal
/// binade at 64 mantissas.
std::vector<double> CbrtProbeInputs() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> inputs = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      FromBits(0x000fffffffffffffull),  // largest subnormal
      FromBits(0x0000000123456789ull),
      -std::numeric_limits<double>::denorm_min(),
      -1.0,
      -0.3,
      -27.0,
      -std::numeric_limits<double>::max(),
      kInf,
      -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  for (int k = 0; k <= 128; ++k) {
    inputs.push_back(static_cast<double>(k) / 128.0);
  }
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t field = 1; field < 2047; ++field) {
    for (int m = 0; m < 64; ++m) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::uint64_t mantissa = state >> 12;
      if (m == 0) {
        mantissa = 0;  // the power of two itself
      } else if (m == 1) {
        mantissa = 0x000fffffffffffffull;  // just below the next one
      }
      inputs.push_back(FromBits((field << 52) | mantissa));
    }
  }
  return inputs;
}

TEST(SimdDispatch, ParseLevelAcceptsTheDocumentedNames) {
  Level level = Level::kAvx2;
  EXPECT_TRUE(ParseLevel("scalar", &level));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(ParseLevel("avx2", &level));
  EXPECT_EQ(level, Level::kAvx2);
  EXPECT_TRUE(ParseLevel("auto", &level));
  EXPECT_EQ(level, Detect());
  EXPECT_FALSE(ParseLevel("sse9", &level));
  EXPECT_FALSE(ParseLevel("", &level));
  EXPECT_FALSE(ParseLevel("Scalar", &level));  // case-sensitive
}

TEST(SimdDispatch, SetLevelClampsToHardwareSupport) {
  ScopedLevel guard(Active());  // restore whatever the suite runs under
  SetLevel(Level::kAvx2);
  EXPECT_LE(static_cast<int>(Active()), static_cast<int>(Detect()));
  SetLevel(Level::kScalar);
  EXPECT_EQ(Active(), Level::kScalar);
}

TEST(SimdDispatch, ScopedLevelRestoresOnExit) {
  const Level before = Active();
  {
    ScopedLevel pin(Level::kScalar);
    EXPECT_EQ(Active(), Level::kScalar);
  }
  EXPECT_EQ(Active(), before);
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  Level level;
  ASSERT_TRUE(ParseLevel(LevelName(Level::kScalar), &level));
  EXPECT_EQ(level, Level::kScalar);
  ASSERT_TRUE(ParseLevel(LevelName(Level::kAvx2), &level));
  EXPECT_EQ(level, Level::kAvx2);
}

TEST(SimdKernels, ScalarLevelMatchesReferenceLoops) {
  ScopedLevel pin(Level::kScalar);
  for (std::size_t n = 0; n < kMaxN; ++n) {
    const std::vector<double> a = Fill(n, 1);
    const std::vector<double> b = Fill(n, 2);

    double dot = 0.0;
    double sum = 0.0;
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot += a[i] * b[i];
      sum += a[i];
      norm = std::max(norm, std::abs(a[i]));
    }
    EXPECT_EQ(Dot(a.data(), b.data(), n), dot) << "n=" << n;
    EXPECT_EQ(Sum(a.data(), n), sum) << "n=" << n;
    EXPECT_EQ(NormInf(a.data(), n), norm) << "n=" << n;

    std::vector<double> y = Fill(n, 3);
    std::vector<double> expected = y;
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] += 0.75 * a[i];
    }
    Axpy(0.75, a.data(), y.data(), n);
    EXPECT_EQ(y, expected) << "n=" << n;
  }
}

TEST(SimdKernels, ElementwiseKernelsBitIdenticalAcrossLevels) {
  for (std::size_t n = 0; n < kMaxN; ++n) {
    const std::vector<double> a = Fill(n, 11);
    const std::vector<double> b = Fill(n, 12);
    std::vector<double> lo = Fill(n, 13);
    std::vector<double> hi = lo;
    for (double& v : hi) {
      v += 1.5;
    }

    struct Run {
      std::vector<double> axpy, add, scale, sub, add_scaled, clamp;
    };
    auto run = [&](Level level) {
      ScopedLevel pin(level);
      Run r;
      r.axpy = Fill(n, 14);
      Axpy(-1.25, a.data(), r.axpy.data(), n);
      r.add = Fill(n, 14);
      Add(a.data(), r.add.data(), n);
      r.scale = a;
      Scale(0.3, r.scale.data(), n);
      r.sub.resize(n);
      Subtract(a.data(), b.data(), r.sub.data(), n);
      r.add_scaled.resize(n);
      AddScaled(a.data(), -0.6, b.data(), r.add_scaled.data(), n);
      r.clamp = b;
      ClampBox(lo.data(), hi.data(), r.clamp.data(), n);
      return r;
    };

    const Run scalar = run(Level::kScalar);
    const Run best = run(Detect());
    EXPECT_EQ(scalar.axpy, best.axpy) << "n=" << n;
    EXPECT_EQ(scalar.add, best.add) << "n=" << n;
    EXPECT_EQ(scalar.scale, best.scale) << "n=" << n;
    EXPECT_EQ(scalar.sub, best.sub) << "n=" << n;
    EXPECT_EQ(scalar.add_scaled, best.add_scaled) << "n=" << n;
    EXPECT_EQ(scalar.clamp, best.clamp) << "n=" << n;
  }

  // Cbrt over whole vectors, partial vectors and scalar tails, with special
  // inputs in some lanes so the per-lane fallback runs mid-vector.  Bits are
  // compared because NaN never equals itself.
  for (std::size_t n : {0, 1, 3, 4, 5, 8, 63, 64}) {
    std::vector<double> x = Fill(n, 15);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = std::abs(x[i]);
      if (i % 7 == 2) {
        x[i] = -x[i];
      } else if (i % 11 == 5) {
        x[i] = 0.0;
      } else if (i % 13 == 6) {
        x[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    auto run = [&](Level level) {
      ScopedLevel pin(level);
      std::vector<double> out(n, -1.0);
      Cbrt(x.data(), out.data(), n);
      return BitsOf(out);
    };
    EXPECT_EQ(run(Level::kScalar), run(Detect())) << "n=" << n;
  }
}

#if defined(__GLIBC__)
TEST(SimdKernels, CbrtMatchesLibmBitForBitAtEveryLevel) {
  std::vector<double> inputs = CbrtProbeInputs();
  // 10^5 uniform draws from [0, 1), the range of the DP survival weights.
  std::uint64_t state = 12345;
  for (int i = 0; i < 100000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    inputs.push_back(static_cast<double>(state >> 11) * 0x1.0p-53);
  }
  for (Level level : {Level::kScalar, Detect()}) {
    ScopedLevel pin(level);
    std::vector<double> out(inputs.size());
    Cbrt(inputs.data(), out.data(), inputs.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (BitsOf(out[i]) != BitsOf(std::cbrt(inputs[i])) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << "level=" << LevelName(level) << " cbrt("
                      << std::hexfloat << inputs[i] << ") = " << out[i]
                      << ", libm " << std::cbrt(inputs[i]);
      }
    }
    EXPECT_EQ(mismatches, 0u) << "level=" << LevelName(level);
  }
}
#endif

TEST(SimdKernels, CbrtMatchesRecordedGlibcBits) {
  // Recorded from glibc 2.36 std::cbrt.  It is not correctly rounded
  // (cbrt(27) is one ulp above 3), so these pin glibc's exact algorithm on
  // any libm.  Only positive normal inputs: the in-tree path.
  struct Case {
    std::uint64_t x, cbrt;
  };
  const Case cases[] = {
      {0x3ff0000000000000ull, 0x3ff0000000000000ull},  // 1 -> 1
      {0x4020000000000000ull, 0x4000000000000000ull},  // 8 -> 2
      {0x403b000000000000ull, 0x4008000000000001ull},  // 27 -> 3 + 1 ulp
      {0x4000000000000000ull, 0x3ff428a2f98d728cull},  // 2
      {0x4008000000000000ull, 0x3ff7137449123ef6ull},  // 3
      {0x3fe0000000000000ull, 0x3fe965fea53d6e3dull},  // 0.5
      {0x3fc0000000000000ull, 0x3fdfffffffffffffull},  // 0.125 -> 0.5 - ulp
      {0x3fb999999999999aull, 0x3fddb4c7760bcff2ull},  // 0.1
      {0x3fd3333333333333ull, 0x3fe56bfea66ef78cull},  // 0.3
      {0x3fe6666666666666ull, 0x3fec69b5a72f1a9aull},  // 0.7
      {0x3feff7ced916872bull, 0x3feffd44b7580664ull},  // 0.999
      {0x3f80000000000000ull, 0x3fc965fea53d6e3dull},  // 1/128
      {0x3fefc00000000000ull, 0x3fefea9c61e47cd4ull},  // 127/128
      {0x3ddb7cdfd9d7bdbbull, 0x3f3e6b4b396428e6ull},  // 1e-10
      {0x40c81cd6c8b43958ull, 0x40371caec6430a06ull},  // 12345.678
      {0x3fefffffffffffffull, 0x3ff0000000000000ull},  // 1 - ulp/2 -> 1
      {0x400921fb54442d18ull, 0x3ff76ef7e73104b7ull},  // pi
      {0x01a56e1fc2f8f359ull, 0x2b2bff2ee48e0530ull},  // 1e-300
      {0x7e37e43c8800759cull, 0x54b249ad2594c37dull},  // 1e300
      {0x7fefffffffffffffull, 0x554428a2f98d728bull},  // DBL_MAX
      {0x0010000000000000ull, 0x2aa428a2f98d728bull},  // DBL_MIN
      {0x0170000000000001ull, 0x2b1965fea53d6e3dull},  // 2^-1000 + ulp
  };
  std::vector<double> x;
  for (const Case& c : cases) {
    x.push_back(FromBits(c.x));
  }
  for (Level level : {Level::kScalar, Detect()}) {
    ScopedLevel pin(level);
    std::vector<double> out(x.size());
    Cbrt(x.data(), out.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(BitsOf(out[i]), cases[i].cbrt)
          << "level=" << LevelName(level) << " cbrt(" << std::hexfloat
          << x[i] << ")";
    }
  }
}

TEST(SimdKernels, ReductionsAgreeAcrossLevelsToTolerance) {
  for (std::size_t n = 0; n < kMaxN; ++n) {
    const std::vector<double> a = Fill(n, 21);
    const std::vector<double> b = Fill(n, 22);
    const std::vector<double> g = Fill(n, 23);
    const std::vector<double> t = Fill(n, 24);

    struct Run {
      double dot, sum, norm, slope, sts, sty;
      std::vector<double> direction;
    };
    auto run = [&](Level level) {
      ScopedLevel pin(level);
      Run r;
      r.dot = Dot(a.data(), b.data(), n);
      r.sum = Sum(a.data(), n);
      r.norm = NormInf(a.data(), n);
      r.direction.resize(n);
      r.slope = StepAndSlope(a.data(), g.data(), t.data(), r.direction.data(),
                             n);
      SpectralPair(0.8, r.direction.data(), g.data(), t.data(), n, &r.sts,
                   &r.sty);
      return r;
    };

    const Run scalar = run(Level::kScalar);
    const Run best = run(Detect());
    EXPECT_LE(RelNear(scalar.dot, best.dot), kRelTol) << "n=" << n;
    EXPECT_LE(RelNear(scalar.sum, best.sum), kRelTol) << "n=" << n;
    // max |.| involves no accumulation: exact at every level.
    EXPECT_EQ(scalar.norm, best.norm) << "n=" << n;
    // direction is element-wise even inside the fused pass.
    EXPECT_EQ(scalar.direction, best.direction) << "n=" << n;
    EXPECT_LE(RelNear(scalar.slope, best.slope), kRelTol) << "n=" << n;
    EXPECT_LE(RelNear(scalar.sts, best.sts), kRelTol) << "n=" << n;
    EXPECT_LE(RelNear(scalar.sty, best.sty), kRelTol) << "n=" << n;
  }
}

TEST(SimdKernels, BoxCriterionDecisionsMatchAcrossLevels) {
  for (std::size_t n = 0; n < kMaxN; ++n) {
    const std::vector<double> x = Fill(n, 31);
    const std::vector<double> grad = Fill(n, 32);
    std::vector<double> lo = Fill(n, 33);
    std::vector<double> hi = lo;
    for (double& v : hi) {
      v += 2.0;
    }
    std::vector<double> mask(n, 1.0);
    for (std::size_t i = 0; i < n; i += 3) {
      mask[i] = 0.0;  // some simplex-owned coordinates
    }

    for (double threshold : {0.0, 1e-6, 0.5, 1e9}) {
      double scalar_value;
      double best_value;
      {
        ScopedLevel pin(Level::kScalar);
        scalar_value = BoxCriterion(x.data(), grad.data(), lo.data(),
                                    hi.data(), mask.data(), n, threshold);
      }
      {
        ScopedLevel pin(Detect());
        best_value = BoxCriterion(x.data(), grad.data(), lo.data(), hi.data(),
                                  mask.data(), n, threshold);
      }
      // The contract is the converged/not-converged decision, not the exact
      // value: early exit may return any sound lower bound above threshold.
      EXPECT_EQ(scalar_value > threshold, best_value > threshold)
          << "n=" << n << " threshold=" << threshold;
      if (scalar_value <= threshold) {
        EXPECT_EQ(scalar_value, best_value) << "n=" << n;
      }
    }
  }
}

TEST(SimdKernels, PackedRows3MatchesPerRowEvaluation) {
  for (std::size_t rows = 0; rows < kMaxN; ++rows) {
    const std::size_t dim = 7;
    const std::vector<double> x = Fill(dim, 41);
    const std::vector<double> constant = Fill(rows, 42);
    const std::vector<double> coeff(Fill(3 * rows, 43));
    std::vector<std::int32_t> idx(3 * rows);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      idx[i] = static_cast<std::int32_t>((i * 5 + 2) % dim);
    }

    std::vector<double> expected(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      expected[r] = constant[r] + coeff[0 * rows + r] * x[idx[0 * rows + r]] +
                    coeff[1 * rows + r] * x[idx[1 * rows + r]] +
                    coeff[2 * rows + r] * x[idx[2 * rows + r]];
    }

    for (Level level : {Level::kScalar, Detect()}) {
      ScopedLevel pin(level);
      std::vector<double> out(rows, -1.0);
      PackedRows3(constant.data(), coeff.data(), idx.data(), x.data(),
                  out.data(), rows);
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_LE(RelNear(out[r], expected[r]), kRelTol)
            << "rows=" << rows << " r=" << r
            << " level=" << LevelName(level);
      }
    }
  }
}

}  // namespace
}  // namespace dvs::util::simd
