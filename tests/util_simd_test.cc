// Cube-root kernel tests.
//
// util::simd::Cbrt has a scalar and an AVX2 implementation; both run here
// (the AVX2 one only on hosts that support it) through
// detail::CbrtAt.  Each is pinned to glibc's std::cbrt bits: against libm
// itself on glibc, and against a recorded bit table everywhere.  The two
// must also agree bit for bit on vectors with special inputs in some
// lanes, so the per-lane fallback runs mid-vector.
#include "util/simd.h"

#include <gtest/gtest.h>

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

/// The implementations this host can run: scalar, plus AVX2 when the CPU
/// supports it.
std::vector<Level> HostLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (Active() == Level::kAvx2) {
    levels.push_back(Level::kAvx2);
  }
  return levels;
}

std::vector<double> CbrtAt(Level level, const std::vector<double>& x) {
  std::vector<double> out(x.size(), -1.0);
  detail::CbrtAt(level, x.data(), out.data(), x.size());
  return out;
}

TEST(SimdCbrt, ImplementationsAgreeBitForBitWithSpecialLanes) {
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
    for (Level level : HostLevels()) {
      EXPECT_EQ(BitsOf(CbrtAt(level, x)), BitsOf(CbrtAt(Level::kScalar, x)))
          << "level=" << LevelName(level) << " n=" << n;
    }
    // The public entry point runs the host's implementation.
    std::vector<double> out(n, -1.0);
    Cbrt(x.data(), out.data(), n);
    EXPECT_EQ(BitsOf(out), BitsOf(CbrtAt(Active(), x))) << "n=" << n;
  }
}

#if defined(__GLIBC__)
TEST(SimdCbrt, MatchesLibmBitForBitInEveryImplementation) {
  std::vector<double> inputs = CbrtProbeInputs();
  // 10^5 uniform draws from [0, 1), the range of the DP survival weights.
  std::uint64_t state = 12345;
  for (int i = 0; i < 100000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    inputs.push_back(static_cast<double>(state >> 11) * 0x1.0p-53);
  }
  for (Level level : HostLevels()) {
    const std::vector<double> out = CbrtAt(level, inputs);
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

TEST(SimdCbrt, MatchesRecordedGlibcBitsInEveryImplementation) {
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
  for (Level level : HostLevels()) {
    const std::vector<double> out = CbrtAt(level, x);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(BitsOf(out[i]), cases[i].cbrt)
          << "level=" << LevelName(level) << " cbrt(" << std::hexfloat
          << x[i] << ")";
    }
  }
}

}  // namespace
}  // namespace dvs::util::simd
