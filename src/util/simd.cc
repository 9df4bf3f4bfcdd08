#include "util/simd.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/error.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ACS_X86_VECTOR 1
#include <immintrin.h>
#endif

namespace dvs::util::simd {
namespace {

// ---- Cube root -------------------------------------------------------------
// glibc's dbl-64 __cbrt (sysdeps/ieee754/dbl-64/s_cbrt.c) transcribed
// operation for operation, so every level returns exactly the bits
// std::cbrt returns with glibc: a degree-6 polynomial in the frexp mantissa
// xm in [0.5, 1), one rational correction step, and a 2^(k/3) factor for the
// exponent remainder.  For a positive normal input frexp and ldexp are exact
// exponent-field moves, done here on the bits; every other input (zero,
// subnormal, negative, inf, NaN) goes to std::cbrt itself.

constexpr std::uint64_t kCbrtMinNormal = 0x0010000000000000ull;
constexpr std::uint64_t kCbrtNormalSpan = 0x7fe0000000000000ull;
constexpr std::uint64_t kCbrtMantissa = 0x000fffffffffffffull;
constexpr std::uint64_t kCbrtHalfExponent = 0x3fe0000000000000ull;
constexpr int kCbrtExponentBias = 1022;  // frexp: x = xm * 2^(field - 1022)

// factor[2 + xe % 3] = 2^((xe % 3) / 3), as glibc spells it.
constexpr double kCbrt2 = 1.2599210498948731648;     // 2^(1/3)
constexpr double kSqrCbrt2 = 1.5874010519681994748;  // 2^(2/3)
constexpr double kCbrtFactor[5] = {1.0 / kSqrCbrt2, 1.0 / kCbrt2, 1.0, kCbrt2,
                                   kSqrCbrt2};

std::uint64_t Bits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

double FromBits(std::uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

double CbrtElement(double x) {
  const std::uint64_t bits = Bits(x);
  if (bits - kCbrtMinNormal >= kCbrtNormalSpan) {
    return std::cbrt(x);  // not a positive normal
  }
  const int xe = static_cast<int>(bits >> 52) - kCbrtExponentBias;
  const double xm = FromBits((bits & kCbrtMantissa) | kCbrtHalfExponent);
  const double u =
      (0.354895765043919860 +
       ((1.50819193781584896 +
         ((-2.11499494167371287 +
           ((2.44693122563534430 +
             ((-1.83469277483613086 +
               (0.784932344976639262 - 0.145263899385486377 * xm) * xm) *
              xm)) *
            xm)) *
          xm)) *
        xm));
  const double t2 = u * u * u;
  const double ym =
      u * (t2 + 2.0 * xm) / (2.0 * t2 + xm) * kCbrtFactor[2 + xe % 3];
  // ldexp(ym, xe / 3): ym lies in [0.5, 1.6) and the result is normal, so
  // the scaling is an exact add to the exponent field.
  return FromBits(Bits(ym) +
                  (static_cast<std::uint64_t>(static_cast<std::int64_t>(xe / 3))
                   << 52));
}

void CbrtScalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = CbrtElement(x[i]);
  }
}

// ---- AVX2 cube root -------------------------------------------------------
// The per-function target attribute keeps the rest of the binary plain
// x86-64.  No FMA: explicit mul+add only, so every lane computes the scalar
// expressions bit for bit.

#if ACS_X86_VECTOR

__attribute__((target("avx2"))) void CbrtAvx2(const double* x, double* out,
                                              std::size_t n) {
  const __m256i min_normal =
      _mm256_set1_epi64x(static_cast<long long>(kCbrtMinNormal - 1));
  const __m256i inf_bits = _mm256_set1_epi64x(0x7ff0000000000000LL);
  const __m256i mantissa =
      _mm256_set1_epi64x(static_cast<long long>(kCbrtMantissa));
  const __m256i half_exponent =
      _mm256_set1_epi64x(static_cast<long long>(kCbrtHalfExponent));
  const __m256i bias = _mm256_set1_epi64x(kCbrtExponentBias);
  const __m256i third = _mm256_set1_epi64x(0x55555556LL);
  const __m256i index_mask = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256d c0 = _mm256_set1_pd(0.354895765043919860);
  const __m256d c1 = _mm256_set1_pd(1.50819193781584896);
  const __m256d c2 = _mm256_set1_pd(-2.11499494167371287);
  const __m256d c3 = _mm256_set1_pd(2.44693122563534430);
  const __m256d c4 = _mm256_set1_pd(-1.83469277483613086);
  const __m256d c5 = _mm256_set1_pd(0.784932344976639262);
  const __m256d c6 = _mm256_set1_pd(0.145263899385486377);
  const __m256d vtwo = _mm256_set1_pd(2.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i bits = _mm256_castpd_si256(_mm256_loadu_pd(x + i));
    // Positive normal <=> min_normal - 1 < bits < inf as signed int64
    // (the sign bit makes every negative input a negative integer).
    const __m256i normal =
        _mm256_and_si256(_mm256_cmpgt_epi64(bits, min_normal),
                         _mm256_cmpgt_epi64(inf_bits, bits));
    // xe in the low dword of each lane (two's complement).
    const __m256i xe = _mm256_sub_epi64(_mm256_srli_epi64(bits, 52), bias);
    const __m256d xm = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits, mantissa), half_exponent));
    // C's truncating xe / 3: the high half of the signed product with
    // 0x55555556, plus one for negative xe; xe % 3 = xe - 3 * (xe / 3).
    // Only the low dword of each lane is meaningful from here on.  Special
    // lanes (xe from -1022 up to 3073 with the sign bit) also land in
    // [-2, 2], so the unmasked gather never reads outside the table.
    const __m256i q = _mm256_add_epi32(
        _mm256_srli_epi64(_mm256_mul_epi32(xe, third), 32),
        _mm256_srli_epi32(xe, 31));
    const __m256i r =
        _mm256_sub_epi32(xe, _mm256_add_epi32(q, _mm256_add_epi32(q, q)));
    const __m256i index =
        _mm256_and_si256(_mm256_add_epi32(r, two), index_mask);
    const __m256d factor = _mm256_i64gather_pd(kCbrtFactor, index, 8);

    __m256d u = _mm256_sub_pd(c5, _mm256_mul_pd(c6, xm));
    u = _mm256_mul_pd(_mm256_add_pd(c4, _mm256_mul_pd(u, xm)), xm);
    u = _mm256_mul_pd(_mm256_add_pd(c3, u), xm);
    u = _mm256_mul_pd(_mm256_add_pd(c2, u), xm);
    u = _mm256_mul_pd(_mm256_add_pd(c1, u), xm);
    u = _mm256_add_pd(c0, u);
    const __m256d t2 = _mm256_mul_pd(_mm256_mul_pd(u, u), u);
    const __m256d num =
        _mm256_mul_pd(u, _mm256_add_pd(t2, _mm256_mul_pd(vtwo, xm)));
    const __m256d den = _mm256_add_pd(_mm256_mul_pd(vtwo, t2), xm);
    const __m256d ym = _mm256_mul_pd(_mm256_div_pd(num, den), factor);
    // ldexp(ym, xe / 3): the low 12 bits of q shifted into the exponent
    // field add q modulo 2^64, exact for the normal results here.
    const __m256i y =
        _mm256_add_epi64(_mm256_castpd_si256(ym), _mm256_slli_epi64(q, 52));
    _mm256_storeu_pd(out + i, _mm256_castsi256_pd(y));
    const int special = ~_mm256_movemask_pd(_mm256_castsi256_pd(normal)) & 0xf;
    if (special != 0) {
      for (int lane = 0; lane < 4; ++lane) {
        if ((special >> lane) & 1) {
          out[i + lane] = CbrtElement(x[i + lane]);
        }
      }
    }
  }
  for (; i < n; ++i) {
    out[i] = CbrtElement(x[i]);
  }
}

#endif  // ACS_X86_VECTOR

void CbrtWith(Level level, const double* x, double* out, std::size_t n) {
#if ACS_X86_VECTOR
  if (level == Level::kAvx2) {
    CbrtAvx2(x, out, n);
    return;
  }
#endif
  (void)level;
  CbrtScalar(x, out, n);
}

}  // namespace

Level Active() {
#if ACS_X86_VECTOR
  static const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  if (has_avx2) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void Cbrt(const double* x, double* out, std::size_t n) {
  CbrtWith(Active(), x, out, n);
}

namespace detail {

void CbrtAt(Level level, const double* x, double* out, std::size_t n) {
  ACS_REQUIRE(static_cast<int>(level) <= static_cast<int>(Active()),
              "Cbrt level above what this CPU supports");
  CbrtWith(level, x, out, n);
}

}  // namespace detail

}  // namespace dvs::util::simd
