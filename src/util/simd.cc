#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ACS_SIMD_X86 1
#include <immintrin.h>
#endif

namespace dvs::util::simd {
namespace {

// -1 = unresolved; otherwise the Level value.
std::atomic<int> g_level{-1};

Level ResolveInitial() {
  const char* env = std::getenv("ACS_SIMD");
  if (env != nullptr) {
    Level parsed;
    if (ParseLevel(env, &parsed)) {
      return parsed;
    }
  }
  return Detect();
}

Level Clamp(Level level) { return std::min(level, Detect()); }

// ---- Scalar kernels --------------------------------------------------------
// These replicate the historical loops exactly: same operations, same
// accumulation order, so the scalar dispatch level is bit-identical to the
// pre-SIMD tree.

double DotScalar(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

double SumScalar(const double* a, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += a[i];
  }
  return acc;
}

double NormInfScalar(const double* a, std::size_t n) {
  double best = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    best = std::max(best, std::fabs(a[i]));
  }
  return best;
}

void AxpyScalar(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void AddScalarImpl(const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += x[i];
  }
}

void ScaleScalar(double alpha, double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    x[i] *= alpha;
  }
}

void SubtractScalar(const double* a, const double* b, double* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] - b[i];
  }
}

void AddScaledScalar(const double* a, double alpha, const double* b,
                     double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] + alpha * b[i];
  }
}

void ClampBoxScalar(const double* lo, const double* hi, double* x,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::min(std::max(x[i], lo[i]), hi[i]);
  }
}

double StepAndSlopeScalar(const double* x, const double* grad,
                          const double* trial, double* direction,
                          std::size_t n) {
  double slope = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    direction[i] = trial[i] - x[i];
    slope += grad[i] * direction[i];
  }
  return slope;
}

void SpectralPairScalar(double lambda, const double* direction,
                        const double* grad, const double* trial_grad,
                        std::size_t n, double* sts, double* sty) {
  double acc_ss = 0.0;
  double acc_sy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = lambda * direction[i];
    const double y = trial_grad[i] - grad[i];
    acc_ss += s * s;
    acc_sy += s * y;
  }
  *sts = acc_ss;
  *sty = acc_sy;
}

double BoxCriterionScalar(const double* x, const double* grad,
                          const double* lo, const double* hi,
                          const double* mask, std::size_t n,
                          double threshold) {
  double criterion = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] == 0.0) {
      continue;
    }
    const double projected = std::min(std::max(x[i] - grad[i], lo[i]), hi[i]);
    criterion = std::max(criterion, std::fabs(projected - x[i]));
    if (criterion > threshold) {
      return criterion;
    }
  }
  return criterion;
}

void PackedRows3Scalar(const double* constant, const double* coeff3,
                       const std::int32_t* idx3, const double* x, double* out,
                       std::size_t rows) {
  const double* c0 = coeff3;
  const double* c1 = coeff3 + rows;
  const double* c2 = coeff3 + 2 * rows;
  const std::int32_t* i0 = idx3;
  const std::int32_t* i1 = idx3 + rows;
  const std::int32_t* i2 = idx3 + 2 * rows;
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = constant[r];
    acc += c0[r] * x[i0[r]];
    acc += c1[r] * x[i1[r]];
    acc += c2[r] * x[i2[r]];
    out[r] = acc;
  }
}

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

// ---- AVX2 kernels ----------------------------------------------------------
// Per-function target attributes keep the rest of the binary plain x86-64.
// No FMA: explicit mul+add only, so elementwise kernels are bit-identical
// to scalar; only the reductions change association (four lanes folded in
// lane order, then the tail in index order).

#if ACS_SIMD_X86

__attribute__((target("avx2"))) inline double HsumOrdered(__m256d v) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

__attribute__((target("avx2"))) double DotAvx2(const double* a,
                                               const double* b,
                                               std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
  }
  double total = HsumOrdered(acc);
  for (; i < n; ++i) {
    total += a[i] * b[i];
  }
  return total;
}

__attribute__((target("avx2"))) double SumAvx2(const double* a,
                                               std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(a + i));
  }
  double total = HsumOrdered(acc);
  for (; i < n; ++i) {
    total += a[i];
  }
  return total;
}

__attribute__((target("avx2"))) double NormInfAvx2(const double* a,
                                                   std::size_t n) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d best = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    best = _mm256_max_pd(best,
                         _mm256_and_pd(_mm256_loadu_pd(a + i), abs_mask));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, best);
  double out = std::max(std::max(lane[0], lane[1]),
                        std::max(lane[2], lane[3]));
  for (; i < n; ++i) {
    out = std::max(out, std::fabs(a[i]));
  }
  return out;
}

__attribute__((target("avx2"))) void AxpyAvx2(double alpha, const double* x,
                                              double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

__attribute__((target("avx2"))) void AddAvx2(const double* x, double* y,
                                             std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) {
    y[i] += x[i];
  }
}

__attribute__((target("avx2"))) void ScaleAvx2(double alpha, double* x,
                                               std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) {
    x[i] *= alpha;
  }
}

__attribute__((target("avx2"))) void SubtractAvx2(const double* a,
                                                  const double* b, double* out,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = a[i] - b[i];
  }
}

__attribute__((target("avx2"))) void AddScaledAvx2(const double* a,
                                                   double alpha,
                                                   const double* b,
                                                   double* out,
                                                   std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(b + i));
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(a + i), prod));
  }
  for (; i < n; ++i) {
    out[i] = a[i] + alpha * b[i];
  }
}

__attribute__((target("avx2"))) void ClampBoxAvx2(const double* lo,
                                                  const double* hi, double* x,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d clamped =
        _mm256_min_pd(_mm256_max_pd(_mm256_loadu_pd(x + i),
                                    _mm256_loadu_pd(lo + i)),
                      _mm256_loadu_pd(hi + i));
    _mm256_storeu_pd(x + i, clamped);
  }
  for (; i < n; ++i) {
    x[i] = std::min(std::max(x[i], lo[i]), hi[i]);
  }
}

__attribute__((target("avx2"))) double StepAndSlopeAvx2(const double* x,
                                                        const double* grad,
                                                        const double* trial,
                                                        double* direction,
                                                        std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(trial + i), _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(direction + i, d);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(grad + i), d));
  }
  double slope = HsumOrdered(acc);
  for (; i < n; ++i) {
    direction[i] = trial[i] - x[i];
    slope += grad[i] * direction[i];
  }
  return slope;
}

__attribute__((target("avx2"))) void SpectralPairAvx2(
    double lambda, const double* direction, const double* grad,
    const double* trial_grad, std::size_t n, double* sts, double* sty) {
  const __m256d vl = _mm256_set1_pd(lambda);
  __m256d acc_ss = _mm256_setzero_pd();
  __m256d acc_sy = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d s = _mm256_mul_pd(vl, _mm256_loadu_pd(direction + i));
    const __m256d y = _mm256_sub_pd(_mm256_loadu_pd(trial_grad + i),
                                    _mm256_loadu_pd(grad + i));
    acc_ss = _mm256_add_pd(acc_ss, _mm256_mul_pd(s, s));
    acc_sy = _mm256_add_pd(acc_sy, _mm256_mul_pd(s, y));
  }
  double out_ss = HsumOrdered(acc_ss);
  double out_sy = HsumOrdered(acc_sy);
  for (; i < n; ++i) {
    const double s = lambda * direction[i];
    const double y = trial_grad[i] - grad[i];
    out_ss += s * s;
    out_sy += s * y;
  }
  *sts = out_ss;
  *sty = out_sy;
}

__attribute__((target("avx2"))) double BoxCriterionAvx2(
    const double* x, const double* grad, const double* lo, const double* hi,
    const double* mask, std::size_t n, double threshold) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d vthreshold = _mm256_set1_pd(threshold);
  __m256d best = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d probe = _mm256_sub_pd(vx, _mm256_loadu_pd(grad + i));
    const __m256d projected =
        _mm256_min_pd(_mm256_max_pd(probe, _mm256_loadu_pd(lo + i)),
                      _mm256_loadu_pd(hi + i));
    const __m256d disp =
        _mm256_mul_pd(_mm256_and_pd(_mm256_sub_pd(projected, vx), abs_mask),
                      _mm256_loadu_pd(mask + i));
    best = _mm256_max_pd(best, disp);
    if (_mm256_movemask_pd(_mm256_cmp_pd(best, vthreshold, _CMP_GT_OQ)) !=
        0) {
      // Decision fixed ("not converged"): fold and return the lower bound.
      alignas(32) double lane[4];
      _mm256_store_pd(lane, best);
      return std::max(std::max(lane[0], lane[1]),
                      std::max(lane[2], lane[3]));
    }
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, best);
  double criterion =
      std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  for (; i < n; ++i) {
    if (mask[i] == 0.0) {
      continue;
    }
    const double projected = std::min(std::max(x[i] - grad[i], lo[i]), hi[i]);
    criterion = std::max(criterion, std::fabs(projected - x[i]));
    if (criterion > threshold) {
      return criterion;
    }
  }
  return criterion;
}

__attribute__((target("avx2"))) void PackedRows3Avx2(
    const double* constant, const double* coeff3, const std::int32_t* idx3,
    const double* x, double* out, std::size_t rows) {
  const double* c0 = coeff3;
  const double* c1 = coeff3 + rows;
  const double* c2 = coeff3 + 2 * rows;
  const std::int32_t* i0 = idx3;
  const std::int32_t* i1 = idx3 + rows;
  const std::int32_t* i2 = idx3 + 2 * rows;
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    __m256d acc = _mm256_loadu_pd(constant + r);
    const __m256d g0 = _mm256_i32gather_pd(
        x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(i0 + r)), 8);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(c0 + r), g0));
    const __m256d g1 = _mm256_i32gather_pd(
        x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(i1 + r)), 8);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(c1 + r), g1));
    const __m256d g2 = _mm256_i32gather_pd(
        x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(i2 + r)), 8);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(c2 + r), g2));
    _mm256_storeu_pd(out + r, acc);
  }
  for (; r < rows; ++r) {
    double acc = constant[r];
    acc += c0[r] * x[i0[r]];
    acc += c1[r] * x[i1[r]];
    acc += c2[r] * x[i2[r]];
    out[r] = acc;
  }
}

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

#endif  // ACS_SIMD_X86

bool Avx2Active() {
#if ACS_SIMD_X86
  return Active() == Level::kAvx2;
#else
  return false;
#endif
}

}  // namespace

Level Detect() {
#if ACS_SIMD_X86
  static const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  if (has_avx2) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

Level Active() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level < 0) {
    const Level resolved = ResolveInitial();
    g_level.store(static_cast<int>(resolved), std::memory_order_relaxed);
    return resolved;
  }
  return static_cast<Level>(level);
}

void SetLevel(Level level) {
  g_level.store(static_cast<int>(Clamp(level)), std::memory_order_relaxed);
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

bool ParseLevel(const std::string& text, Level* out) {
  if (text == "scalar") {
    *out = Level::kScalar;
    return true;
  }
  if (text == "avx2") {
    *out = Clamp(Level::kAvx2);
    return true;
  }
  if (text == "auto") {
    *out = Detect();
    return true;
  }
  return false;
}

double Dot(const double* a, const double* b, std::size_t n) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    return DotAvx2(a, b, n);
  }
#endif
  return DotScalar(a, b, n);
}

double Sum(const double* a, std::size_t n) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    return SumAvx2(a, n);
  }
#endif
  return SumScalar(a, n);
}

double NormInf(const double* a, std::size_t n) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    return NormInfAvx2(a, n);
  }
#endif
  return NormInfScalar(a, n);
}

void Axpy(double alpha, const double* x, double* y, std::size_t n) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    AxpyAvx2(alpha, x, y, n);
    return;
  }
#endif
  AxpyScalar(alpha, x, y, n);
}

void Add(const double* x, double* y, std::size_t n) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    AddAvx2(x, y, n);
    return;
  }
#endif
  AddScalarImpl(x, y, n);
}

void Scale(double alpha, double* x, std::size_t n) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    ScaleAvx2(alpha, x, n);
    return;
  }
#endif
  ScaleScalar(alpha, x, n);
}

void Subtract(const double* a, const double* b, double* out, std::size_t n) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    SubtractAvx2(a, b, out, n);
    return;
  }
#endif
  SubtractScalar(a, b, out, n);
}

void AddScaled(const double* a, double alpha, const double* b, double* out,
               std::size_t n) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    AddScaledAvx2(a, alpha, b, out, n);
    return;
  }
#endif
  AddScaledScalar(a, alpha, b, out, n);
}

void ClampBox(const double* lo, const double* hi, double* x, std::size_t n) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    ClampBoxAvx2(lo, hi, x, n);
    return;
  }
#endif
  ClampBoxScalar(lo, hi, x, n);
}

double StepAndSlope(const double* x, const double* grad, const double* trial,
                    double* direction, std::size_t n) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    return StepAndSlopeAvx2(x, grad, trial, direction, n);
  }
#endif
  return StepAndSlopeScalar(x, grad, trial, direction, n);
}

void SpectralPair(double lambda, const double* direction, const double* grad,
                  const double* trial_grad, std::size_t n, double* sts,
                  double* sty) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    SpectralPairAvx2(lambda, direction, grad, trial_grad, n, sts, sty);
    return;
  }
#endif
  SpectralPairScalar(lambda, direction, grad, trial_grad, n, sts, sty);
}

double BoxCriterion(const double* x, const double* grad, const double* lo,
                    const double* hi, const double* mask, std::size_t n,
                    double threshold) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    return BoxCriterionAvx2(x, grad, lo, hi, mask, n, threshold);
  }
#endif
  return BoxCriterionScalar(x, grad, lo, hi, mask, n, threshold);
}

void PackedRows3(const double* constant, const double* coeff3,
                 const std::int32_t* idx3, const double* x, double* out,
                 std::size_t rows) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    PackedRows3Avx2(constant, coeff3, idx3, x, out, rows);
    return;
  }
#endif
  PackedRows3Scalar(constant, coeff3, idx3, x, out, rows);
}

void Cbrt(const double* x, double* out, std::size_t n) {
#if ACS_SIMD_X86
  if (Avx2Active()) {
    CbrtAvx2(x, out, n);
    return;
  }
#endif
  CbrtScalar(x, out, n);
}

}  // namespace dvs::util::simd
