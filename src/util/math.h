// Numeric helpers: exact integer gcd/lcm for hyper-period computation and
// tolerance-based floating-point comparisons used throughout the scheduler.
#ifndef ACS_UTIL_MATH_H
#define ACS_UTIL_MATH_H

#include <cstdint>
#include <vector>

namespace dvs::util {

/// Greatest common divisor of two positive integers.
std::int64_t Gcd(std::int64_t a, std::int64_t b);

/// Least common multiple; throws InvalidArgumentError on overflow or
/// non-positive inputs.
std::int64_t Lcm(std::int64_t a, std::int64_t b);

/// LCM of a list (the hyper-period of a task set); throws on empty input.
std::int64_t LcmAll(const std::vector<std::int64_t>& values);

/// |a - b| <= abs_tol + rel_tol * max(|a|, |b|).
bool AlmostEqual(double a, double b, double abs_tol = 1e-9,
                 double rel_tol = 1e-9);

/// Clamps `value` into [lo, hi]; requires lo <= hi.
double Clamp(double value, double lo, double hi);

}  // namespace dvs::util

#endif  // ACS_UTIL_MATH_H
