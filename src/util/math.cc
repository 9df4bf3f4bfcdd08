#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace dvs::util {

std::int64_t Gcd(std::int64_t a, std::int64_t b) {
  ACS_REQUIRE(a > 0 && b > 0, "Gcd requires positive operands");
  while (b != 0) {
    const std::int64_t r = a % b;
    a = b;
    b = r;
  }
  return a;
}

std::int64_t Lcm(std::int64_t a, std::int64_t b) {
  ACS_REQUIRE(a > 0 && b > 0, "Lcm requires positive operands");
  const std::int64_t g = Gcd(a, b);
  const std::int64_t a_over_g = a / g;
  ACS_REQUIRE(a_over_g <= std::numeric_limits<std::int64_t>::max() / b,
              "Lcm overflow");
  return a_over_g * b;
}

std::int64_t LcmAll(const std::vector<std::int64_t>& values) {
  ACS_REQUIRE(!values.empty(), "LcmAll requires a non-empty list");
  std::int64_t acc = values.front();
  for (std::size_t i = 1; i < values.size(); ++i) {
    acc = Lcm(acc, values[i]);
  }
  return acc;
}

bool AlmostEqual(double a, double b, double abs_tol, double rel_tol) {
  const double diff = std::fabs(a - b);
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return diff <= abs_tol + rel_tol * scale;
}

double Clamp(double value, double lo, double hi) {
  ACS_REQUIRE(lo <= hi, "Clamp requires lo <= hi");
  return std::min(std::max(value, lo), hi);
}

}  // namespace dvs::util
