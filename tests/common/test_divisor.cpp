// Divisor: the precomputed-reciprocal quotient and remainder equal the
// hardware `/` and `%` for every divisor shape (one, small, powers of
// two, 32-bit, 64-bit, above 2^63) at the numerators where a reciprocal
// goes wrong first (0, d - 1, d, around 2^32, 2^63, UINT64_MAX), and at
// random ones.
#include "pcn/common/divisor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pcn/stats/rng.hpp"

namespace pcn {
namespace {

constexpr std::uint64_t kMax = ~std::uint64_t{0};

void expect_exact(std::uint64_t d, std::uint64_t n) {
  const Divisor divisor(d);
  ASSERT_EQ(divisor.quotient(n), n / d) << n << " / " << d;
  ASSERT_EQ(divisor.remainder(n), n % d) << n << " % " << d;
}

std::vector<std::uint64_t> edge_numerators(std::uint64_t d) {
  return {0,
          1,
          d - 1,
          d,
          d + 1,
          2 * d - 1,
          (std::uint64_t{1} << 32) - 1,
          std::uint64_t{1} << 32,
          (std::uint64_t{1} << 32) + 1,
          (std::uint64_t{1} << 63) - 1,
          std::uint64_t{1} << 63,
          kMax - d,
          kMax - 1,
          kMax};
}

void check_divisor(std::uint64_t d, stats::Rng& rng) {
  SCOPED_TRACE(d);
  for (const std::uint64_t n : edge_numerators(d)) expect_exact(d, n);
  for (int i = 0; i < 64; ++i) {
    expect_exact(d, rng.next());
    expect_exact(d, rng.next() >> (rng.next() % 64));  // every magnitude
  }
}

TEST(Divisor, MatchesHardwareDivisionForSmallDivisors) {
  stats::Rng rng(1);
  for (std::uint64_t d = 1; d <= 300; ++d) check_divisor(d, rng);
}

TEST(Divisor, MatchesHardwareDivisionForPowersOfTwoAndTheirNeighbours) {
  stats::Rng rng(2);
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t power = std::uint64_t{1} << bit;
    check_divisor(power, rng);
    check_divisor(power + 1, rng);
    if (power > 1) check_divisor(power - 1, rng);
  }
  check_divisor(kMax, rng);
  check_divisor(kMax - 1, rng);
}

TEST(Divisor, MatchesHardwareDivisionForRandomWideDivisors) {
  stats::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t d32 = rng.next() >> 32;
    check_divisor(d32 == 0 ? 1 : d32, rng);
    const std::uint64_t d64 = rng.next();
    check_divisor(d64 == 0 ? 1 : d64, rng);
  }
}

TEST(Divisor, RejectsZero) { EXPECT_THROW(Divisor(0), InvalidArgument); }

}  // namespace
}  // namespace pcn
