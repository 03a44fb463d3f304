// Division by a divisor fixed at construction, without a hardware divide.
//
// A shard or group count is set once and then divides every request's id,
// where a 64-bit `div` costs tens of cycles.  Divisor precomputes a
// reciprocal (Granlund & Montgomery, "Division by Invariant Integers using
// Multiplication", PLDI'94, fig. 4.1) so that n / d is one multiply-high,
// a subtract, an add and two shifts, exact for every uint64_t numerator
// and every divisor >= 1 on one code path: with l = ceil(log2 d),
//
//   m = floor(2^64 * (2^l - d) / d) + 1,   t = mulhi(m, n),
//   n / d = (t + ((n - t) >> min(l, 1))) >> max(l - 1, 0).
#pragma once

#include <bit>
#include <cstdint>

#include "pcn/common/error.hpp"

namespace pcn {

class Divisor {
 public:
  explicit Divisor(std::uint64_t divisor = 1) : divisor_(divisor) {
    PCN_EXPECT(divisor >= 1, "Divisor: divisor must be >= 1");
    const int log2_ceil =
        divisor == 1 ? 0 : 64 - std::countl_zero(divisor - 1);
    // 2^l - d < d, so the quotient and m stay below 2^64.
    const Uint128 excess = (Uint128{1} << log2_ceil) - divisor;
    multiplier_ = static_cast<std::uint64_t>((excess << 64) / divisor) + 1;
    shift_low_ = static_cast<std::uint8_t>(log2_ceil < 1 ? log2_ceil : 1);
    shift_high_ = static_cast<std::uint8_t>(log2_ceil < 1 ? 0 : log2_ceil - 1);
  }

  std::uint64_t divisor() const { return divisor_; }

  std::uint64_t quotient(std::uint64_t n) const {
    const auto t = static_cast<std::uint64_t>(
        (static_cast<Uint128>(multiplier_) * n) >> 64);
    return (t + ((n - t) >> shift_low_)) >> shift_high_;
  }
  std::uint64_t remainder(std::uint64_t n) const {
    return n - quotient(n) * divisor_;
  }

 private:
  __extension__ typedef unsigned __int128 Uint128;

  std::uint64_t divisor_;
  std::uint64_t multiplier_ = 0;
  std::uint8_t shift_low_ = 0;
  std::uint8_t shift_high_ = 0;
};

}  // namespace pcn
