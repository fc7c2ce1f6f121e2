// 64-pattern-wide three-valued words for bit-parallel simulation.
//
// A Word64 carries 64 independent three-valued values using one L rail and
// one H rail (same semantics as the scalar encoding in logic.h, one bit per
// lane).  The PROOFS-style baseline packs 64 faulty machines per word; the
// parallel-pattern good-machine simulator packs 64 input vectors per word.
#pragma once

#include <cstdint>

#include "util/logic.h"

namespace cfs {

struct Word64 {
  std::uint64_t l = 0;  ///< optimistic rail
  std::uint64_t h = 0;  ///< pessimistic rail

  friend bool operator==(const Word64&, const Word64&) = default;
};

/// All 64 lanes set to the same scalar value.
constexpr Word64 splat64(Val v) {
  const std::uint8_t c = code(v);
  return Word64{(c & 1u) ? ~0ull : 0ull, (c & 2u) ? ~0ull : 0ull};
}

constexpr Word64 w_and(Word64 a, Word64 b) {
  return {a.l & b.l, a.h & b.h};
}
constexpr Word64 w_or(Word64 a, Word64 b) { return {a.l | b.l, a.h | b.h}; }
constexpr Word64 w_not(Word64 a) { return {~a.h, ~a.l}; }
constexpr Word64 w_xor(Word64 a, Word64 b) {
  return w_or(w_and(a, w_not(b)), w_and(w_not(a), b));
}

/// Lanes where a and b hold an identical value (0==0, 1==1, X==X).
constexpr std::uint64_t w_eq(Word64 a, Word64 b) {
  return ~((a.l ^ b.l) | (a.h ^ b.h));
}

/// Lanes where both values are binary and complementary (hard difference).
constexpr std::uint64_t w_hard_diff(Word64 a, Word64 b) {
  const std::uint64_t a_bin = ~(a.l ^ a.h);  // lanes where a is 0 or 1
  const std::uint64_t b_bin = ~(b.l ^ b.h);
  return a_bin & b_bin & (a.l ^ b.l);
}

/// Lanes where the value is X.
constexpr std::uint64_t w_is_x(Word64 a) { return ~a.l & a.h; }

/// Lanes where the value is binary (0 or 1).
constexpr std::uint64_t w_is_binary(Word64 a) { return ~(a.l ^ a.h) ; }

/// Read lane `i` back as a scalar value.
constexpr Val w_get(Word64 a, unsigned i) {
  const std::uint8_t c = static_cast<std::uint8_t>(
      (((a.h >> i) & 1u) << 1) | ((a.l >> i) & 1u));
  return from_code(c);
}

/// Set lane `i` to a scalar value.
constexpr void w_set(Word64& a, unsigned i, Val v) {
  const std::uint64_t m = 1ull << i;
  const std::uint8_t c = code(v);
  a.l = (c & 1u) ? (a.l | m) : (a.l & ~m);
  a.h = (c & 2u) ? (a.h | m) : (a.h & ~m);
}

/// Blend: lanes in `mask` taken from `b`, others from `a`.
constexpr Word64 w_select(std::uint64_t mask, Word64 b, Word64 a) {
  return {(a.l & ~mask) | (b.l & mask), (a.h & ~mask) | (b.h & mask)};
}

}  // namespace cfs
