// Exhaustive lane semantics for the 64-wide dual-rail words (util/dualrail.h):
// every packed operator must agree, lane by lane, with the scalar truth
// tables in util/logic.h for every combination of three-valued operands.
//
// The test fills words so that adjacent lanes hold *different* value pairs
// (all 9 combinations tiled across the 64 lanes, at several rotations), so a
// rail mix-up that happens to cancel on uniform words cannot hide.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "util/dualrail.h"
#include "util/logic.h"

namespace cfs {
namespace {

constexpr std::array<Val, 3> kVals = {Val::Zero, Val::X, Val::One};

// Build an operand pair (a, b) where lane i holds the value combination
// (i + phase) % 9, so every (a, b) pair appears in 7+ distinct lanes.
struct PackedPair {
  Word64 a, b;
  std::array<Val, 64> sa, sb;
};

PackedPair tile(unsigned phase) {
  PackedPair p;
  for (unsigned i = 0; i < 64; ++i) {
    const unsigned k = (i + phase) % 9;
    p.sa[i] = kVals[k / 3];
    p.sb[i] = kVals[k % 3];
    w_set(p.a, i, p.sa[i]);
    w_set(p.b, i, p.sb[i]);
  }
  return p;
}

TEST(DualRail, SplatAndGetRoundTrip) {
  for (Val v : kVals) {
    const Word64 w = splat64(v);
    for (unsigned i = 0; i < 64; ++i) {
      EXPECT_EQ(w_get(w, i), v) << "lane " << i;
    }
  }
}

TEST(DualRail, SetGetRoundTripEveryLane) {
  // Setting one lane must not disturb any other, for every base fill.
  for (Val base : kVals) {
    for (Val v : kVals) {
      for (unsigned i = 0; i < 64; ++i) {
        Word64 w = splat64(base);
        w_set(w, i, v);
        for (unsigned j = 0; j < 64; ++j) {
          EXPECT_EQ(w_get(w, j), j == i ? v : base)
              << "set lane " << i << " read lane " << j;
        }
      }
    }
  }
}

TEST(DualRail, BinaryOpsMatchScalarTruthTablesInEveryLane) {
  for (unsigned phase = 0; phase < 9; ++phase) {
    const PackedPair p = tile(phase);
    const Word64 rand_w = w_and(p.a, p.b);
    const Word64 ror_w = w_or(p.a, p.b);
    const Word64 rxor_w = w_xor(p.a, p.b);
    for (unsigned i = 0; i < 64; ++i) {
      EXPECT_EQ(w_get(rand_w, i), v_and(p.sa[i], p.sb[i]))
          << "AND lane " << i << " phase " << phase;
      EXPECT_EQ(w_get(ror_w, i), v_or(p.sa[i], p.sb[i]))
          << "OR lane " << i << " phase " << phase;
      EXPECT_EQ(w_get(rxor_w, i), v_xor(p.sa[i], p.sb[i]))
          << "XOR lane " << i << " phase " << phase;
    }
  }
}

TEST(DualRail, NotMatchesScalarInEveryLane) {
  for (unsigned phase = 0; phase < 9; ++phase) {
    const PackedPair p = tile(phase);
    const Word64 rn = w_not(p.a);
    for (unsigned i = 0; i < 64; ++i) {
      EXPECT_EQ(w_get(rn, i), v_not(p.sa[i])) << "lane " << i;
    }
  }
}

TEST(DualRail, PredicatesMatchScalarInEveryLane) {
  for (unsigned phase = 0; phase < 9; ++phase) {
    const PackedPair p = tile(phase);
    const std::uint64_t eq = w_eq(p.a, p.b);
    const std::uint64_t hard = w_hard_diff(p.a, p.b);
    const std::uint64_t xm = w_is_x(p.a);
    const std::uint64_t bin = w_is_binary(p.a);
    for (unsigned i = 0; i < 64; ++i) {
      const Val a = p.sa[i], b = p.sb[i];
      EXPECT_EQ((eq >> i) & 1u, a == b ? 1u : 0u) << "eq lane " << i;
      const bool scalar_hard =
          is_binary(a) && is_binary(b) && a != b;
      EXPECT_EQ((hard >> i) & 1u, scalar_hard ? 1u : 0u)
          << "hard_diff lane " << i;
      EXPECT_EQ((xm >> i) & 1u, a == Val::X ? 1u : 0u)
          << "is_x lane " << i;
      EXPECT_EQ((bin >> i) & 1u, is_binary(a) ? 1u : 0u)
          << "is_binary lane " << i;
    }
  }
}

TEST(DualRail, SelectBlendsPerLane) {
  for (unsigned phase = 0; phase < 9; ++phase) {
    const PackedPair p = tile(phase);
    // An arbitrary-but-fixed irregular mask, plus the two extremes.
    for (std::uint64_t mask :
         {std::uint64_t{0}, ~std::uint64_t{0},
          std::uint64_t{0xA5A5'0FF0'3C3C'9696ull}}) {
      const Word64 r = w_select(mask, p.b, p.a);
      for (unsigned i = 0; i < 64; ++i) {
        const Val want = ((mask >> i) & 1u) != 0 ? p.sb[i] : p.sa[i];
        EXPECT_EQ(w_get(r, i), want) << "lane " << i;
      }
    }
  }
}

TEST(DualRail, InvalidCodeNormalisesToX) {
  // Code 1 (L=1,H=0) is unreachable through the public constructors; if a
  // word is forged with it, reads normalise to X like from_code does.
  Word64 w;
  w.l = 1;  // lane 0 holds the invalid code
  EXPECT_EQ(w_get(w, 0), Val::X);
  EXPECT_EQ(w_get(w, 1), Val::Zero);
}

// De Morgan / involution identities hold lane-wise on mixed words: a cheap
// whole-word cross-check that the rail layout of every operator agrees.
TEST(DualRail, AlgebraicIdentitiesOnMixedWords) {
  for (unsigned phase = 0; phase < 9; ++phase) {
    const PackedPair p = tile(phase);
    EXPECT_EQ(w_not(w_not(p.a)), p.a);
    EXPECT_EQ(w_not(w_and(p.a, p.b)), w_or(w_not(p.a), w_not(p.b)));
    EXPECT_EQ(w_not(w_or(p.a, p.b)), w_and(w_not(p.a), w_not(p.b)));
    EXPECT_EQ(w_eq(p.a, p.a), ~std::uint64_t{0});
    EXPECT_EQ(w_hard_diff(p.a, p.a), std::uint64_t{0});
  }
}

}  // namespace
}  // namespace cfs
