// Contract checks for the batch kernels of util/kernels.h.
//
// Each kernel is driven against a naive reference written out here, from
// its one-line contract.  Coverage is exhaustive where the input space is
// enumerable -- every (kind, arity) eval table up to arity 6 over all 4^n
// packed states (X-propagation included, since code 1 / X / binary codes
// all appear) -- and densely sampled where it is not (wide gates to arity
// 16 through the lo/hi/join composition, random index streams, random and
// adversarial bitmaps).  The suite names date from when these kernels had
// per-ISA variants; they are kept so each check keeps its test id.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "netlist/gate.h"
#include "util/kernels.h"
#include "util/logic.h"
#include "util/packed_state.h"

namespace cfs {
namespace {

// ---------------------------------------------------------------------------
// find_nonzero / expand_bits: the bitmap sweep
// ---------------------------------------------------------------------------

// Mask families the sweep has to get right: dense, empty, and the
// single-bit patterns where an off-by-one bit or word survives random
// testing.
std::vector<std::vector<std::uint64_t>> sweep_masks() {
  std::vector<std::vector<std::uint64_t>> masks;
  masks.push_back({});                            // empty array
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 33u}) {
    masks.emplace_back(n, 0);                     // all-zero
    masks.emplace_back(n, ~std::uint64_t{0});     // all-one
    // Single bit in a single word, swept over words and bit positions.
    for (std::size_t w = 0; w < n; ++w) {
      for (unsigned b : {0u, 1u, 31u, 32u, 62u, 63u}) {
        std::vector<std::uint64_t> m(n, 0);
        m[w] = std::uint64_t{1} << b;
        masks.push_back(std::move(m));
      }
    }
    // One bit per word, position rotating.
    std::vector<std::uint64_t> rot(n, 0);
    for (std::size_t w = 0; w < n; ++w) rot[w] = std::uint64_t{1} << (w % 64);
    masks.push_back(std::move(rot));
  }
  std::mt19937_64 rng(0xC0FFEEu);
  for (int i = 0; i < 40; ++i) {
    std::vector<std::uint64_t> m(1 + rng() % 40);
    for (auto& w : m) {
      const unsigned mode = rng() % 3;
      w = mode == 0 ? 0 : mode == 1 ? rng() : rng() & rng() & rng();
    }
    masks.push_back(std::move(m));
  }
  return masks;
}

TEST(SimdKernels, FindNonzeroMatchesScalarOnAllMaskFamilies) {
  for (const auto& mask : sweep_masks()) {
    const std::size_t got = kernels::find_nonzero(mask.data(), mask.size());
    ASSERT_LE(got, mask.size());
    for (std::size_t i = 0; i < got; ++i) {
      ASSERT_EQ(mask[i], 0u) << "nwords=" << mask.size() << " i=" << i;
    }
    if (got < mask.size()) {
      ASSERT_NE(mask[got], 0u) << "nwords=" << mask.size();
    }
  }
}

TEST(SimdKernels, ExpandBitsMatchesScalarOnAllMaskFamilies) {
  for (const auto& mask : sweep_masks()) {
    for (std::uint32_t base : {0u, 64u, 12345u}) {
      // Naive reference: test every bit of every word in order.
      std::vector<std::uint32_t> want;
      for (std::size_t i = 0; i < mask.size(); ++i) {
        for (unsigned b = 0; b < 64; ++b) {
          if ((mask[i] >> b) & 1) {
            want.push_back(base + static_cast<std::uint32_t>(i * 64 + b));
          }
        }
      }
      std::vector<std::uint32_t> got(mask.size() * 64 + 1, 0xCDCDCDCDu);
      const std::vector<std::uint64_t> before = mask;
      const std::size_t gn =
          kernels::expand_bits(mask.data(), mask.size(), base, got.data());
      ASSERT_EQ(gn, want.size()) << "nwords=" << mask.size();
      for (std::size_t i = 0; i < gn; ++i) {
        ASSERT_EQ(got[i], want[i]) << "nwords=" << mask.size() << " i=" << i;
      }
      ASSERT_EQ(got[gn], 0xCDCDCDCDu) << "wrote past the last position";
      ASSERT_EQ(mask, before) << "expand_bits modified its input";
    }
  }
}

// ---------------------------------------------------------------------------
// gather_u8 / state_indices: the batched table-eval path
// ---------------------------------------------------------------------------

TEST(SimdKernels, GatherMatchesScalarIncludingOddTails) {
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> table(4096);
  for (auto& b : table) b = static_cast<std::uint8_t>(rng());
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<std::uint32_t> idx(n);
    for (auto& i : idx) i = static_cast<std::uint32_t>(rng() % 4096);
    if (n > 0) idx[n - 1] = 4095;  // the table's last entry
    std::vector<std::uint8_t> got(n + 1, 0x77);
    kernels::gather_u8(table.data(), idx.data(), n, got.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], table[idx[i]]) << "n=" << n << " i=" << i;
    }
    ASSERT_EQ(got[n], 0x77) << "wrote past n=" << n;
  }
}

TEST(SimdKernels, StateIndicesMatchesScalarAcrossShiftsAndMasks) {
  std::mt19937_64 rng(11);
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 8u, 31u, 64u, 100u}) {
    std::vector<std::uint64_t> st(n);
    for (auto& s : st) s = rng();
    for (unsigned shift : {0u, 2 * kEvalChunkPins}) {
      for (std::uint32_t mask :
           {0x3u, 0xFFu, 0xFFFFu, (1u << (2 * kEvalChunkPins)) - 1}) {
        std::vector<std::uint32_t> got(n + 1, 0xDCBA);
        kernels::state_indices(st.data(), n, shift, mask, got.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], static_cast<std::uint32_t>(st[i] >> shift) & mask)
              << "n=" << n << " shift=" << shift;
        }
        ASSERT_EQ(got[n], 0xDCBAu) << "wrote past n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// classify: the visible-change test
// ---------------------------------------------------------------------------

TEST(SimdKernels, ClassifyMatchesScalarOnRandomAndStructuredElements) {
  std::mt19937_64 rng(13);
  for (unsigned nf : {1u, 2u, 4u, 8u, 12u, 16u}) {
    const std::uint64_t in_mask = input_mask(nf);
    for (int round = 0; round < 30; ++round) {
      const std::uint64_t good = rng();
      // Output codes are always table codes {0, 2, 3}; pick good_code
      // among them so the visible test can go both ways.
      constexpr std::array<std::uint8_t, 3> kCodes = {0, 2, 3};
      const std::uint8_t good_code = kCodes[rng() % 3];
      const std::size_t n = rng() % 70;
      std::vector<std::uint64_t> st(n);
      std::vector<std::uint8_t> outs(n);
      for (std::size_t i = 0; i < n; ++i) {
        outs[i] = kCodes[rng() % 3];
        switch (rng() % 4) {
          case 0:  // random state
            st[i] = rng();
            break;
          case 1:  // converged candidate: inputs equal good
            st[i] = good;
            outs[i] = good_code;
            break;
          case 2:  // differs only outside the input mask (still converged
                   // when outs matches: the output slot is not compared)
            st[i] = (good & in_mask) | (rng() & ~in_mask);
            break;
          default:  // one flipped input pin
            st[i] = good ^ (std::uint64_t{3} << (2 * (rng() % nf)));
            break;
        }
      }
      std::vector<std::uint8_t> got(n + 1, 0x55);
      kernels::classify(st.data(), outs.data(), n, good, in_mask, good_code,
                        got.data());
      for (std::size_t i = 0; i < n; ++i) {
        // The merge's branch sequence: visible, else invisible, else
        // converged.
        std::uint8_t expect = 0;
        if (outs[i] != good_code) {
          expect = 1;
        } else if (((st[i] ^ good) & in_mask) != 0) {
          expect = 2;
        }
        ASSERT_EQ(got[i], expect) << "nf=" << nf << " i=" << i;
      }
      ASSERT_EQ(got[n], 0x55) << "wrote past n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end eval-table check: state_indices + gather over the real shared
// (kind, arity) tables vs the fold oracle
// ---------------------------------------------------------------------------

constexpr std::array<GateKind, 8> kCombKinds = {
    GateKind::Buf, GateKind::Not, GateKind::And, GateKind::Nand,
    GateKind::Or,  GateKind::Nor, GateKind::Xor, GateKind::Xnor};

// Compose lo/hi/join exactly as Circuit::eval does.
Val table_eval(const EvalTable& t, GateState s) {
  const std::uint8_t c0 = t.lo[static_cast<std::uint32_t>(s) & t.lo_mask];
  if (t.hi == nullptr) return from_code(c0);
  const std::uint8_t c1 =
      t.hi[static_cast<std::uint32_t>(s >> (2 * kEvalChunkPins)) & t.hi_mask];
  return from_code(t.join[(c0 << 2) | c1]);
}

TEST(SimdEvalTables, ExhaustiveLockstepToArity6) {
  for (GateKind k : kCombKinds) {
    const auto [lo_ar, hi_ar] = arity(k);
    for (unsigned nf = lo_ar; nf <= std::min(hi_ar, 6u); ++nf) {
      const EvalTable t = eval_table(k, nf);
      ASSERT_NE(t.lo, nullptr);
      ASSERT_EQ(t.hi, nullptr);  // narrow gates are single-lookup
      const std::uint32_t entries = 1u << (2 * nf);
      // Every packed input state, X codes and the invalid code 1 included.
      std::vector<std::uint64_t> st(entries);
      for (std::uint32_t s = 0; s < entries; ++s) st[s] = s;
      std::vector<std::uint32_t> idx(entries);
      kernels::state_indices(st.data(), entries, 0, t.lo_mask, idx.data());
      std::vector<std::uint8_t> got(entries);
      kernels::gather_u8(t.lo, idx.data(), entries, got.data());
      for (std::uint32_t s = 0; s < entries; ++s) {
        // The fold / X-prop oracle.
        ASSERT_EQ(got[s], code(eval_kind(k, s, nf)))
            << kind_name(k) << "/" << nf << " state=" << s;
      }
    }
  }
}

TEST(SimdEvalTables, SampledWideLockstepToArity16) {
  std::mt19937_64 rng(17);
  for (GateKind k : kCombKinds) {
    const auto [lo_ar, hi_ar] = arity(k);
    if (hi_ar < 7) continue;  // Buf/Not have no wide form
    for (unsigned nf : {7u, 8u, 9u, 12u, 16u}) {
      if (nf > hi_ar) continue;
      const EvalTable t = eval_table(k, nf);
      ASSERT_NE(t.lo, nullptr);
      const std::size_t n = 2000;
      std::vector<std::uint64_t> st(n);
      for (auto& s : st) s = rng() & input_mask(nf);
      // Low chunk through the kernels...
      std::vector<std::uint32_t> idx(n);
      kernels::state_indices(st.data(), n, 0, t.lo_mask, idx.data());
      std::vector<std::uint8_t> c0(n);
      kernels::gather_u8(t.lo, idx.data(), n, c0.data());
      if (t.hi != nullptr) {
        // ...high chunk and join the same way the engine's wide tail
        // does, then pin the composition against both oracles.
        kernels::state_indices(st.data(), n, 2 * kEvalChunkPins, t.hi_mask,
                               idx.data());
        std::vector<std::uint8_t> c1(n);
        kernels::gather_u8(t.hi, idx.data(), n, c1.data());
        for (std::size_t i = 0; i < n; ++i) {
          c0[i] = t.join[(c0[i] << 2) | c1[i]];
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(from_code(c0[i]), table_eval(t, st[i]))
            << kind_name(k) << "/" << nf;
        ASSERT_EQ(from_code(c0[i]), eval_kind(k, st[i], nf))
            << kind_name(k) << "/" << nf;
      }
    }
  }
}

}  // namespace
}  // namespace cfs
