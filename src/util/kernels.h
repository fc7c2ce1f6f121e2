// Batch kernels of the engine's hot loops (DESIGN.md §16): the bitmap
// sweep of the level queue, and the gather-based batched table eval and
// merge classification of ConcurrentSim.  Each kernel works on a whole
// level or a whole merge at a time; the win is that loop structure, not
// any particular instruction set, so these plain loops are the only
// implementation.  tests/test_kernels.cpp holds each one to its contract.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace cfs::kernels {

/// First index i in [0, n) with words[i] != 0, else n.  The level queue's
/// dirty-summary sweep skips zero regions through this.
inline std::size_t find_nonzero(const std::uint64_t* words, std::size_t n) {
  std::size_t i = 0;
  while (i < n && words[i] == 0) ++i;
  return i;
}

/// Compressed-index emit: append the position `base + 64*i + bit` of
/// every set bit of every words[i] (i ascending, bits low-to-high) to
/// `out`, returning the number of positions written.  `out` must have
/// room for 64*nwords entries.  Does not modify the words.
inline std::size_t expand_bits(const std::uint64_t* words, std::size_t nwords,
                               std::uint32_t base, std::uint32_t* out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < nwords; ++i) {
    std::uint64_t w = words[i];
    const std::uint32_t wb = base + static_cast<std::uint32_t>(i * 64);
    while (w != 0) {
      out[k++] = wb + static_cast<std::uint32_t>(std::countr_zero(w));
      w &= w - 1;
    }
  }
  return k;
}

/// Batched byte-table lookup: out[i] = table[idx[i]] for i < n.
inline void gather_u8(const std::uint8_t* table, const std::uint32_t* idx,
                      std::size_t n, std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = table[idx[i]];
}

/// Gather-index build from packed gate states:
/// idx[i] = (uint32)(st[i] >> shift) & mask.
inline void state_indices(const std::uint64_t* st, std::size_t n,
                          unsigned shift, std::uint32_t mask,
                          std::uint32_t* idx) {
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<std::uint32_t>(st[i] >> shift) & mask;
  }
}

/// Merge classification (the visible-change test, a batch of elements at
/// a time): for each element i,
///   cls[i] = 1  if outs[i] != good_code              (visible)
///            2  else if (st[i] ^ good) & in_mask     (invisible)
///            0  otherwise                            (converged)
/// `outs` are 2-bit output codes as produced by gather_u8 over an eval
/// table; `good` is the good packed state, `in_mask` the input-pin mask.
inline void classify(const std::uint64_t* st, const std::uint8_t* outs,
                     std::size_t n, std::uint64_t good, std::uint64_t in_mask,
                     std::uint8_t good_code, std::uint8_t* cls) {
  for (std::size_t i = 0; i < n; ++i) {
    if (outs[i] != good_code) {
      cls[i] = 1;
    } else {
      cls[i] = ((st[i] ^ good) & in_mask) != 0 ? 2 : 0;
    }
  }
}

}  // namespace cfs::kernels
