#pragma once
// Runtime-dispatched SIMD kernels for the BoolFn word loops
// (docs/PERF.md, "SIMD kernel dispatch").
//
// Every hot loop in boolfn.cpp — connectives, fix, counting, the GF(2)
// zeta levels and the integer Moebius transform (moebius_low for the
// four levels inside a 16-coefficient group, moebius_level for each
// wider one) — funnels through the function-pointer table below. Three variants exist: portable scalar
// (the reference semantics, always compiled), AVX2 and AVX-512,
// selected by runtime::active_simd_level() (cpuid probe, pinnable via
// PARBOUNDS_SIMD). The wide variants are compiled with per-function
// target attributes and only ever *called* behind the cpuid check, so
// one binary runs everywhere.
//
// Determinism contract: every kernel is exact integer/bitwise work
// whose partial results combine associatively and commutatively
// (XOR/AND/OR lanes, int64 sums, maxima), so AVX2 and AVX-512 are
// bit-identical to portable at any pool size. bench_hotpath's
// dispatch-equivalence oracle and the intra-label gtest enforce this
// on every level the host supports; there is deliberately no kernel
// whose result could depend on lane order. The Moebius kernels apply
// each update exactly once in int32, and the transform's levels
// commute, so any order of levels and blocks gives the same table.
//
// Range convention: [lo, hi) are WORD indices (64 truth-table entries
// per word) except moebius_level (flattened update indices),
// moebius_low and max_degree_scan (coefficient indices). Callers shard
// ranges with runtime::ParallelFor; kernels never spawn work themselves.

#include <cstdint>

#include "runtime/simd_level.hpp"

namespace parbounds::simd {

// Bit j of kVarMask[i] is set iff bit i of j is set: the truth table of
// variable x_i restricted to one 64-entry word. These six masks drive
// every in-word step of the transforms.
constexpr std::uint64_t var_mask(unsigned i) {
  std::uint64_t m = 0;
  for (unsigned j = 0; j < 64; ++j)
    if ((j >> i) & 1u) m |= std::uint64_t{1} << j;
  return m;
}
inline constexpr std::uint64_t kVarMask[6] = {var_mask(0), var_mask(1),
                                              var_mask(2), var_mask(3),
                                              var_mask(4), var_mask(5)};

// Bit j set iff popcount(j) is odd: parity of the low six input bits.
constexpr std::uint64_t odd_parity_mask() {
  std::uint64_t m = 0;
  for (unsigned j = 0; j < 64; ++j) {
    unsigned pc = 0;
    for (unsigned b = 0; b < 6; ++b) pc += (j >> b) & 1u;
    if (pc & 1u) m |= std::uint64_t{1} << j;
  }
  return m;
}
inline constexpr std::uint64_t kOddParity = odd_parity_mask();

/// The dispatch seam: one function pointer per word-loop shape.
struct KernelDispatch {
  const char* name;  ///< matches runtime::simd_level_name

  // ----- connectives / fix (disjoint dst ranges) ---------------------------
  /// dst[i] = ~src[i] for i in [lo, hi)
  void (*op_not)(std::uint64_t* dst, const std::uint64_t* src,
                 std::size_t lo, std::size_t hi);
  /// dst[i] = a[i] OP b[i]
  void (*op_and)(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t lo, std::size_t hi);
  void (*op_or)(std::uint64_t* dst, const std::uint64_t* a,
                const std::uint64_t* b, std::size_t lo, std::size_t hi);
  void (*op_xor)(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t lo, std::size_t hi);
  /// In-word variable fix (i < 6): keep the value-v half of each word
  /// and mirror it into the other half. shift = 1<<i, hi_mask =
  /// kVarMask[i]. value picks which half survives.
  void (*fix_low)(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t lo, std::size_t hi, unsigned shift,
                  std::uint64_t hi_mask, bool value);

  // ----- counting ----------------------------------------------------------
  /// sum of popcount(w[i]) over [lo, hi)
  std::uint64_t (*popcount_words)(const std::uint64_t* w, std::size_t lo,
                                  std::size_t hi);
  /// sum over words wi in [lo, hi) with (wi & skip_blk) == 0 of
  ///   sign(wi) * (popcount(b & ~kOddParity) - popcount(b & kOddParity))
  /// where b = w[wi] & keep and sign(wi) = -1 iff popcount(wi) is odd.
  /// keep = ~0 (plain signed sum) or ~kVarMask[i] (level n-1, i < 6);
  /// skip_blk = 0 (no skip) or 1<<(i-6) (level n-1, i >= 6).
  std::int64_t (*signed_sum_words)(const std::uint64_t* w, std::size_t lo,
                                   std::size_t hi, std::uint64_t keep,
                                   std::size_t skip_blk);

  // ----- GF(2) zeta levels -------------------------------------------------
  /// w[i] ^= (w[i] << shift) & mask — the in-word levels (variable < 6)
  void (*gf2_inword)(std::uint64_t* w, std::size_t lo, std::size_t hi,
                     unsigned shift, std::uint64_t mask);
  /// w[i] ^= w[i ^ blk] for i in [lo, hi) with (i & blk) != 0 — the
  /// cross-word levels. Writes only blk-set words, reads only blk-clear
  /// words, so range shards never race.
  void (*gf2_cross)(std::uint64_t* w, std::size_t lo, std::size_t hi,
                    std::size_t blk);

  // ----- integer Moebius / degree ------------------------------------------
  /// One transform level over flattened update indices k in [lo, hi):
  /// with j = k % h and base = (k / h) * 2h, c[base+h+j] -= c[base+j].
  void (*moebius_level)(std::int32_t* c, std::uint64_t lo, std::uint64_t hi,
                        std::uint32_t h);
  /// Levels h = 1, 2, 4, 8 of the transform over each aligned
  /// 16-coefficient group in [lo, hi) (coefficient indices, multiples
  /// of 16): the in-register start of every table of >= 16 entries.
  void (*moebius_low)(std::int32_t* c, std::uint64_t lo, std::uint64_t hi);
  /// c[64*wi + j] = bit j of w[wi], as 0/1 int32, for wi in [wlo, whi).
  void (*scatter01)(std::int32_t* c, const std::uint64_t* w, std::size_t wlo,
                    std::size_t whi);
  /// g[64*wi + j] += sgn for every set bit j of slice[wi], wi in
  /// [0, words) — the chunked-degree subset accumulation (sgn = ±1).
  void (*slice_accum)(std::int32_t* g, const std::uint64_t* slice,
                      std::size_t words, std::int32_t sgn);
  /// max over m in [lo, hi) with c[m] != 0 of popcount(m); 0 when the
  /// range is all zero.
  unsigned (*max_degree_scan)(const std::int32_t* c, std::uint32_t lo,
                              std::uint32_t hi);
};

/// The table for an explicit level (the equivalence oracle iterates
/// runtime::supported_simd_levels() through this). Requesting a level
/// above runtime::max_supported_simd_level() returns the portable
/// table — the caller pinned levels via runtime::set_simd_level, which
/// already rejects unsupported tiers.
const KernelDispatch& kernels_for(runtime::SimdLevel level);

/// The table for runtime::active_simd_level() — what boolfn.cpp uses.
inline const KernelDispatch& kernels() {
  return kernels_for(runtime::active_simd_level());
}

}  // namespace parbounds::simd
