#pragma once
// Runtime SIMD dispatch level (docs/PERF.md, "SIMD kernel dispatch").
//
// The BoolFn word loops (src/boolfn/simd_kernels.*) ship in three
// variants — portable scalar, AVX2 and AVX-512 — selected ONCE per
// process from a cpuid probe, overridable by the PARBOUNDS_SIMD
// environment variable (values: portable | avx2 | avx512). The level
// lives here, below boolfn, so the bench JSON host provenance block can
// record it without a layering cycle.
//
// Determinism contract: every variant is bit-identical to portable —
// all kernels are exact integer/bitwise operations whose partial sums
// are associative and commutative — so the level may only change wall
// clock, never a model cost, a degree, or a serialized report (the
// level is recorded in the ops file's host block, never in the report).
// bench_hotpath's dispatch-equivalence oracle enforces this on every
// level the host supports, at pool sizes 1/2/8.

#include <string>
#include <vector>

namespace parbounds::runtime {

/// Kernel tiers in ascending order. Each tier requires the previous
/// one's cpu features plus its own; `portable` is always available.
enum class SimdLevel : unsigned {
  kPortable = 0,  ///< scalar word loops, the reference semantics
  kAvx2 = 1,      ///< 256-bit integer ops (requires avx2)
  kAvx512 = 2,    ///< 512-bit ops (requires avx512f+bw+vpopcntdq)
};

/// "portable" | "avx2" | "avx512" — the spelling PARBOUNDS_SIMD takes
/// and the bench JSON "dispatch" field reports.
const char* simd_level_name(SimdLevel level);

/// Parse a PARBOUNDS_SIMD value. On success sets `out` and returns
/// true; on an unknown value returns false and sets `error` to a typed
/// message with a did-you-mean hint (the same discipline as the
/// --via-*/--cache-* flag rejection in harness_flags).
bool parse_simd_level(const std::string& text, SimdLevel& out,
                      std::string& error);

/// Highest tier this cpu can run (cpuid probe; portable on non-x86).
SimdLevel max_supported_simd_level();

/// Every runnable tier in ascending order; always contains kPortable.
/// This is what the dispatch-equivalence oracle iterates.
std::vector<SimdLevel> supported_simd_levels();

/// The level the kernel table dispatches through. Resolved once on
/// first use: PARBOUNDS_SIMD when set (an unknown value or a tier the
/// cpu cannot run throws std::invalid_argument with the typed
/// message), otherwise max_supported_simd_level().
SimdLevel active_simd_level();

/// Re-pin the dispatch level at runtime (tests and the equivalence
/// oracle). Throws std::invalid_argument when the cpu cannot run it.
void set_simd_level(SimdLevel level);

/// Space-separated cpu feature flags relevant to the kernel tiers
/// (e.g. "popcnt avx avx2 avx512f avx512bw avx512vpopcntdq"), probed
/// once; "none" when no probed feature is present. Recorded in the
/// bench JSON host block so BENCH_*.json stays interpretable.
const std::string& cpu_feature_flags();

}  // namespace parbounds::runtime
