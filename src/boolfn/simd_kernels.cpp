#include "boolfn/simd_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PARBOUNDS_SIMD_X86 1
#include <immintrin.h>
#else
#define PARBOUNDS_SIMD_X86 0
#endif

namespace parbounds::simd {

namespace {

// ===== portable reference kernels ===========================================
// These are the semantics. The wide variants below must be bit-identical
// — every lane operation is exact integer work and every accumulator
// combines associatively, so reordering partial sums cannot change a
// result. The dispatch-equivalence oracle (bench_hotpath) and the
// intra-label gtest hold each tier to this.

void p_not(std::uint64_t* dst, const std::uint64_t* src, std::size_t lo,
           std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) dst[i] = ~src[i];
}

void p_and(std::uint64_t* dst, const std::uint64_t* a,
           const std::uint64_t* b, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) dst[i] = a[i] & b[i];
}

void p_or(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
          std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) dst[i] = a[i] | b[i];
}

void p_xor(std::uint64_t* dst, const std::uint64_t* a,
           const std::uint64_t* b, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) dst[i] = a[i] ^ b[i];
}

void p_fix_low(std::uint64_t* dst, const std::uint64_t* src, std::size_t lo,
               std::size_t hi, unsigned shift, std::uint64_t hi_mask,
               bool value) {
  if (value) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t t = src[i] & hi_mask;
      dst[i] = t | (t >> shift);
    }
  } else {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t t = src[i] & ~hi_mask;
      dst[i] = t | (t << shift);
    }
  }
}

std::uint64_t p_popcount(const std::uint64_t* w, std::size_t lo,
                         std::size_t hi) {
  std::uint64_t c = 0;
  for (std::size_t i = lo; i < hi; ++i)
    c += static_cast<std::uint64_t>(std::popcount(w[i]));
  return c;
}

std::int64_t p_signed_sum(const std::uint64_t* w, std::size_t lo,
                          std::size_t hi, std::uint64_t keep,
                          std::size_t skip_blk) {
  std::int64_t s = 0;
  for (std::size_t wi = lo; wi < hi; ++wi) {
    if ((wi & skip_blk) != 0) continue;
    const std::uint64_t bits = w[wi] & keep;
    if (bits == 0) continue;
    const std::int64_t d = std::popcount(bits & ~kOddParity) -
                           std::popcount(bits & kOddParity);
    s += (std::popcount(wi) & 1u) ? -d : d;
  }
  return s;
}

void p_gf2_inword(std::uint64_t* w, std::size_t lo, std::size_t hi,
                  unsigned shift, std::uint64_t mask) {
  for (std::size_t i = lo; i < hi; ++i) w[i] ^= (w[i] << shift) & mask;
}

void p_gf2_cross(std::uint64_t* w, std::size_t lo, std::size_t hi,
                 std::size_t blk) {
  for (std::size_t i = lo; i < hi; ++i)
    if ((i & blk) != 0) w[i] ^= w[i ^ blk];
}

// Update k of level h (a power of two) reads coefficient
// moebius_source(k, h) and writes that index + h: the index is k with a
// zero bit inserted at position log2(h).
std::uint64_t moebius_source(std::uint64_t k, std::uint32_t h) {
  return ((k & ~std::uint64_t{h - 1}) << 1) | (k & (h - 1));
}

void p_moebius_level(std::int32_t* c, std::uint64_t lo, std::uint64_t hi,
                     std::uint32_t h) {
  for (std::uint64_t k = lo; k < hi; ++k) {
    const std::uint64_t src = moebius_source(k, h);
    c[src + h] -= c[src];
  }
}

// Coefficients [lo, hi) hold the level-h updates [lo/2, hi/2) for every
// h <= 8, since lo and hi are multiples of 16.
void p_moebius_low(std::int32_t* c, std::uint64_t lo, std::uint64_t hi) {
  for (std::uint32_t h = 1; h < 16; h <<= 1)
    p_moebius_level(c, lo / 2, hi / 2, h);
}

void p_scatter01(std::int32_t* c, const std::uint64_t* w, std::size_t wlo,
                 std::size_t whi) {
  for (std::size_t wi = wlo; wi < whi; ++wi) {
    const std::uint64_t bits = w[wi];
    std::int32_t* out = c + (wi << 6);
    for (unsigned j = 0; j < 64; ++j)
      out[j] = static_cast<std::int32_t>((bits >> j) & 1u);
  }
}

void p_slice_accum(std::int32_t* g, const std::uint64_t* slice,
                   std::size_t words, std::int32_t sgn) {
  for (std::size_t wi = 0; wi < words; ++wi) {
    std::uint64_t bits = slice[wi];
    while (bits != 0) {
      const unsigned j = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      g[(wi << 6) | j] += sgn;
    }
  }
}

unsigned p_max_deg_scan(const std::int32_t* c, std::uint32_t lo,
                        std::uint32_t hi) {
  unsigned b = 0;
  for (std::uint32_t m = lo; m < hi; ++m)
    if (c[m] != 0)
      b = std::max(b, static_cast<unsigned>(std::popcount(m)));
  return b;
}

#if PARBOUNDS_SIMD_X86

// ===== AVX2 kernels =========================================================
// Compiled with per-function target attributes; only ever called behind
// the cpuid probe in runtime::active_simd_level().

#define PB_TGT_AVX2 __attribute__((target("avx2")))

PB_TGT_AVX2 void v2_not(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (; i + 4 <= hi; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(v, ones));
  }
  for (; i < hi; ++i) dst[i] = ~src[i];
}

PB_TGT_AVX2 void v2_and(std::uint64_t* dst, const std::uint64_t* a,
                        const std::uint64_t* b, std::size_t lo,
                        std::size_t hi) {
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4)
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i))));
  for (; i < hi; ++i) dst[i] = a[i] & b[i];
}

PB_TGT_AVX2 void v2_or(std::uint64_t* dst, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t lo,
                       std::size_t hi) {
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4)
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_or_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i))));
  for (; i < hi; ++i) dst[i] = a[i] | b[i];
}

PB_TGT_AVX2 void v2_xor(std::uint64_t* dst, const std::uint64_t* a,
                        const std::uint64_t* b, std::size_t lo,
                        std::size_t hi) {
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4)
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i))));
  for (; i < hi; ++i) dst[i] = a[i] ^ b[i];
}

PB_TGT_AVX2 void v2_fix_low(std::uint64_t* dst, const std::uint64_t* src,
                            std::size_t lo, std::size_t hi, unsigned shift,
                            std::uint64_t hi_mask, bool value) {
  const __m128i cnt = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m256i vmask =
      _mm256_set1_epi64x(static_cast<long long>(hi_mask));
  std::size_t i = lo;
  if (value) {
    for (; i + 4 <= hi; i += 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      const __m256i t = _mm256_and_si256(v, vmask);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_or_si256(t, _mm256_srl_epi64(t, cnt)));
    }
  } else {
    for (; i + 4 <= hi; i += 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      const __m256i t = _mm256_andnot_si256(vmask, v);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_or_si256(t, _mm256_sll_epi64(t, cnt)));
    }
  }
  p_fix_low(dst, src, i, hi, shift, hi_mask, value);
}

// Classic pshufb nibble-LUT popcount; _mm256_sad_epu8 folds the byte
// counts into exact per-64-bit-lane sums, accumulated in int64 lanes.
PB_TGT_AVX2 std::uint64_t v2_popcount(const std::uint64_t* w, std::size_t lo,
                                      std::size_t hi) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low4 = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    const __m256i nlo = _mm256_and_si256(v, low4);
    const __m256i nhi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low4);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, nlo),
                                        _mm256_shuffle_epi8(lut, nhi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
  }
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  std::uint64_t total =
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
      static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
  for (; i < hi; ++i)
    total += static_cast<std::uint64_t>(std::popcount(w[i]));
  return total;
}

PB_TGT_AVX2 void v2_gf2_inword(std::uint64_t* w, std::size_t lo,
                               std::size_t hi, unsigned shift,
                               std::uint64_t mask) {
  const __m128i cnt = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(w + i),
        _mm256_xor_si256(
            v, _mm256_and_si256(_mm256_sll_epi64(v, cnt), vmask)));
  }
  for (; i < hi; ++i) w[i] ^= (w[i] << shift) & mask;
}

PB_TGT_AVX2 void v2_gf2_cross(std::uint64_t* w, std::size_t lo,
                              std::size_t hi, std::size_t blk) {
  std::size_t i = lo;
  while (i < hi) {
    if ((i & blk) == 0) {
      // Jump to the next index with the blk bit set.
      i = (i | blk) & ~(blk - 1);
      continue;
    }
    // The blk bit stays set through the end of this aligned run.
    const std::size_t run_end =
        std::min<std::size_t>(hi, (i - (i & (blk - 1))) + blk);
    std::size_t j = i;
    for (; j + 4 <= run_end; j += 4)
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(w + j),
          _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + j)),
              _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(w + j - blk))));
    for (; j < run_end; ++j) w[j] ^= w[j - blk];
    i = run_end;
  }
}

PB_TGT_AVX2 void v2_moebius_level(std::int32_t* c, std::uint64_t lo,
                                  std::uint64_t hi, std::uint32_t h) {
  std::uint64_t k = lo;
  while (k < hi) {
    const std::uint64_t run =
        std::min<std::uint64_t>(hi - k, h - (k & (h - 1)));
    std::int32_t* src = c + moebius_source(k, h);
    std::int32_t* dst = src + h;
    std::size_t x = 0;
    for (; x + 8 <= run; x += 8)
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(dst + x),
          _mm256_sub_epi32(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + x)),
              _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(src + x))));
    for (; x < run; ++x) dst[x] -= src[x];
    k += run;
  }
}

// One 16-coefficient group is two vectors, a = lanes 0..7 and b = lanes
// 8..15. Levels 1, 2 and 4 run in each vector: the shuffle or the
// 128-bit permute brings lane i - h into lane i, and the blend (or the
// zeroed low half) keeps only the lanes whose h bit is set. Level 8 is
// b -= a.
PB_TGT_AVX2 __m256i v2_moebius_low_lanes(__m256i v) {
  const __m256i zero = _mm256_setzero_si256();
  v = _mm256_sub_epi32(
      v, _mm256_blend_epi32(zero, _mm256_shuffle_epi32(v, 0xB1), 0xAA));
  v = _mm256_sub_epi32(
      v, _mm256_blend_epi32(zero, _mm256_shuffle_epi32(v, 0x4E), 0xCC));
  return _mm256_sub_epi32(v, _mm256_permute2x128_si256(v, v, 0x08));
}

PB_TGT_AVX2 void v2_moebius_low(std::int32_t* c, std::uint64_t lo,
                                std::uint64_t hi) {
  for (std::uint64_t g = lo; g < hi; g += 16) {
    auto* pa = reinterpret_cast<__m256i*>(c + g);
    auto* pb = reinterpret_cast<__m256i*>(c + g + 8);
    const __m256i a = v2_moebius_low_lanes(_mm256_loadu_si256(pa));
    const __m256i b = v2_moebius_low_lanes(_mm256_loadu_si256(pb));
    _mm256_storeu_si256(pa, a);
    _mm256_storeu_si256(pb, _mm256_sub_epi32(b, a));
  }
}

PB_TGT_AVX2 void v2_scatter01(std::int32_t* c, const std::uint64_t* w,
                              std::size_t wlo, std::size_t whi) {
  const __m256i shifts = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i one = _mm256_set1_epi32(1);
  for (std::size_t wi = wlo; wi < whi; ++wi) {
    const std::uint64_t bits = w[wi];
    std::int32_t* out = c + (wi << 6);
    for (unsigned b = 0; b < 64; b += 8) {
      const __m256i chunk =
          _mm256_set1_epi32(static_cast<int>((bits >> b) & 0xffu));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + b),
          _mm256_and_si256(_mm256_srlv_epi32(chunk, shifts), one));
    }
  }
}

PB_TGT_AVX2 void v2_slice_accum(std::int32_t* g, const std::uint64_t* slice,
                                std::size_t words, std::int32_t sgn) {
  const __m256i shifts = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i one = _mm256_set1_epi32(1);
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::uint64_t bits = slice[wi];
    if (bits == 0) continue;
    std::int32_t* out = g + (wi << 6);
    for (unsigned b = 0; b < 64; b += 8) {
      const std::uint32_t ch =
          static_cast<std::uint32_t>((bits >> b) & 0xffu);
      if (ch == 0) continue;
      const __m256i m = _mm256_and_si256(
          _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(ch)),
                            shifts),
          one);
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + b));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + b),
                          sgn > 0 ? _mm256_add_epi32(v, m)
                                  : _mm256_sub_epi32(v, m));
    }
  }
}

// ===== AVX-512 kernels ======================================================
// Foundation + BW (64-lane masks) + VPOPCNTDQ (per-lane popcounts) —
// exactly the features runtime::probe_max_level() requires for the tier.

#define PB_TGT_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512vpopcntdq")))

// gcc's avx512 headers implement the unmasked intrinsics via masked
// builtins whose passthrough operand is the self-initialized
// `__m512i __Y = __Y` undefined-value idiom; every inline site then
// trips -W(maybe-)uninitialized (gcc PR105593). The values are never
// observed — all lanes are overwritten — so silence the two
// diagnostics for the AVX-512 block only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// Store-and-sum reductions: _mm512_reduce_* expand through
// _mm256_undefined_si256 in the gcc headers, which trips
// -Wuninitialized under -Werror; a store plus scalar fold costs
// nothing once per kernel call and is warning-clean.
PB_TGT_AVX512 std::int64_t v5_hsum_epi64(__m512i v) {
  std::int64_t tmp[8];
  _mm512_storeu_si512(tmp, v);
  std::int64_t s = 0;
  for (const std::int64_t x : tmp) s += x;
  return s;
}

PB_TGT_AVX512 std::uint32_t v5_hmax_epu32(__m512i v) {
  std::uint32_t tmp[16];
  _mm512_storeu_si512(tmp, v);
  std::uint32_t m = 0;
  for (const std::uint32_t x : tmp) m = std::max(m, x);
  return m;
}

PB_TGT_AVX512 void v5_not(std::uint64_t* dst, const std::uint64_t* src,
                          std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  const __m512i ones = _mm512_set1_epi64(-1);
  for (; i + 8 <= hi; i += 8)
    _mm512_storeu_si512(dst + i,
                        _mm512_xor_si512(_mm512_loadu_si512(src + i), ones));
  for (; i < hi; ++i) dst[i] = ~src[i];
}

PB_TGT_AVX512 void v5_and(std::uint64_t* dst, const std::uint64_t* a,
                          const std::uint64_t* b, std::size_t lo,
                          std::size_t hi) {
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8)
    _mm512_storeu_si512(dst + i,
                        _mm512_and_si512(_mm512_loadu_si512(a + i),
                                         _mm512_loadu_si512(b + i)));
  for (; i < hi; ++i) dst[i] = a[i] & b[i];
}

PB_TGT_AVX512 void v5_or(std::uint64_t* dst, const std::uint64_t* a,
                         const std::uint64_t* b, std::size_t lo,
                         std::size_t hi) {
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8)
    _mm512_storeu_si512(dst + i,
                        _mm512_or_si512(_mm512_loadu_si512(a + i),
                                        _mm512_loadu_si512(b + i)));
  for (; i < hi; ++i) dst[i] = a[i] | b[i];
}

PB_TGT_AVX512 void v5_xor(std::uint64_t* dst, const std::uint64_t* a,
                          const std::uint64_t* b, std::size_t lo,
                          std::size_t hi) {
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8)
    _mm512_storeu_si512(dst + i,
                        _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                         _mm512_loadu_si512(b + i)));
  for (; i < hi; ++i) dst[i] = a[i] ^ b[i];
}

PB_TGT_AVX512 void v5_fix_low(std::uint64_t* dst, const std::uint64_t* src,
                              std::size_t lo, std::size_t hi, unsigned shift,
                              std::uint64_t hi_mask, bool value) {
  const __m128i cnt = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m512i vmask =
      _mm512_set1_epi64(static_cast<long long>(hi_mask));
  std::size_t i = lo;
  if (value) {
    for (; i + 8 <= hi; i += 8) {
      const __m512i t =
          _mm512_and_si512(_mm512_loadu_si512(src + i), vmask);
      _mm512_storeu_si512(dst + i,
                          _mm512_or_si512(t, _mm512_srl_epi64(t, cnt)));
    }
  } else {
    for (; i + 8 <= hi; i += 8) {
      const __m512i t =
          _mm512_andnot_si512(vmask, _mm512_loadu_si512(src + i));
      _mm512_storeu_si512(dst + i,
                          _mm512_or_si512(t, _mm512_sll_epi64(t, cnt)));
    }
  }
  p_fix_low(dst, src, i, hi, shift, hi_mask, value);
}

PB_TGT_AVX512 std::uint64_t v5_popcount(const std::uint64_t* w,
                                        std::size_t lo, std::size_t hi) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8)
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_loadu_si512(w + i)));
  std::uint64_t total =
      static_cast<std::uint64_t>(v5_hsum_epi64(acc));
  for (; i < hi; ++i)
    total += static_cast<std::uint64_t>(std::popcount(w[i]));
  return total;
}

PB_TGT_AVX512 std::int64_t v5_signed_sum(const std::uint64_t* w,
                                         std::size_t lo, std::size_t hi,
                                         std::uint64_t keep,
                                         std::size_t skip_blk) {
  std::int64_t s = 0;
  std::size_t i = lo;
  // Scalar until 8-aligned so popcount(i + k) = popcount(i) +
  // popcount(k) holds inside every 8-word group.
  for (; i < hi && (i & 7u) != 0; ++i)
    s += p_signed_sum(w, i, i + 1, keep, skip_blk);
  // Lane liveness for sub-group skip strides (skip_blk in {1,2,4}):
  // lane k is live iff (k & skip_blk) == 0. For skip_blk >= 8 whole
  // groups are in or out together (i is 8-aligned).
  __mmask8 live_small = 0xff;
  if (skip_blk != 0 && skip_blk < 8) {
    live_small = 0;
    for (unsigned k = 0; k < 8; ++k)
      if ((k & skip_blk) == 0) live_small |= static_cast<__mmask8>(1u << k);
  }
  // Parity of k for k = 0..7: lanes {1, 2, 4, 7} are odd.
  constexpr unsigned kOddLanes = 0x96;
  const __m512i vkeep = _mm512_set1_epi64(static_cast<long long>(keep));
  const __m512i vodd =
      _mm512_set1_epi64(static_cast<long long>(kOddParity));
  __m512i acc_pos = _mm512_setzero_si512();
  __m512i acc_neg = _mm512_setzero_si512();
  for (; i + 8 <= hi; i += 8) {
    if (skip_blk >= 8 && (i & skip_blk) != 0) continue;
    const unsigned base_odd = static_cast<unsigned>(std::popcount(i)) & 1u;
    const __mmask8 mneg = static_cast<__mmask8>(
        (base_odd ? ~kOddLanes : kOddLanes) & live_small);
    const __mmask8 mpos = static_cast<__mmask8>(
        (base_odd ? kOddLanes : ~kOddLanes) & live_small);
    const __m512i bits =
        _mm512_and_si512(_mm512_loadu_si512(w + i), vkeep);
    const __m512i d = _mm512_sub_epi64(
        _mm512_popcnt_epi64(_mm512_andnot_si512(vodd, bits)),
        _mm512_popcnt_epi64(_mm512_and_si512(bits, vodd)));
    acc_pos = _mm512_mask_add_epi64(acc_pos, mpos, acc_pos, d);
    acc_neg = _mm512_mask_add_epi64(acc_neg, mneg, acc_neg, d);
  }
  s += v5_hsum_epi64(acc_pos) - v5_hsum_epi64(acc_neg);
  for (; i < hi; ++i) s += p_signed_sum(w, i, i + 1, keep, skip_blk);
  return s;
}

PB_TGT_AVX512 void v5_gf2_inword(std::uint64_t* w, std::size_t lo,
                                 std::size_t hi, unsigned shift,
                                 std::uint64_t mask) {
  const __m128i cnt = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(mask));
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m512i v = _mm512_loadu_si512(w + i);
    _mm512_storeu_si512(
        w + i,
        _mm512_xor_si512(
            v, _mm512_and_si512(_mm512_sll_epi64(v, cnt), vmask)));
  }
  for (; i < hi; ++i) w[i] ^= (w[i] << shift) & mask;
}

PB_TGT_AVX512 void v5_gf2_cross(std::uint64_t* w, std::size_t lo,
                                std::size_t hi, std::size_t blk) {
  std::size_t i = lo;
  while (i < hi) {
    if ((i & blk) == 0) {
      i = (i | blk) & ~(blk - 1);
      continue;
    }
    const std::size_t run_end =
        std::min<std::size_t>(hi, (i - (i & (blk - 1))) + blk);
    std::size_t j = i;
    for (; j + 8 <= run_end; j += 8)
      _mm512_storeu_si512(
          w + j, _mm512_xor_si512(_mm512_loadu_si512(w + j),
                                  _mm512_loadu_si512(w + j - blk)));
    for (; j < run_end; ++j) w[j] ^= w[j - blk];
    i = run_end;
  }
}

PB_TGT_AVX512 void v5_moebius_level(std::int32_t* c, std::uint64_t lo,
                                    std::uint64_t hi, std::uint32_t h) {
  std::uint64_t k = lo;
  while (k < hi) {
    const std::uint64_t run =
        std::min<std::uint64_t>(hi - k, h - (k & (h - 1)));
    std::int32_t* src = c + moebius_source(k, h);
    std::int32_t* dst = src + h;
    std::size_t x = 0;
    for (; x + 16 <= run; x += 16)
      _mm512_storeu_si512(dst + x,
                          _mm512_sub_epi32(_mm512_loadu_si512(dst + x),
                                           _mm512_loadu_si512(src + x)));
    for (; x < run; ++x) dst[x] -= src[x];
    k += run;
  }
}

// One 16-coefficient group is one vector. Level h brings lane i - h
// into lane i (in-lane shuffle for h = 1, 2; 128-bit block shuffle for
// h = 4, 8) and subtracts it under the mask of lanes whose h bit is set.
PB_TGT_AVX512 void v5_moebius_low(std::int32_t* c, std::uint64_t lo,
                                  std::uint64_t hi) {
  const auto swap1 = static_cast<_MM_PERM_ENUM>(0xB1);
  const auto swap2 = static_cast<_MM_PERM_ENUM>(0x4E);
  for (std::uint64_t g = lo; g < hi; g += 16) {
    __m512i v = _mm512_loadu_si512(c + g);
    v = _mm512_mask_sub_epi32(v, 0xAAAA, v, _mm512_shuffle_epi32(v, swap1));
    v = _mm512_mask_sub_epi32(v, 0xCCCC, v, _mm512_shuffle_epi32(v, swap2));
    v = _mm512_mask_sub_epi32(v, 0xF0F0, v, _mm512_shuffle_i32x4(v, v, 0xB1));
    v = _mm512_mask_sub_epi32(v, 0xFF00, v, _mm512_shuffle_i32x4(v, v, 0x4E));
    _mm512_storeu_si512(c + g, v);
  }
}

PB_TGT_AVX512 void v5_scatter01(std::int32_t* c, const std::uint64_t* w,
                                std::size_t wlo, std::size_t whi) {
  const __m512i one = _mm512_set1_epi32(1);
  for (std::size_t wi = wlo; wi < whi; ++wi) {
    const std::uint64_t bits = w[wi];
    std::int32_t* out = c + (wi << 6);
    for (unsigned b = 0; b < 64; b += 16)
      _mm512_storeu_si512(
          out + b,
          _mm512_maskz_mov_epi32(static_cast<__mmask16>(bits >> b), one));
  }
}

PB_TGT_AVX512 void v5_slice_accum(std::int32_t* g,
                                  const std::uint64_t* slice,
                                  std::size_t words, std::int32_t sgn) {
  const __m512i one = _mm512_set1_epi32(1);
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::uint64_t bits = slice[wi];
    if (bits == 0) continue;
    std::int32_t* out = g + (wi << 6);
    for (unsigned b = 0; b < 64; b += 16) {
      const auto m = static_cast<__mmask16>(bits >> b);
      if (m == 0) continue;
      const __m512i v = _mm512_loadu_si512(out + b);
      _mm512_storeu_si512(out + b,
                          sgn > 0
                              ? _mm512_mask_add_epi32(v, m, v, one)
                              : _mm512_mask_sub_epi32(v, m, v, one));
    }
  }
}

PB_TGT_AVX512 unsigned v5_max_deg_scan(const std::int32_t* c,
                                       std::uint32_t lo, std::uint32_t hi) {
  unsigned best = 0;
  std::uint32_t m = lo;
  for (; m < hi && (m & 15u) != 0; ++m)
    if (c[m] != 0)
      best = std::max(best, static_cast<unsigned>(std::popcount(m)));
  const __m512i lanes = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7,
                                         6, 5, 4, 3, 2, 1, 0);
  __m512i vbest = _mm512_setzero_si512();
  for (; m + 16 <= hi; m += 16) {
    const __m512i vc = _mm512_loadu_si512(c + m);
    const __mmask16 nz = _mm512_test_epi32_mask(vc, vc);
    if (nz == 0) continue;
    const __m512i idx =
        _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(m)), lanes);
    vbest = _mm512_mask_max_epu32(vbest, nz, vbest,
                                  _mm512_popcnt_epi32(idx));
  }
  best = std::max(best, static_cast<unsigned>(v5_hmax_epu32(vbest)));
  for (; m < hi; ++m)
    if (c[m] != 0)
      best = std::max(best, static_cast<unsigned>(std::popcount(m)));
  return best;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // PARBOUNDS_SIMD_X86

constexpr KernelDispatch kPortableTable = {
    "portable",       p_not,         p_and,         p_or,
    p_xor,            p_fix_low,     p_popcount,    p_signed_sum,
    p_gf2_inword,     p_gf2_cross,   p_moebius_level, p_moebius_low,
    p_scatter01,      p_slice_accum,  p_max_deg_scan,
};

#if PARBOUNDS_SIMD_X86
// The AVX2 ISA has no mask registers or per-lane popcount, so the
// signed-sum and degree-scan entries fall back to the scalar reference;
// every bulk word loop is 256-bit.
constexpr KernelDispatch kAvx2Table = {
    "avx2",           v2_not,        v2_and,        v2_or,
    v2_xor,           v2_fix_low,    v2_popcount,   p_signed_sum,
    v2_gf2_inword,    v2_gf2_cross,  v2_moebius_level, v2_moebius_low,
    v2_scatter01,     v2_slice_accum, p_max_deg_scan,
};

constexpr KernelDispatch kAvx512Table = {
    "avx512",         v5_not,        v5_and,        v5_or,
    v5_xor,           v5_fix_low,    v5_popcount,   v5_signed_sum,
    v5_gf2_inword,    v5_gf2_cross,  v5_moebius_level, v5_moebius_low,
    v5_scatter01,     v5_slice_accum, v5_max_deg_scan,
};
#endif

}  // namespace

const KernelDispatch& kernels_for(runtime::SimdLevel level) {
#if PARBOUNDS_SIMD_X86
  switch (level) {
    case runtime::SimdLevel::kAvx512:
      return kAvx512Table;
    case runtime::SimdLevel::kAvx2:
      return kAvx2Table;
    case runtime::SimdLevel::kPortable:
      break;
  }
#else
  (void)level;
#endif
  return kPortableTable;
}

}  // namespace parbounds::simd
