#include "boolfn/boolfn.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

#include "boolfn/simd_kernels.hpp"
#include "runtime/parallel_for.hpp"

namespace parbounds {

namespace {

using simd::kOddParity;
using simd::kVarMask;

// Table size (in words or coefficients) below which a transform stays
// serial: 2^14 words = n >= 20. Small tables are not worth a pool trip.
constexpr std::size_t kParWords = std::size_t{1} << 14;
constexpr unsigned kParShards = 8;

// Fan a word/coefficient-range loop out over the process pool when the
// table is large. Every call site either writes disjoint ranges or
// combines per-shard results with exact commutative operations (integer
// sums, maxima), so results are bit-identical at any thread count; the
// partition itself is the pool's static one (pure function of n).
template <class F>
void for_ranges(std::size_t n, F&& body) {
  auto& pool = runtime::ParallelFor::pool();
  const unsigned shards =
      runtime::ParallelFor::shard_count(n, kParWords, kParShards);
  if (shards <= 1 || !pool.fans_out()) {
    body(0u, std::size_t{0}, n);
    return;
  }
  pool.for_shards(n, shards,
                  [&](unsigned s, std::uint64_t lo, std::uint64_t hi) {
                    body(s, static_cast<std::size_t>(lo),
                         static_cast<std::size_t>(hi));
                  });
}

std::size_t word_count(unsigned n) {
  return n >= 6 ? std::size_t{1} << (n - 6) : 1;
}

// Valid-bit mask of the last (only) word when the table is shorter than
// one word; all-ones otherwise.
std::uint64_t tail_mask(unsigned n) {
  return n >= 6 ? ~std::uint64_t{0}
                : (std::uint64_t{1} << (std::uint32_t{1} << n)) - 1;
}

// Largest arity for which degree() materialises the full 2^n int32
// coefficient array (16 MiB at 22). Above it, the transform is chunked
// over the high variables so memory stays at one 2^22 slice.
constexpr unsigned kDenseDegreeArity = 22;

// sum over x of (-1)^popcount(x) * f(x), the (sign-normalised) top
// multilinear coefficient. Word-parallel: within a word the sign is the
// parity of the low six bits (kOddParity), across words the parity of
// the word index. The kernel folds both parities in one pass.
std::int64_t signed_sum(std::span<const std::uint64_t> w) {
  const auto& k = simd::kernels();
  std::array<std::int64_t, kParShards> part{};
  for_ranges(w.size(), [&](unsigned sh, std::size_t lo, std::size_t hi) {
    part[sh] = k.signed_sum_words(w.data(), lo, hi, ~std::uint64_t{0}, 0);
  });
  std::int64_t s = 0;
  for (const std::int64_t p : part) s += p;
  return s;
}

// sum over x with x_i == 0 of (-1)^popcount(x) * f(x): the level-(n-1)
// coefficient for S = {0..n-1} \ {i}, up to sign. Low variables mask
// bits inside each word, high variables skip whole word blocks.
std::int64_t signed_sum_without(std::span<const std::uint64_t> w, unsigned i) {
  const auto& k = simd::kernels();
  const std::uint64_t keep = i < 6 ? ~kVarMask[i] : ~std::uint64_t{0};
  const std::size_t skip_blk = i < 6 ? 0 : std::size_t{1} << (i - 6);
  std::array<std::int64_t, kParShards> part{};
  for_ranges(w.size(), [&](unsigned sh, std::size_t lo, std::size_t hi) {
    part[sh] = k.signed_sum_words(w.data(), lo, hi, keep, skip_blk);
  });
  std::int64_t s = 0;
  for (const std::int64_t p : part) s += p;
  return s;
}

// Leaf of the depth-first Moebius transform: 2^16 coefficients
// (256 KiB) stay in cache while every level inside them runs.
constexpr std::uint32_t kMoebiusLeaf = std::uint32_t{1} << 16;

// Transform the size-coefficient block at c (size a power of two, >= 16)
// depth-first: a leaf runs moebius_low (levels 1..8 in registers) and
// then its levels 16 .. size/2 while it is in cache; a larger block
// transforms its two halves, then joins them with its one top level.
void moebius_block(std::int32_t* c, std::uint32_t size,
                   const simd::KernelDispatch& k) {
  const std::uint32_t half = size / 2;
  if (size <= kMoebiusLeaf) {
    k.moebius_low(c, 0, size);
    for (std::uint32_t h = 16; h < size; h <<= 1)
      k.moebius_level(c, 0, half, h);
    return;
  }
  moebius_block(c, half, k);
  moebius_block(c + half, half, k);
  k.moebius_level(c, 0, half, half);
}

// In-place integer Moebius transform over t variables: after the pass,
// c[S] = alpha_S. Level h performs size/2 independent updates (the
// written index has the h bit set, the read index has it clear and is
// never written that level), and the levels commute, so any order of
// levels and blocks applies every update exactly once in exact int32
// arithmetic: the result is bit-identical at every dispatch level and
// pool size. Tables under 16 entries run level by level. Above one leaf,
// when the pool fans out, aligned subtrees of size/shards coefficients
// are transformed depth-first on the pool, then each remaining top
// level shards its flattened updates.
void moebius_i32(std::vector<std::int32_t>& c, unsigned t) {
  const std::uint32_t size = std::uint32_t{1} << t;
  const auto& k = simd::kernels();
  if (size < 16) {
    for (std::uint32_t h = 1; h < size; h <<= 1)
      k.moebius_level(c.data(), 0, size / 2, h);
    return;
  }
  auto& pool = runtime::ParallelFor::pool();
  if (size <= kMoebiusLeaf || !pool.fans_out()) {
    moebius_block(c.data(), size, k);
    return;
  }
  // Both powers of two, so every shard's range is one aligned subtree.
  const unsigned shards = std::min(size / kMoebiusLeaf, kParShards);
  const std::uint32_t sub = size / shards;
  pool.for_shards(shards, shards,
                  [&](unsigned s, std::uint64_t, std::uint64_t) {
                    moebius_block(c.data() + std::size_t{s} * sub, sub, k);
                  });
  for (std::uint32_t h = sub; h < size; h <<= 1) {
    pool.for_shards(size / 2, kParShards,
                    [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                      k.moebius_level(c.data(), lo, hi, h);
                    });
  }
}

// The 2^n int32 table of f's 0/1 values, Moebius-transformed in place:
// c[S] = alpha_S. |alpha_S| <= 2^n, so int32 is exact up to n = 30.
std::vector<std::int32_t> moebius_coeffs(const BoolFn& f) {
  std::vector<std::int32_t> c(f.table_size(), 0);
  const auto w = f.words();
  if (c.size() < 64) {
    // Sub-word table (n < 6): scatter the set bits directly; bits at
    // positions >= 2^n are zero by the class invariant.
    std::uint64_t bits = w[0];
    while (bits != 0) {
      const unsigned j = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      c[j] = 1;
    }
  } else {
    const auto& k = simd::kernels();
    for_ranges(w.size(), [&](unsigned, std::size_t lo, std::size_t hi) {
      k.scatter01(c.data(), w.data(), lo, hi);
    });
  }
  moebius_i32(c, f.arity());
  return c;
}

// Exact degree via the full dense transform (arity <= the seam's cap).
// Scatter (one word fills its own 64 coefficients), transform, and the
// max-scan all shard over disjoint / commutatively-combined ranges.
unsigned dense_degree_impl(const BoolFn& f) {
  const std::vector<std::int32_t> c = moebius_coeffs(f);
  const auto& k = simd::kernels();
  std::array<unsigned, kParShards> part{};
  for_ranges(c.size(), [&](unsigned sh, std::size_t lo, std::size_t hi) {
    part[sh] = k.max_degree_scan(c.data(), static_cast<std::uint32_t>(lo),
                                 static_cast<std::uint32_t>(hi));
  });
  unsigned best = 0;
  for (const unsigned b : part) best = std::max(best, b);
  return best;
}

// Exact degree for n > t: split the inputs into t low and n-t high
// variables. The Moebius transform separates, so for each high subset
// Sh the slice combination
//   g_Sh(xl) = sum_{Th subseteq Sh} (-1)^{|Sh \ Th|} f(xl, Th)
// followed by a t-variable transform of g_Sh yields exactly the
// coefficients alpha_{(Sl, Sh)}. Bounds: |g_Sh| <= 2^(n-t) and
// |alpha| <= 2^n <= 2^30, so int32 never overflows.
//
// When the pool fans out, the high subsets are split over up to
// kParShards shards, each with its own slice buffer and its own prune
// bound: `part[shard]` is a shard-local maximum, merged serially after
// the join. Otherwise one shard walks every subset with one buffer and
// one bound. Pruning a subset against a shard-local bound is sound (a
// skipped Sh could contribute at most hi_pc + t <= the shard's own
// maximum <= the final answer), so the degree is the same in either
// layout; and the set of subsets a shard expands is a pure function of
// its range, so each layout does the same work at any thread count.
//
// Slices that are identically zero are detected once up front and
// skipped in every subset expansion; a subset whose contributing slices
// are all zero has g_Sh == 0 before the (linear) transform and is
// skipped entirely — the streaming pass never touches those words
// again. This is what keeps the out-of-core arities (n up to
// kMaxArity = 30, 2^8 slices) affordable for structured functions.
unsigned chunked_degree_impl(const BoolFn& f, unsigned t) {
  const unsigned n = f.arity();
  const std::uint32_t hi_count = std::uint32_t{1} << (n - t);
  const std::size_t slice_words = std::size_t{1} << (t - 6);
  const auto w = f.words();
  const auto& k = simd::kernels();
  std::vector<std::uint8_t> slice_nonzero(hi_count, 0);
  for (std::uint32_t th = 0; th < hi_count; ++th) {
    const std::uint64_t* slice = w.data() + std::size_t{th} * slice_words;
    for (std::size_t wi = 0; wi < slice_words; ++wi) {
      if (slice[wi] != 0) {
        slice_nonzero[th] = 1;
        break;
      }
    }
  }
  std::array<unsigned, kParShards> part{};
  const auto run = [&](unsigned shard, std::uint32_t sh_lo,
                       std::uint32_t sh_hi) {
    // Zeroed on a subset's first nonzero slice only: a shard whose
    // subsets are all pruned or all zero never touches the 2^t buffer.
    std::vector<std::int32_t> g;
    unsigned best = 0;  // shard-local prune bound
    for (std::uint32_t sh = sh_lo; sh < sh_hi; ++sh) {
      const unsigned hi_pc = static_cast<unsigned>(std::popcount(sh));
      if (hi_pc + t <= best) continue;  // cannot beat the shard maximum
      bool any = false;
      std::uint32_t th = sh;
      while (true) {
        if (slice_nonzero[th] != 0) {
          if (!any) g.assign(std::size_t{1} << t, 0);
          const std::int32_t sgn = (std::popcount(sh ^ th) & 1u) ? -1 : 1;
          k.slice_accum(g.data(),
                        w.data() + std::size_t{th} * slice_words,
                        slice_words, sgn);
          any = true;
        }
        if (th == 0) break;
        th = (th - 1) & sh;
      }
      if (!any) continue;  // g_Sh == 0: no coefficient with this high part
      moebius_i32(g, t);  // serial: fans_out() is false in here
      const unsigned d = k.max_degree_scan(
          g.data(), 0, static_cast<std::uint32_t>(g.size()));
      // d == 0 means either all-zero or only the empty low set survives;
      // g[0] distinguishes the two (any other nonzero entry forces d > 0).
      if (d > 0)
        best = std::max(best, hi_pc + d);
      else if (g[0] != 0)
        best = std::max(best, hi_pc);
    }
    part[shard] = best;
  };
  auto& pool = runtime::ParallelFor::pool();
  const unsigned shards = std::min<std::uint32_t>(hi_count, kParShards);
  if (pool.fans_out() && shards > 1) {
    pool.for_shards(hi_count, shards,
                    [&](unsigned s, std::uint64_t lo, std::uint64_t hi) {
                      run(s, static_cast<std::uint32_t>(lo),
                          static_cast<std::uint32_t>(hi));
                    });
  } else {
    run(0, 0, hi_count);
  }
  unsigned best = 0;
  for (const unsigned b : part) best = std::max(best, b);
  return best;
}

}  // namespace

namespace detail {

unsigned degree_via_dense(const BoolFn& f) {
  if (f.arity() > 24)
    throw std::invalid_argument(
        "degree_via_dense materialises 2^n int32 coefficients; capped at "
        "n = 24");
  return dense_degree_impl(f);
}

unsigned degree_via_chunked(const BoolFn& f) {
  const unsigned n = f.arity();
  if (n < 7)
    throw std::invalid_argument(
        "degree_via_chunked needs at least one high variable over a "
        ">= 6-variable low block (n >= 7)");
  const unsigned t = std::min(kDenseDegreeArity, n - 1);
  return chunked_degree_impl(f, t);
}

}  // namespace detail

BoolFn::BoolFn(unsigned n) : n_(n) {
  if (n > kMaxArity)
    throw std::invalid_argument("BoolFn arity limited to " +
                                std::to_string(kMaxArity));
  words_.assign(word_count(n), 0);
}

std::uint64_t BoolFn::count_ones() const {
  const auto& k = simd::kernels();
  std::array<std::uint64_t, kParShards> part{};
  for_ranges(words_.size(), [&](unsigned s, std::size_t lo, std::size_t hi) {
    part[s] = k.popcount_words(words_.data(), lo, hi);
  });
  std::uint64_t c = 0;
  for (const std::uint64_t p : part) c += p;
  return c;
}

BoolFn BoolFn::constant(unsigned n, bool v) {
  BoolFn f(n);
  if (v) {
    std::fill(f.words_.begin(), f.words_.end(), ~std::uint64_t{0});
    f.words_.back() &= tail_mask(n);
  }
  return f;
}

BoolFn BoolFn::variable(unsigned n, unsigned i) {
  BoolFn f(n);
  if (i < 6) {
    std::fill(f.words_.begin(), f.words_.end(), kVarMask[i]);
    f.words_.back() &= tail_mask(n);
  } else {
    const std::size_t blk = std::size_t{1} << (i - 6);
    for (std::size_t wi = 0; wi < f.words_.size(); ++wi)
      if ((wi & blk) != 0) f.words_[wi] = ~std::uint64_t{0};
  }
  return f;
}

BoolFn BoolFn::parity(unsigned n) {
  BoolFn f(n);
  for (std::size_t wi = 0; wi < f.words_.size(); ++wi)
    f.words_[wi] =
        (std::popcount(wi) & 1u) ? ~kOddParity : kOddParity;
  f.words_.back() &= tail_mask(n);
  return f;
}

BoolFn BoolFn::or_fn(unsigned n) {
  BoolFn f = constant(n, true);
  f.words_.front() &= ~std::uint64_t{1};  // f(0...0) = 0
  return f;
}

BoolFn BoolFn::and_fn(unsigned n) {
  // Exactly one satisfying assignment: the all-ones input.
  BoolFn f(n);
  f.set((std::uint32_t{1} << n) - 1, true);
  return f;
}

BoolFn BoolFn::threshold(unsigned n, unsigned k) {
  return from(n, [k](std::uint32_t x) {
    return static_cast<unsigned>(std::popcount(x)) >= k;
  });
}

BoolFn BoolFn::address(unsigned k) {
  const unsigned n = k + (1u << k);
  const std::uint32_t sel_mask = (std::uint32_t{1} << k) - 1;
  return from(n, [k, sel_mask](std::uint32_t x) {
    const std::uint32_t sel = x & sel_mask;
    return ((x >> (k + sel)) & 1u) != 0;
  });
}

BoolFn BoolFn::from(unsigned n,
                    const std::function<bool(std::uint32_t)>& f) {
  BoolFn g(n);
  const std::uint32_t size = g.table_size();
  for (std::size_t wi = 0; wi < g.words_.size(); ++wi) {
    const std::uint32_t base = static_cast<std::uint32_t>(wi) << 6;
    const std::uint32_t lim = std::min<std::uint32_t>(size - base, 64);
    std::uint64_t acc = 0;
    for (std::uint32_t j = 0; j < lim; ++j)
      if (f(base | j)) acc |= std::uint64_t{1} << j;
    g.words_[wi] = acc;
  }
  return g;
}

BoolFn BoolFn::random(unsigned n, Rng& rng) {
  // One next_bool() per table entry in ascending order — the sampled
  // function for a given generator state is part of the observable
  // behavior (tests and benches pin it).
  BoolFn g(n);
  const std::uint32_t size = g.table_size();
  for (std::size_t wi = 0; wi < g.words_.size(); ++wi) {
    const std::uint32_t base = static_cast<std::uint32_t>(wi) << 6;
    const std::uint32_t lim = std::min<std::uint32_t>(size - base, 64);
    std::uint64_t acc = 0;
    for (std::uint32_t j = 0; j < lim; ++j)
      if (rng.next_bool()) acc |= std::uint64_t{1} << j;
    g.words_[wi] = acc;
  }
  return g;
}

BoolFn BoolFn::operator~() const {
  const auto& k = simd::kernels();
  BoolFn g(n_);
  for_ranges(words_.size(), [&](unsigned, std::size_t lo, std::size_t hi) {
    k.op_not(g.words_.data(), words_.data(), lo, hi);
  });
  g.words_.back() &= tail_mask(n_);
  return g;
}

namespace {
void check_same_arity(const BoolFn& a, const BoolFn& b) {
  if (a.arity() != b.arity())
    throw std::invalid_argument("BoolFn arity mismatch");
}
}  // namespace

BoolFn BoolFn::operator&(const BoolFn& o) const {
  check_same_arity(*this, o);
  const auto& k = simd::kernels();
  BoolFn g(n_);
  for_ranges(words_.size(), [&](unsigned, std::size_t lo, std::size_t hi) {
    k.op_and(g.words_.data(), words_.data(), o.words_.data(), lo, hi);
  });
  return g;
}

BoolFn BoolFn::operator|(const BoolFn& o) const {
  check_same_arity(*this, o);
  const auto& k = simd::kernels();
  BoolFn g(n_);
  for_ranges(words_.size(), [&](unsigned, std::size_t lo, std::size_t hi) {
    k.op_or(g.words_.data(), words_.data(), o.words_.data(), lo, hi);
  });
  return g;
}

BoolFn BoolFn::operator^(const BoolFn& o) const {
  check_same_arity(*this, o);
  const auto& k = simd::kernels();
  BoolFn g(n_);
  for_ranges(words_.size(), [&](unsigned, std::size_t lo, std::size_t hi) {
    k.op_xor(g.words_.data(), words_.data(), o.words_.data(), lo, hi);
  });
  return g;
}

BoolFn BoolFn::fix(unsigned i, bool v) const {
  const auto& k = simd::kernels();
  BoolFn g(n_);
  if (i < 6) {
    // Gather the kept half of each word and mirror it into both halves
    // of the i-th bit so the variable becomes irrelevant.
    const unsigned s = 1u << i;
    const std::uint64_t hi = kVarMask[i];
    for_ranges(words_.size(), [&](unsigned, std::size_t lo, std::size_t hi2) {
      k.fix_low(g.words_.data(), words_.data(), lo, hi2, s, hi, v);
    });
    g.words_.back() &= tail_mask(n_);
  } else {
    const std::size_t blk = std::size_t{1} << (i - 6);
    for_ranges(words_.size(), [&](unsigned, std::size_t lo, std::size_t hi2) {
      for (std::size_t wi = lo; wi < hi2; ++wi)
        g.words_[wi] = words_[v ? (wi | blk) : (wi & ~blk)];
    });
  }
  return g;
}

bool BoolFn::depends_on(unsigned i) const {
  if (i >= n_) return false;
  if (i < 6) {
    const unsigned s = 1u << i;
    for (const std::uint64_t w : words_)
      if ((((w >> s) ^ w) & ~kVarMask[i]) != 0) return true;
    return false;
  }
  const std::size_t blk = std::size_t{1} << (i - 6);
  for (std::size_t wi = 0; wi < words_.size(); ++wi)
    if ((wi & blk) == 0 && words_[wi] != words_[wi | blk]) return true;
  return false;
}

std::vector<std::int64_t> multilinear_coeffs(const BoolFn& f) {
  if (f.arity() > 24)
    throw std::invalid_argument(
        "multilinear_coeffs materialises 2^n int64 values; use degree() "
        "beyond n = 24");
  // alpha_S = sum_{T subseteq S} (-1)^{|S\T|} f(1_T), the transform
  // degree() runs; uniqueness of the representation is Fact 2.1.
  const std::vector<std::int32_t> c = moebius_coeffs(f);
  return std::vector<std::int64_t>(c.begin(), c.end());
}

unsigned gf2_degree(const BoolFn& f) {
  const unsigned n = f.arity();
  const auto& k = simd::kernels();
  std::vector<std::uint64_t> w(f.words().begin(), f.words().end());
  // XOR zeta transform: the GF(2) Moebius transform is its own inverse
  // and needs no subtraction, so it runs fully word-parallel. The
  // in-word levels are independent per word; a cross-word level writes
  // only words with the blk bit set and reads only words with it clear,
  // so word-range shards never race and every level is exact.
  for (unsigned i = 0; i < n && i < 6; ++i) {
    const unsigned s = 1u << i;
    for_ranges(w.size(), [&](unsigned, std::size_t lo, std::size_t hi) {
      k.gf2_inword(w.data(), lo, hi, s, kVarMask[i]);
    });
  }
  for (unsigned i = 6; i < n; ++i) {
    const std::size_t blk = std::size_t{1} << (i - 6);
    for_ranges(w.size(), [&](unsigned, std::size_t lo, std::size_t hi) {
      k.gf2_cross(w.data(), lo, hi, blk);
    });
  }
  std::array<unsigned, kParShards> part{};
  for_ranges(w.size(), [&](unsigned sh, std::size_t lo, std::size_t hi2) {
    unsigned b = 0;
    for (std::size_t wi = lo; wi < hi2; ++wi) {
      std::uint64_t bits = w[wi];
      if (bits == 0) continue;
      const unsigned hi = static_cast<unsigned>(std::popcount(wi));
      if (hi + 6 <= b) continue;  // even six low bits cannot improve
      while (bits != 0) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        b = std::max(b, hi + static_cast<unsigned>(std::popcount(j)));
      }
    }
    part[sh] = b;
  });
  unsigned best = 0;
  for (const unsigned b : part) best = std::max(best, b);
  return best;
}

unsigned degree(const BoolFn& f) {
  const unsigned n = f.arity();
  const std::uint64_t ones = f.count_ones();
  if (ones == 0 || ones == f.table_size()) return 0;  // constants
  // Level n: alpha_{full} != 0 iff the signed truth-table sum is nonzero.
  if (signed_sum(f.words()) != 0) return n;
  // GF(2) lower bound: an odd integer coefficient is nonzero, so
  // deg(f) >= gf2_degree(f); and alpha_full = 0 caps deg(f) at n-1.
  if (gf2_degree(f) == n - 1) return n - 1;
  // Exact level n-1: one masked signed sum per dropped variable.
  for (unsigned i = 0; i < n; ++i)
    if (signed_sum_without(f.words(), i) != 0) return n - 1;
  // Degree is now <= n-2: take the dense transform when the coefficient
  // array fits comfortably, else chunk over the high variables.
  if (n <= kDenseDegreeArity) return dense_degree_impl(f);
  return chunked_degree_impl(f, kDenseDegreeArity);
}

std::int64_t eval_multilinear(const std::vector<std::int64_t>& coeffs,
                              std::uint32_t x) {
  std::int64_t v = 0;
  for (std::uint32_t mask = 0; mask < coeffs.size(); ++mask)
    if (coeffs[mask] != 0 && (mask & x) == mask) v += coeffs[mask];
  return v;
}

}  // namespace parbounds
