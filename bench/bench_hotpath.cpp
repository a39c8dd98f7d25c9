// Hot-path microbench: sort-based phase commit vs the hash-map pipeline
// it replaced, and the bit-packed BoolFn vs the byte-table layout.
//
// Every cost number in this repository flows through commit_phase, and
// every degree argument through BoolFn::degree — this bench pins both
// hot paths against a wall-clock baseline so perf regressions fail
// loudly instead of silently stretching every other bench.
//
// Measurement design: the pre-overhaul implementations live on inside
// this binary as faithful replicas (`legacy::Qsm` is the unordered_map
// commit pipeline with map-backed memory and per-phase inbox clears;
// `legacy::ByteFn` the one-byte-per-entry truth table with the branchy
// int64 Moebius transform). Paired sweeps run the SAME deterministic
// workload through the engine and through the replica — same base seed,
// same cell grid, hence identical per-trial seeds — and the model
// costs / degree values are asserted equal, so the replicas double as
// behavioral oracles. The recorded speedup is the wall-clock ratio
// between the paired sweeps. Cells return model costs/degrees, never
// wall time, so the report bytes are the same at any --jobs value; the
// ratios go to the ops file (BENCH_hotpath.ops.json) only.
//
// Since the intra-trial parallelism PR the binary also carries the
// shard-equivalence oracle: a phase-commit instance large enough to
// cross commit_shard_min_requests() runs once with sharding forced off
// and once per pool size in {1, 2, 8}, and every model cost, Random-
// write winner (via a memory checksum) and delivered read must match
// bit for bit. The same sweep times the sharded path at each pool size
// and records the single-instance speedups (the "shard_speedup/..."
// ratios), as does a degree(n=26) instance that lands in the chunked
// Moebius tier.
//
// Since the SIMD dispatch PR the oracle generalizes to the full kernel
// matrix: kernel_digest folds every dispatch-kernel-touched quantity
// (connective words, popcounts, integer/GF(2) degrees, both sides of
// the dense/chunked tier boundary, multilinear coefficients, a commit
// model cost) into one checksum, and that digest must be identical at
// EVERY supported dispatch level x pool size in {1, 2, 8}. A paired
// timing pass then pins the word loops at portable and at the highest
// supported tier and records the ratios ("simd_speedup/..." ratios).
//
// Extra flags (stripped before the harness parses argv):
//   --min-phase-speedup=X   fail (exit 1) if the commit speedup < X
//   --min-degree-speedup=X  fail (exit 1) if the degree speedup < X
//   --min-shard-speedup=X   fail (exit 1) if the 8-thread sharded
//                           commit or degree(26) speedup over the same
//                           instance at 1 thread < X
//   --min-simd-speedup=X    fail (exit 1) if the best-tier word-loop
//                           speedup over pinned-portable < X for the
//                           connectives or the chunked-degree workload
//                           (skipped when the host has no SIMD tier)
// tools/run_checks.sh passes conservative floors; BENCH_hotpath.ops.json
// records the actually measured "speedup/...", "shard_speedup/..." and
// "simd_speedup/..." ratios.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "boolfn/boolfn.hpp"
#include "core/bsp.hpp"
#include "core/crcw.hpp"
#include "core/gsm.hpp"
#include "harness.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/simd_level.hpp"

namespace pb = parbounds;
using namespace parbounds::bench;

namespace {

// ----- deterministic phase-commit workload ----------------------------------

constexpr std::uint64_t kProcs = 1024;
constexpr unsigned kPhases = 64;
constexpr std::uint64_t kCells = 4096;  // reads in [0, 2048), writes above

struct Op {
  bool is_write;
  pb::ProcId proc;
  pb::Addr addr;
  pb::Word value;
};

// One phase's request stream: every processor issues 2 reads and 2
// writes at random addresses. Read and write halves are disjoint, so the
// stream is legal on every engine. Generated ONCE per trial and replayed
// for all kPhases phases, so generation cost stays negligible next to
// the commit work being measured.
std::vector<Op> make_ops(pb::Rng& rng) {
  std::vector<Op> ops;
  ops.reserve(kProcs * 4);
  const std::uint64_t half = kCells / 2;
  for (pb::ProcId p = 0; p < kProcs; ++p) {
    for (int r = 0; r < 2; ++r)
      ops.push_back({false, p, rng.next_below(half), 0});
    for (int w = 0; w < 2; ++w)
      ops.push_back({true, p, half + rng.next_below(half),
                     static_cast<pb::Word>(1 + rng.next_below(1000))});
  }
  return ops;
}

// ----- legacy replica: the pre-overhaul QSM commit pipeline ------------------

namespace legacy {

// Behavior-for-behavior replica of the old QsmMachine commit path
// (LastQueued): four unordered_maps per phase, map-backed shared memory,
// inboxes cleared — and therefore rehashed and re-grown — every phase.
class Qsm {
 public:
  explicit Qsm(std::uint64_t g) : g_(g) {}

  void begin_phase() {
    reads_.clear();
    writes_.clear();
  }
  void read(pb::ProcId p, pb::Addr a) { reads_.push_back({p, a}); }
  void write(pb::ProcId p, pb::Addr a, pb::Word v) {
    writes_.push_back({p, a, v});
  }

  void commit_phase() {
    pb::PhaseStats st;
    st.reads = reads_.size();
    st.writes = writes_.size();

    std::unordered_map<pb::ProcId, std::uint64_t> r_count, w_count;
    r_count.reserve(reads_.size());
    w_count.reserve(writes_.size());
    for (const auto& r : reads_) ++r_count[r.proc];
    for (const auto& w : writes_) ++w_count[w.proc];
    // DETLINT(det.unordered-iter): legacy replica; commutative max-reduction
    for (const auto& kv : r_count) st.m_rw = std::max(st.m_rw, kv.second);
    // DETLINT(det.unordered-iter): legacy replica; commutative max-reduction
    for (const auto& kv : w_count) st.m_rw = std::max(st.m_rw, kv.second);

    std::unordered_map<pb::Addr, std::uint64_t> cell_r, cell_w;
    cell_r.reserve(reads_.size());
    cell_w.reserve(writes_.size());
    for (const auto& r : reads_) ++cell_r[r.addr];
    for (const auto& w : writes_) ++cell_w[w.addr];
    // DETLINT(det.unordered-iter): legacy replica; commutative max-reduction
    for (const auto& kv : cell_r) {
      if (cell_w.count(kv.first) != 0) std::abort();  // streams are legal
      st.kappa_r = std::max(st.kappa_r, kv.second);
    }
    // DETLINT(det.unordered-iter): legacy replica; commutative max-reduction
    for (const auto& kv : cell_w) st.kappa_w = std::max(st.kappa_w, kv.second);

    time_ += pb::phase_cost(pb::CostModel::Qsm, g_, st);

    inboxes_.clear();
    for (const auto& r : reads_) {
      auto it = mem_.find(r.addr);
      inboxes_[r.proc].push_back(it == mem_.end() ? 0 : it->second);
    }
    for (const auto& w : writes_) mem_[w.addr] = w.value;
  }

  std::uint64_t time() const { return time_; }

 private:
  struct ReadReq {
    pb::ProcId proc;
    pb::Addr addr;
  };
  struct WriteReq {
    pb::ProcId proc;
    pb::Addr addr;
    pb::Word value;
  };

  std::uint64_t g_;
  std::uint64_t time_ = 0;
  std::unordered_map<pb::Addr, pb::Word> mem_;
  std::vector<ReadReq> reads_;
  std::vector<WriteReq> writes_;
  std::unordered_map<pb::ProcId, std::vector<pb::Word>> inboxes_;
};

// The old BoolFn layout: one byte per truth-table entry, degree via the
// full int64 Moebius transform with the branchy per-bit update.
struct ByteFn {
  unsigned n;
  std::vector<std::uint8_t> tt;

  explicit ByteFn(unsigned arity) : n(arity), tt(std::size_t{1} << arity, 0) {}

  static ByteFn parity(unsigned arity) {
    ByteFn f(arity);
    for (std::uint32_t x = 0; x < f.tt.size(); ++x)
      f.tt[x] = (std::popcount(x) & 1u) ? 1 : 0;
    return f;
  }
  // AND of the first k of `arity` inputs.
  static ByteFn and_prefix(unsigned arity, unsigned k) {
    ByteFn f(arity);
    const std::uint32_t mask = (std::uint32_t{1} << k) - 1;
    for (std::uint32_t x = 0; x < f.tt.size(); ++x)
      f.tt[x] = ((x & mask) == mask) ? 1 : 0;
    return f;
  }
  static ByteFn ith_var(unsigned arity, unsigned i) {
    ByteFn f(arity);
    for (std::uint32_t x = 0; x < f.tt.size(); ++x)
      f.tt[x] = (x >> i) & 1u;
    return f;
  }
  // Same next_bool() draw order as BoolFn::random, so the sampled
  // function is identical for equal generator state.
  static ByteFn random(unsigned arity, pb::Rng& rng) {
    ByteFn f(arity);
    for (auto& b : f.tt) b = rng.next_bool() ? 1 : 0;
    return f;
  }

  ByteFn operator&(const ByteFn& o) const {
    ByteFn g(n);
    for (std::size_t x = 0; x < tt.size(); ++x) g.tt[x] = tt[x] & o.tt[x];
    return g;
  }
  ByteFn operator|(const ByteFn& o) const {
    ByteFn g(n);
    for (std::size_t x = 0; x < tt.size(); ++x) g.tt[x] = tt[x] | o.tt[x];
    return g;
  }
  ByteFn operator^(const ByteFn& o) const {
    ByteFn g(n);
    for (std::size_t x = 0; x < tt.size(); ++x) g.tt[x] = tt[x] ^ o.tt[x];
    return g;
  }
  ByteFn operator~() const {
    ByteFn g(n);
    for (std::size_t x = 0; x < tt.size(); ++x) g.tt[x] = tt[x] ^ 1u;
    return g;
  }

  std::uint64_t count_ones() const {
    std::uint64_t c = 0;
    for (const auto b : tt) c += b;
    return c;
  }
};

unsigned degree(const ByteFn& f) {
  const auto size = static_cast<std::uint32_t>(f.tt.size());
  std::vector<std::int64_t> c(size);
  for (std::uint32_t x = 0; x < size; ++x) c[x] = f.tt[x];
  for (unsigned i = 0; i < f.n; ++i) {
    const std::uint32_t bit = std::uint32_t{1} << i;
    for (std::uint32_t mask = 0; mask < size; ++mask)
      if (mask & bit) c[mask] -= c[mask ^ bit];
  }
  unsigned deg = 0;
  for (std::uint32_t mask = 0; mask < size; ++mask)
    if (c[mask] != 0)
      deg = std::max(deg, static_cast<unsigned>(std::popcount(mask)));
  return deg;
}

}  // namespace legacy

// ----- phase-commit cells ----------------------------------------------------
// The model kernels stay in exact integers end to end (detlint's
// det.float-accum gate covers every commit-named function); the
// double-valued SweepCell wrappers live in main, where the cast is one
// conversion of a final integer, not an accumulation.

std::uint64_t qsm_commit_model(std::uint64_t seed) {
  pb::Rng rng(seed);
  const auto ops = make_ops(rng);
  pb::QsmMachine m({.g = 2});
  (void)m.alloc(kCells);
  for (unsigned ph = 0; ph < kPhases; ++ph) {
    m.begin_phase();
    for (const auto& op : ops) {
      if (op.is_write)
        m.write(op.proc, op.addr, op.value);
      else
        m.read(op.proc, op.addr);
    }
    m.commit_phase();
  }
  return m.time();
}

std::uint64_t qsm_legacy_commit_model(std::uint64_t seed) {
  pb::Rng rng(seed);
  const auto ops = make_ops(rng);
  legacy::Qsm m(2);
  for (unsigned ph = 0; ph < kPhases; ++ph) {
    m.begin_phase();
    for (const auto& op : ops) {
      if (op.is_write)
        m.write(op.proc, op.addr, op.value);
      else
        m.read(op.proc, op.addr);
    }
    m.commit_phase();
  }
  return m.time();
}

std::uint64_t gsm_commit_model(std::uint64_t seed) {
  pb::Rng rng(seed);
  const auto ops = make_ops(rng);
  pb::GsmMachine m({.alpha = 2, .beta = 2});
  (void)m.alloc(kCells);
  for (unsigned ph = 0; ph < kPhases; ++ph) {
    m.begin_phase();
    for (const auto& op : ops) {
      if (op.is_write)
        m.write(op.proc, op.addr, op.value);
      else
        m.read(op.proc, op.addr);
    }
    m.commit_phase();
  }
  return m.time();
}

std::uint64_t bsp_commit_model(std::uint64_t seed) {
  pb::Rng rng(seed);
  pb::BspMachine m({.p = kProcs, .g = 2, .L = 8});
  for (unsigned ph = 0; ph < kPhases; ++ph) {
    m.begin_superstep();
    for (pb::ProcId p = 0; p < kProcs; ++p)
      for (int s = 0; s < 4; ++s)
        m.send(p, rng.next_below(kProcs),
               static_cast<pb::Word>(rng.next_below(1000)));
    m.commit_superstep();
  }
  return m.time();
}

std::uint64_t crcw_commit_model(std::uint64_t seed) {
  pb::Rng rng(seed);
  const auto ops = make_ops(rng);
  pb::CrcwMachine m({.rule = pb::CrcwWriteRule::Arbitrary});
  (void)m.alloc(kCells);
  std::uint64_t kappa_sum = 0;
  for (unsigned ph = 0; ph < kPhases; ++ph) {
    m.begin_step();
    for (const auto& op : ops) {
      if (op.is_write)
        m.write(op.proc, op.addr, op.value);
      else
        m.read(op.proc, op.addr);
    }
    // Contention is recorded but not charged on a CRCW; fold it into the
    // returned value so the bit-identity check covers the kappa scan too.
    kappa_sum += m.commit_step().stats.kappa();
  }
  return m.time() + kappa_sum;
}

// ----- BoolFn cells ----------------------------------------------------------

// Each degree cell constructs its function once and takes the degree
// kDegreeReps times, so the measured pair compares the degree transforms
// themselves rather than table construction (which differs only by
// layout and is comparatively cheap). The returned sum keeps the
// bit-identity and oracle checks meaningful.
constexpr int kDegreeReps = 3;

double degree_parity20(std::uint64_t) {
  const pb::BoolFn f = pb::BoolFn::parity(20);
  double s = 0;
  for (int r = 0; r < kDegreeReps; ++r) s += pb::degree(f);
  return s;
}
double degree_and18in20(std::uint64_t) {
  const pb::BoolFn f = pb::BoolFn::from(20, [](std::uint32_t x) {
    return (x & 0x3FFFFu) == 0x3FFFFu;  // AND of the first 18 inputs
  });
  double s = 0;
  for (int r = 0; r < kDegreeReps; ++r) s += pb::degree(f);
  return s;
}
double degree_random20(std::uint64_t seed) {
  pb::Rng rng(seed);
  const pb::BoolFn f = pb::BoolFn::random(20, rng);
  double s = 0;
  for (int r = 0; r < kDegreeReps; ++r) s += pb::degree(f);
  return s;
}
double connectives20(std::uint64_t seed) {
  pb::Rng rng(seed);
  const pb::BoolFn f = pb::BoolFn::random(20, rng);
  const pb::BoolFn g = pb::BoolFn::random(20, rng);
  const pb::BoolFn h = (f & g) ^ (~f | pb::BoolFn::variable(20, 3));
  return static_cast<double>(h.count_ones());
}

double legacy_degree_parity20(std::uint64_t) {
  const legacy::ByteFn f = legacy::ByteFn::parity(20);
  double s = 0;
  for (int r = 0; r < kDegreeReps; ++r) s += legacy::degree(f);
  return s;
}
double legacy_degree_and18in20(std::uint64_t) {
  const legacy::ByteFn f = legacy::ByteFn::and_prefix(20, 18);
  double s = 0;
  for (int r = 0; r < kDegreeReps; ++r) s += legacy::degree(f);
  return s;
}
double legacy_degree_random20(std::uint64_t seed) {
  pb::Rng rng(seed);
  const legacy::ByteFn f = legacy::ByteFn::random(20, rng);
  double s = 0;
  for (int r = 0; r < kDegreeReps; ++r) s += legacy::degree(f);
  return s;
}
double legacy_connectives20(std::uint64_t seed) {
  pb::Rng rng(seed);
  const legacy::ByteFn f = legacy::ByteFn::random(20, rng);
  const legacy::ByteFn g = legacy::ByteFn::random(20, rng);
  const legacy::ByteFn h = (f & g) ^ (~f | legacy::ByteFn::ith_var(20, 3));
  return static_cast<double>(h.count_ones());
}

// Packed-only headroom: arities the byte table never reached (a 2^28
// int64 scratch array would need 2 GiB).
double degree_parity28(std::uint64_t) {
  return static_cast<double>(pb::degree(pb::BoolFn::parity(28)));
}
double degree_and22in24(std::uint64_t) {
  // Forces the chunked transform: degree 22 at arity 24 defeats every
  // early exit (top coefficient zero, level n-1 zero, dense tier capped
  // at n = 22).
  const pb::BoolFn f = pb::BoolFn::from(24, [](std::uint32_t x) {
    return (x & 0x3FFFFFu) == 0x3FFFFFu;
  });
  return static_cast<double>(pb::degree(f));
}

// ----- sharded phase commit: equivalence oracle + thread sweep ---------------

// A single instance big enough to cross commit_shard_min_requests():
// every processor issues 2 reads (lower address half) and 2 writes
// (upper half) per phase, under Random write resolution so the sharded
// winner sort is on the line, not just the counters.
constexpr std::uint64_t kShardProcs = std::uint64_t{1} << 16;
constexpr std::uint64_t kShardCells = std::uint64_t{1} << 18;
constexpr unsigned kShardPhases = 4;

struct ShardRun {
  std::uint64_t cost = 0;      ///< model time after all phases
  std::uint64_t checksum = 0;  ///< folded memory + delivered reads

  bool operator==(const ShardRun& o) const = default;
};

// The op stream for the sharded instance, generated once in main and
// replayed by every timed run (generation is noise next to the commit
// work, and holding it out keeps the timing a pure pipeline measure).
std::vector<Op> make_shard_ops(std::uint64_t seed) {
  pb::Rng rng(seed);
  std::vector<Op> v;
  v.reserve(kShardProcs * 4);
  const std::uint64_t half = kShardCells / 2;
  for (pb::ProcId p = 0; p < kShardProcs; ++p) {
    for (int r = 0; r < 2; ++r)
      v.push_back({false, p, rng.next_below(half), 0});
    for (int w = 0; w < 2; ++w)
      v.push_back({true, p, half + rng.next_below(half),
                   static_cast<pb::Word>(1 + rng.next_below(1000))});
  }
  return v;
}

// Runs the instance once at the current pool size and folds everything
// a divergent shard merge could corrupt into the checksum: the final
// contents of every written cell (Random winners) and the values
// delivered to a stride of inboxes (delivery order). Pure integers;
// main wraps the call in the wall clock.
ShardRun qsm_shard_run(std::uint64_t seed, const std::vector<Op>& ops) {
  ShardRun out;
  pb::QsmMachine m(
      {.g = 2, .writes = pb::WriteResolution::Random, .seed = seed});
  (void)m.alloc(kShardCells);
  for (unsigned ph = 0; ph < kShardPhases; ++ph) {
    m.begin_phase();
    for (const auto& op : ops) {
      if (op.is_write)
        m.write(op.proc, op.addr, op.value);
      else
        m.read(op.proc, op.addr);
    }
    m.commit_phase();
    for (pb::ProcId p = 0; p < kShardProcs; p += 257)
      for (const pb::Word w : m.inbox(p))
        out.checksum = out.checksum * 31 + static_cast<std::uint64_t>(w);
  }
  for (pb::Addr a = kShardCells / 2; a < kShardCells; ++a)
    out.checksum =
        out.checksum * 31 + static_cast<std::uint64_t>(m.peek(a));
  out.cost = m.time();
  return out;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// degree(n = 26) instance that defeats every early tier (AND of the
// first 24 of 26 inputs) and lands in the chunked Moebius transform —
// the tier the pool parallelizes. Table construction is excluded from
// the timing; only the transform is being swept.
double degree26_wall_ms(const pb::BoolFn& f) {
  const auto t0 = std::chrono::steady_clock::now();
  const unsigned d = pb::degree(f);
  const auto t1 = std::chrono::steady_clock::now();
  if (d != 24) {
    std::fprintf(stderr, "bench_hotpath: degree(26) oracle got %u, want 24\n",
                 d);
    std::exit(1);
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ----- dispatch-equivalence oracle -------------------------------------------

// Folds every quantity a dispatch kernel touches into one checksum: the
// word-parallel connectives and fix (op_* / fix_low), population
// counts, the integer degree on BOTH sides of the dense/chunked tier
// boundary (scatter01 / slice_accum / max_degree_scan / moebius_level /
// signed_sum_words), the GF(2) transform (gf2_inword / gf2_cross), the
// full Moebius coefficient vector, and a phase-commit model cost. A
// pure function of the seed — so it must come out bit-identical at
// every supported dispatch level and every pool size.
std::uint64_t kernel_digest(std::uint64_t seed) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  const auto fold = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };

  pb::Rng rng(seed);
  const pb::BoolFn f = pb::BoolFn::random(20, rng);
  const pb::BoolFn g = pb::BoolFn::random(20, rng);
  const pb::BoolFn hfn = (f & g) ^ (~f | pb::BoolFn::variable(20, 3));
  for (const std::uint64_t w : hfn.words()) fold(w);
  fold(hfn.count_ones());
  const pb::BoolFn fixed = hfn.fix(3, true);
  for (const std::uint64_t w : fixed.words()) fold(w);

  fold(pb::degree(f));
  fold(pb::gf2_degree(f));
  fold(pb::detail::degree_via_dense(f));
  fold(pb::detail::degree_via_chunked(f));

  const pb::BoolFn small = pb::BoolFn::random(12, rng);
  for (const std::int64_t c : pb::multilinear_coeffs(small))
    fold(static_cast<std::uint64_t>(c));

  fold(qsm_commit_model(seed));
  return h;
}

// ----- pinned-dispatch word-loop timings -------------------------------------

// One timed pass of the connective/fix/counting word loops at the
// ACTIVE dispatch level: repeated rounds of (f & g) ^ (~f | g) over
// 2^24-entry tables, a low-variable fix, and popcounts of all the
// intermediates, folded into a checksum so the work cannot be elided.
// Counting passes outnumber connective passes on purpose: the adversary
// hot loops (Know/Aff tallies, certificate scans) are count-heavy, and
// counting is also where the scalar fallback is furthest from the
// vector tiers (scalar std::popcount vs a full-width vector popcount),
// so a connective-only mix would understate the dispatch win.
double connectives24_wall_ms(const pb::BoolFn& f, const pb::BoolFn& g,
                             std::uint64_t& sink) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < 16; ++r) {
    const pb::BoolFn h = (f & g) ^ (~f | g);
    const pb::BoolFn hf = h.fix(5, (r & 1) != 0);
    sink = sink * 31 + h.count_ones();
    sink = sink * 31 + hf.count_ones();
    sink = sink * 31 + (h ^ f).count_ones();
    sink = sink * 31 + (h | g).count_ones();
  }
  return ms_since(t0);
}

// One timed chunked-tier degree: n = 23, AND of the first 21 inputs —
// the true degree 21 defeats every fast tier, so the whole slice scan
// runs. Construction happens in main; only the transform is timed.
double degree23_wall_ms(const pb::BoolFn& f) {
  const auto t0 = std::chrono::steady_clock::now();
  const unsigned d = pb::degree(f);
  const double ms = ms_since(t0);
  if (d != 21) {
    std::fprintf(stderr, "bench_hotpath: degree(23) oracle got %u, want 21\n",
                 d);
    std::exit(1);
  }
  return ms;
}

// ----- pairing / verification ------------------------------------------------

bool same_costs(const pb::runtime::SweepResult& a,
                const pb::runtime::SweepResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i)
    if (a.cells[i].costs != b.cells[i].costs) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the speedup-floor flags before the harness parses argv.
  double min_phase = 0.0;
  double min_degree = 0.0;
  double min_shard = 0.0;
  double min_simd = 0.0;
  {
    int w = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--min-phase-speedup=", 0) == 0)
        min_phase = std::stod(arg.substr(20));
      else if (arg.rfind("--min-degree-speedup=", 0) == 0)
        min_degree = std::stod(arg.substr(21));
      else if (arg.rfind("--min-shard-speedup=", 0) == 0)
        min_shard = std::stod(arg.substr(20));
      else if (arg.rfind("--min-simd-speedup=", 0) == 0)
        min_simd = std::stod(arg.substr(19));
      else
        argv[w++] = argv[i];
    }
    argc = w;
  }

  auto& session = session_init(argc, argv, "hotpath");
  std::printf("%s", pb::banner("HOT PATHS — sort-based phase commit and "
                               "packed BoolFn vs the legacy pipelines")
                        .c_str());

  // The paired sweeps time the rewritten hot paths against their serial
  // legacy replicas; pin the intra-trial pool to one thread so the
  // ratio isolates the algorithmic rewrite (on an oversubscribed box a
  // --threads-sized pool would slow only the new side). Pool scaling is
  // measured separately by the shard sweep below, which restores the
  // session's --threads value when it finishes.
  auto& pool = pb::runtime::ParallelFor::pool();
  const unsigned session_threads = pool.threads();
  pool.set_threads(1);

  constexpr unsigned kTrials = 3;

  // Paired sweeps share one base seed and one cell grid, so trial t sees
  // the same op stream / sampled function on both sides and the model
  // results must agree exactly. Keep local copies: references returned
  // by record() don't survive later record() calls.
  // SweepCells return doubles; the model kernels are integer-exact, so
  // each wrapper is a single final conversion.
  const auto as_cell = [](std::uint64_t (*model)(std::uint64_t)) {
    return [model](std::uint64_t s) { return static_cast<double>(model(s)); };
  };

  const std::uint64_t commit_base = session.next_base_seed();
  const auto qsm_new = pb::runtime::run_sweep(
      session.runner(), "phase_commit", commit_base,
      {{.key = "qsm/p1024x64",
        .trials = kTrials,
        .run = as_cell(qsm_commit_model)}});
  const auto qsm_old = pb::runtime::run_sweep(
      session.runner(), "phase_commit_legacy", commit_base,
      {{.key = "qsm/p1024x64",
        .trials = kTrials,
        .run = as_cell(qsm_legacy_commit_model)}});
  const auto engines = pb::runtime::run_sweep(
      session.runner(), "phase_commit_other_engines",
      session.next_base_seed(),
      {{.key = "gsm/p1024x64",
        .trials = kTrials,
        .run = as_cell(gsm_commit_model)},
       {.key = "bsp/p1024x64",
        .trials = kTrials,
        .run = as_cell(bsp_commit_model)},
       {.key = "crcw/p1024x64",
        .trials = kTrials,
        .run = as_cell(crcw_commit_model)}});

  constexpr unsigned kDegTrials = 2;
  const std::uint64_t degree_base = session.next_base_seed();
  const auto fn_new = pb::runtime::run_sweep(
      session.runner(), "boolfn_degree", degree_base,
      {{.key = "degree/parity20", .trials = kDegTrials, .run = degree_parity20},
       {.key = "degree/and18in20",
        .trials = kDegTrials,
        .run = degree_and18in20},
       {.key = "degree/random20",
        .trials = kDegTrials,
        .run = degree_random20}});
  const auto fn_old = pb::runtime::run_sweep(
      session.runner(), "boolfn_degree_legacy", degree_base,
      {{.key = "degree/parity20",
        .trials = kDegTrials,
        .run = legacy_degree_parity20},
       {.key = "degree/and18in20",
        .trials = kDegTrials,
        .run = legacy_degree_and18in20},
       {.key = "degree/random20",
        .trials = kDegTrials,
        .run = legacy_degree_random20}});
  const std::uint64_t conn_base = session.next_base_seed();
  const auto conn_new = pb::runtime::run_sweep(
      session.runner(), "boolfn_connectives", conn_base,
      {{.key = "connectives/n20", .trials = kTrials, .run = connectives20}});
  const auto conn_old = pb::runtime::run_sweep(
      session.runner(), "boolfn_connectives_legacy", conn_base,
      {{.key = "connectives/n20",
        .trials = kTrials,
        .run = legacy_connectives20}});

  // Packed-only arities: correctness plus a timing record.
  const auto extended = pb::runtime::run_sweep(
      session.runner(), "boolfn_extended", session.next_base_seed(),
      {{.key = "degree/parity28", .trials = 1, .run = degree_parity28},
       {.key = "degree/and22in24", .trials = 1, .run = degree_and22in24}});

  session.record(qsm_new);
  session.record(qsm_old);
  session.record(engines);
  session.record(fn_new);
  session.record(fn_old);
  session.record(conn_new);
  session.record(conn_old);
  session.record(extended);

  // ----- behavioral cross-checks (the replicas are oracles) ---------------
  if (!same_costs(qsm_new, qsm_old) || !same_costs(fn_new, fn_old) ||
      !same_costs(conn_new, conn_old)) {
    std::fprintf(stderr,
                 "bench_hotpath: MISMATCH between engine and legacy replica "
                 "results\n");
    return 1;
  }
  if (extended.cells[0].mean != 28.0 || extended.cells[1].mean != 22.0) {
    std::fprintf(stderr, "bench_hotpath: packed degree self-check failed\n");
    return 1;
  }

  // ----- speedups ---------------------------------------------------------
  const double phase_speedup =
      qsm_old.wall_ms / std::max(1e-9, qsm_new.wall_ms);
  const double degree_speedup =
      fn_old.wall_ms / std::max(1e-9, fn_new.wall_ms);

  pb::TextTable t({"pair", "legacy ms", "new ms", "speedup"});
  t.add_row({"phase_commit qsm/p1024x64",
             pb::TextTable::num(qsm_old.wall_ms, 1),
             pb::TextTable::num(qsm_new.wall_ms, 1),
             pb::TextTable::num(phase_speedup, 2)});
  t.add_row({"boolfn degree n=20", pb::TextTable::num(fn_old.wall_ms, 1),
             pb::TextTable::num(fn_new.wall_ms, 1),
             pb::TextTable::num(degree_speedup, 2)});
  t.add_row({"boolfn connectives n=20",
             pb::TextTable::num(conn_old.wall_ms, 1),
             pb::TextTable::num(conn_new.wall_ms, 1),
             pb::TextTable::num(conn_old.wall_ms /
                                   std::max(1e-9, conn_new.wall_ms),
                               2)});
  std::printf("%s\n", t.render().c_str());
  std::printf("degree(parity(28)) = %.0f, degree(and22 at n=24) = %.0f\n\n",
              extended.cells[0].mean, extended.cells[1].mean);

  session.ratio("speedup/phase_commit/qsm_p1024x64", phase_speedup);
  session.ratio("speedup/boolfn/degree_n20", degree_speedup);

  if (min_phase > 0.0 && phase_speedup < min_phase) {
    std::fprintf(stderr,
                 "bench_hotpath: phase-commit speedup %.2f below floor "
                 "%.2f\n",
                 phase_speedup, min_phase);
    return 1;
  }
  if (min_degree > 0.0 && degree_speedup < min_degree) {
    std::fprintf(stderr,
                 "bench_hotpath: degree speedup %.2f below floor %.2f\n",
                 degree_speedup, min_degree);
    return 1;
  }

  // ----- shard-equivalence oracle + intra-trial thread sweep --------------
  // One large instance, four ways: sharding forced off (the serial
  // reference), then the sharded path at pool sizes 1, 2 and 8. Model
  // cost and checksum must agree bit for bit every time — the path and
  // the pool size may only change the wall clock.
  const std::uint64_t shard_seed = session.next_base_seed();
  const auto shard_ops = make_shard_ops(shard_seed);

  auto& shard_knob = pb::detail::commit_shard_min_requests();
  const std::uint64_t knob_saved = shard_knob;
  shard_knob = ~std::uint64_t{0};  // no phase qualifies: serial path
  pool.set_threads(1);
  const ShardRun serial_ref = qsm_shard_run(shard_seed, shard_ops);
  shard_knob = knob_saved;

  const pb::BoolFn deg26 = pb::BoolFn::from(26, [](std::uint32_t x) {
    return (x & 0xFFFFFFu) == 0xFFFFFFu;  // AND of the first 24 of 26
  });

  constexpr unsigned kPools[3] = {1, 2, 8};
  double commit_wall[3] = {};
  double deg_wall[3] = {};
  bool shard_ok = true;
  for (int i = 0; i < 3; ++i) {
    pool.set_threads(kPools[i]);
    for (int rep = 0; rep < 2; ++rep) {  // best-of-2 per pool size
      const auto t0 = std::chrono::steady_clock::now();
      const ShardRun r = qsm_shard_run(shard_seed, shard_ops);
      const double wall = ms_since(t0);
      if (!(r == serial_ref)) shard_ok = false;
      commit_wall[i] = (rep == 0) ? wall : std::min(commit_wall[i], wall);
      const double d = degree26_wall_ms(deg26);
      deg_wall[i] = (rep == 0) ? d : std::min(deg_wall[i], d);
    }
  }
  pool.set_threads(session_threads);
  if (!shard_ok) {
    std::fprintf(stderr,
                 "bench_hotpath: sharded commit DIVERGED from the serial "
                 "path (cost or checksum)\n");
    return 1;
  }

  const auto ratio = [](double base, double x) {
    return base / std::max(1e-9, x);
  };
  const double shard_commit2 = ratio(commit_wall[0], commit_wall[1]);
  const double shard_commit8 = ratio(commit_wall[0], commit_wall[2]);
  const double shard_deg2 = ratio(deg_wall[0], deg_wall[1]);
  const double shard_deg8 = ratio(deg_wall[0], deg_wall[2]);

  pb::TextTable st({"sharded instance", "1 thr ms", "2 thr ms", "8 thr ms",
                    "x2", "x8"});
  st.add_row({"qsm commit p65536x4 (random writes)",
              pb::TextTable::num(commit_wall[0], 1),
              pb::TextTable::num(commit_wall[1], 1),
              pb::TextTable::num(commit_wall[2], 1),
              pb::TextTable::num(shard_commit2, 2),
              pb::TextTable::num(shard_commit8, 2)});
  st.add_row({"boolfn degree n=26 (chunked tier)",
              pb::TextTable::num(deg_wall[0], 1),
              pb::TextTable::num(deg_wall[1], 1),
              pb::TextTable::num(deg_wall[2], 1),
              pb::TextTable::num(shard_deg2, 2),
              pb::TextTable::num(shard_deg8, 2)});
  std::printf("%s(shard oracle: cost=%llu checksum=%llu identical on the "
              "serial path and at every pool size)\n\n",
              st.render().c_str(),
              static_cast<unsigned long long>(serial_ref.cost),
              static_cast<unsigned long long>(serial_ref.checksum));

  session.ratio("shard_speedup/phase_commit/threads2", shard_commit2);
  session.ratio("shard_speedup/phase_commit/threads8", shard_commit8);
  session.ratio("shard_speedup/degree26/threads2", shard_deg2);
  session.ratio("shard_speedup/degree26/threads8", shard_deg8);

  if (min_shard > 0.0 &&
      std::min(shard_commit8, shard_deg8) < min_shard) {
    std::fprintf(stderr,
                 "bench_hotpath: 8-thread shard speedup (commit %.2f, "
                 "degree26 %.2f) below floor %.2f\n",
                 shard_commit8, shard_deg8, min_shard);
    return 1;
  }

  // ----- dispatch-equivalence oracle: every level x pool sizes ------------
  // One digest seed, evaluated at every dispatch level the host supports
  // and at pool sizes 1/2/8 under each. Any divergence means a SIMD
  // kernel is not bit-identical to portable — a correctness bug, never a
  // tolerable perf artifact. The entry level is restored afterwards.
  const pb::runtime::SimdLevel entry_level = pb::runtime::active_simd_level();
  const auto levels = pb::runtime::supported_simd_levels();
  const std::uint64_t oracle_seed = session.next_base_seed();
  std::uint64_t oracle_ref = 0;
  bool oracle_first = true;
  bool dispatch_ok = true;
  for (const auto level : levels) {
    pb::runtime::set_simd_level(level);
    for (const unsigned threads : {1u, 2u, 8u}) {
      pool.set_threads(threads);
      const std::uint64_t d = kernel_digest(oracle_seed);
      if (oracle_first) {
        oracle_ref = d;
        oracle_first = false;
      } else if (d != oracle_ref) {
        dispatch_ok = false;
        std::fprintf(stderr,
                     "bench_hotpath: kernel digest DIVERGED at level %s, "
                     "pool %u (%016llx vs %016llx)\n",
                     pb::runtime::simd_level_name(level), threads,
                     static_cast<unsigned long long>(d),
                     static_cast<unsigned long long>(oracle_ref));
      }
    }
  }
  pb::runtime::set_simd_level(entry_level);
  pool.set_threads(1);
  if (!dispatch_ok) return 1;
  std::printf("dispatch oracle: kernel digest %016llx identical across %zu "
              "level(s) x pools {1,2,8}\n\n",
              static_cast<unsigned long long>(oracle_ref), levels.size());

  // The digest (truncated to double-exact range) and the lane count go
  // into the JSON report so a run archives which matrix it proved equal.
  const double digest53 =
      static_cast<double>(oracle_ref & ((std::uint64_t{1} << 53) - 1));
  const double oracle_lanes = static_cast<double>(levels.size() * 3);
  session.record(pb::runtime::run_sweep(
      session.runner(), "dispatch_oracle", session.next_base_seed(),
      {{.key = "kernel_digest/low53",
        .trials = 1,
        .run = [digest53](std::uint64_t) { return digest53; }},
       {.key = "kernel_digest/lanes",
        .trials = 1,
        .run = [oracle_lanes](std::uint64_t) { return oracle_lanes; }}}));

  // ----- SIMD word-loop speedup: pinned portable vs best tier -------------
  const auto max_level = pb::runtime::max_supported_simd_level();
  if (max_level == pb::runtime::SimdLevel::kPortable) {
    std::printf("simd speedup: host has no SIMD tier (portable only) — "
                "sweep and floor skipped\n\n");
  } else {
    pb::Rng srng(session.next_base_seed());
    const pb::BoolFn cf = pb::BoolFn::random(24, srng);
    const pb::BoolFn cg = pb::BoolFn::random(24, srng);
    const pb::BoolFn d23 = pb::BoolFn::from(23, [](std::uint32_t x) {
      return (x & 0x1FFFFFu) == 0x1FFFFFu;  // AND of the first 21 inputs
    });

    const pb::runtime::SimdLevel lv[2] = {pb::runtime::SimdLevel::kPortable,
                                          max_level};
    double conn_wall23[2] = {};
    double deg_wall23[2] = {};
    std::uint64_t sinks[2] = {};
    for (int i = 0; i < 2; ++i) {
      pb::runtime::set_simd_level(lv[i]);
      for (int rep = 0; rep < 2; ++rep) {  // best-of-2 per level
        std::uint64_t s = 0;
        const double c = connectives24_wall_ms(cf, cg, s);
        conn_wall23[i] = (rep == 0) ? c : std::min(conn_wall23[i], c);
        sinks[i] = s;
        const double d = degree23_wall_ms(d23);
        deg_wall23[i] = (rep == 0) ? d : std::min(deg_wall23[i], d);
      }
    }
    pb::runtime::set_simd_level(entry_level);
    if (sinks[0] != sinks[1]) {
      std::fprintf(stderr,
                   "bench_hotpath: connective checksum DIVERGED between "
                   "portable and %s\n",
                   pb::runtime::simd_level_name(max_level));
      return 1;
    }

    const double simd_conn = ratio(conn_wall23[0], conn_wall23[1]);
    const double simd_deg = ratio(deg_wall23[0], deg_wall23[1]);
    pb::TextTable sm({"word loop", "portable ms",
                      std::string(pb::runtime::simd_level_name(max_level)) +
                          " ms",
                      "speedup"});
    sm.add_row({"connectives+fix+count n=24",
                pb::TextTable::num(conn_wall23[0], 1),
                pb::TextTable::num(conn_wall23[1], 1),
                pb::TextTable::num(simd_conn, 2)});
    sm.add_row({"degree n=23 (chunked tier)",
                pb::TextTable::num(deg_wall23[0], 1),
                pb::TextTable::num(deg_wall23[1], 1),
                pb::TextTable::num(simd_deg, 2)});
    std::printf("%s\n", sm.render().c_str());

    session.ratio("simd_speedup/connectives/n24", simd_conn);
    session.ratio("simd_speedup/degree23/chunked", simd_deg);

    if (min_simd > 0.0 && std::min(simd_conn, simd_deg) < min_simd) {
      std::fprintf(stderr,
                   "bench_hotpath: simd speedup (connectives %.2f, degree23 "
                   "%.2f) below floor %.2f\n",
                   simd_conn, simd_deg, min_simd);
      return 1;
    }
  }
  pool.set_threads(session_threads);

  return session.finish();
}
