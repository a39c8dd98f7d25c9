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
// behavioral oracles. Cells return model costs/degrees, never wall
// time, so the report bytes are the same at any --jobs value.
//
// Every speedup is a paired_ratio (src/runtime/paired_ratio.hpp): the
// replica and the engine repeat trial 0 of their sweep in alternating
// >= 100 ms regions over 9 pairs, each repetition re-checked against
// the sweep's value, and the ratio is the median with its spread
// (docs/PERF.md, "How a wall-clock gate reads"). The ratios go to the
// ops file (BENCH_hotpath.ops.json) only.
//
// The binary also pairs a degree(n=26) instance that lands in the
// chunked Moebius tier at pool size 1 against pool sizes 2 and 8 (the
// "shard_speedup/degree26/..." ratios).
//
// The dispatch-equivalence oracle covers the full kernel matrix:
// kernel_digest folds every dispatch-kernel-touched quantity
// (connective words, popcounts, integer/GF(2) degrees, both sides of
// the dense/chunked tier boundary, multilinear coefficients, a commit
// model cost) into one checksum, and that digest must be identical at
// EVERY supported dispatch level x pool size in {1, 2, 8}. Two more
// pairs then pin the word loops at portable and at the highest
// supported tier ("simd_speedup/..." ratios).
//
// Extra flags (stripped before the harness parses argv; X must be a
// finite positive number, anything else exits 2):
//   --min-phase-speedup=X   fail (exit 1) if the commit speedup < X
//   --min-degree-speedup=X  fail (exit 1) if the degree speedup < X
//   --min-shard-speedup=X   fail (exit 1) if the 8-thread degree(26)
//                           speedup over the same instance at 1
//                           thread < X
//   --min-simd-speedup=X    fail (exit 1) if the best-tier word-loop
//                           speedup over pinned-portable < X for the
//                           connectives or the chunked-degree workload
//                           (skipped when the host has no SIMD tier)
// Every ratio is measured, and the report and the ops file written
// (each ratio with its /spread and /pairs), before a failed floor makes
// the run exit 1. tools/run_checks.sh passes conservative floors.

#include <algorithm>
#include <bit>
#include <functional>
#include <optional>
#include <type_traits>
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
  pb::QsmMachine m({.g = 2});
  (void)m.alloc(kCommitCells);
  return replay_phases(m, make_commit_ops(rng));
}

std::uint64_t qsm_legacy_commit_model(std::uint64_t seed) {
  pb::Rng rng(seed);
  legacy::Qsm m(2);
  return replay_phases(m, make_commit_ops(rng));
}

std::uint64_t gsm_commit_model(std::uint64_t seed) {
  pb::Rng rng(seed);
  pb::GsmMachine m({.alpha = 2, .beta = 2});
  (void)m.alloc(kCommitCells);
  return replay_phases(m, make_commit_ops(rng));
}

std::uint64_t bsp_commit_model(std::uint64_t seed) {
  pb::Rng rng(seed);
  pb::BspMachine m({.p = kCommitProcs, .g = 2, .L = 8});
  for (unsigned ph = 0; ph < kCommitPhases; ++ph) {
    m.begin_superstep();
    for (pb::ProcId p = 0; p < kCommitProcs; ++p)
      for (int s = 0; s < 4; ++s)
        m.send(p, rng.next_below(kCommitProcs),
               static_cast<pb::Word>(rng.next_below(1000)));
    m.commit_superstep();
  }
  return m.time();
}

std::uint64_t crcw_commit_model(std::uint64_t seed) {
  pb::Rng rng(seed);
  const auto ops = make_commit_ops(rng);
  pb::CrcwMachine m({.rule = pb::CrcwWriteRule::Arbitrary});
  (void)m.alloc(kCommitCells);
  std::uint64_t kappa_sum = 0;
  for (unsigned ph = 0; ph < kCommitPhases; ++ph) {
    m.begin_step();
    issue_ops(m, ops);
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

// ----- dispatch-equivalence oracle -------------------------------------------

// Folds every quantity a dispatch kernel touches into one checksum: the
// word-parallel connectives and fix (op_* / fix_low), population
// counts, the integer degree on BOTH sides of the dense/chunked tier
// boundary (scatter01 / slice_accum / max_degree_scan / moebius_low /
// moebius_level / signed_sum_words), the GF(2) transform (gf2_inword /
// gf2_cross), the full Moebius coefficient vector (the same scatter and
// transform), and a phase-commit model cost. A pure function of the
// seed — so it must come out bit-identical at every supported dispatch
// level and every pool size.
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

// ----- pinned-dispatch word loops ---------------------------------------------

// One repetition of the connective/fix/counting word loops at the
// ACTIVE dispatch level: rounds of (f & g) ^ (~f | g) over 2^24-entry
// tables, a low-variable fix, and popcounts of all the intermediates,
// folded into a checksum that must not depend on the level. Counting
// passes outnumber connective passes on purpose: the adversary hot
// loops (Know/Aff tallies, certificate scans) are count-heavy, and
// counting is also where the scalar fallback is furthest from the
// vector tiers (scalar std::popcount vs a full-width vector popcount),
// so a connective-only mix would understate the dispatch win.
std::uint64_t connectives24(const pb::BoolFn& f, const pb::BoolFn& g) {
  std::uint64_t sink = 0;
  for (int r = 0; r < 16; ++r) {
    const pb::BoolFn h = (f & g) ^ (~f | g);
    const pb::BoolFn hf = h.fix(5, (r & 1) != 0);
    sink = sink * 31 + h.count_ones();
    sink = sink * 31 + hf.count_ones();
    sink = sink * 31 + (h ^ f).count_ones();
    sink = sink * 31 + (h | g).count_ones();
  }
  return sink;
}

// ----- pairing / verification ------------------------------------------------

bool same_costs(const pb::runtime::SweepResult& a,
                const pb::runtime::SweepResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i)
    if (a.cells[i].costs != b.cells[i].costs) return false;
  return true;
}

// A timed side whose every repetition must reproduce `want`: the
// replicas and the degree oracles stay checks inside the timed regions,
// and the measured work cannot be elided.
template <class Fn>
pb::runtime::TimedSide checked(Fn fn, std::invoke_result_t<Fn> want,
                               bool& diverged,
                               std::function<void()> setup = {}) {
  return {.setup = std::move(setup),
          .body = [fn, want, &diverged] { diverged |= fn() != want; }};
}

// Every ratio below is time(A) / time(B) over kPairs alternating pairs
// of >= 100 ms regions (src/runtime/paired_ratio.hpp).
constexpr unsigned kPairs = 9;

}  // namespace

int main(int argc, char** argv) {
  // Strip the speedup-floor flags before the harness parses argv.
  const double min_phase =
      pb::runtime::take_floor_flag(argc, argv, "--min-phase-speedup", 0.0);
  const double min_degree =
      pb::runtime::take_floor_flag(argc, argv, "--min-degree-speedup", 0.0);
  const double min_shard =
      pb::runtime::take_floor_flag(argc, argv, "--min-shard-speedup", 0.0);
  const double min_simd =
      pb::runtime::take_floor_flag(argc, argv, "--min-simd-speedup", 0.0);

  auto& session = session_init(argc, argv, "hotpath");
  std::printf("%s", pb::banner("HOT PATHS — sort-based phase commit and "
                               "packed BoolFn vs the legacy pipelines")
                        .c_str());

  // The paired timings compare the rewritten hot paths against their
  // serial legacy replicas; pin the intra-trial pool to one thread so
  // the ratio isolates the algorithmic rewrite (on an oversubscribed box
  // a --threads-sized pool would slow only the new side). Pool scaling
  // is measured separately by the thread pairs below; the session's
  // --threads value is restored at the end.
  auto& pool = pb::runtime::ParallelFor::pool();
  const unsigned session_threads = pool.threads();
  pool.set_threads(1);

  constexpr unsigned kTrials = 3;

  // Paired sweeps share one base seed and one cell grid, so trial t sees
  // the same op stream / sampled function on both sides and the model
  // results must agree exactly. Keep local copies: references returned
  // by sweep() don't survive later sweeps.
  // SweepCells return doubles; the model kernels are integer-exact, so
  // each wrapper is a single final conversion.
  const auto as_cell = [](std::uint64_t (*model)(std::uint64_t)) {
    return [model](std::uint64_t s) { return static_cast<double>(model(s)); };
  };

  const std::uint64_t commit_base = session.next_base_seed();
  const auto qsm_new = sweep("phase_commit",
                             {{.key = "qsm/p1024x64",
                               .trials = kTrials,
                               .run = as_cell(qsm_commit_model)}},
                             commit_base);
  const auto qsm_old = sweep("phase_commit_legacy",
                             {{.key = "qsm/p1024x64",
                               .trials = kTrials,
                               .run = as_cell(qsm_legacy_commit_model)}},
                             commit_base);
  sweep("phase_commit_other_engines",
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
  const auto fn_new = sweep(
      "boolfn_degree",
      {{.key = "degree/parity20", .trials = kDegTrials, .run = degree_parity20},
       {.key = "degree/and18in20",
        .trials = kDegTrials,
        .run = degree_and18in20},
       {.key = "degree/random20",
        .trials = kDegTrials,
        .run = degree_random20}},
      degree_base);
  const auto fn_old = sweep("boolfn_degree_legacy",
                            {{.key = "degree/parity20",
                              .trials = kDegTrials,
                              .run = legacy_degree_parity20},
                             {.key = "degree/and18in20",
                              .trials = kDegTrials,
                              .run = legacy_degree_and18in20},
                             {.key = "degree/random20",
                              .trials = kDegTrials,
                              .run = legacy_degree_random20}},
                            degree_base);
  const std::uint64_t conn_base = session.next_base_seed();
  const auto conn_new = sweep(
      "boolfn_connectives",
      {{.key = "connectives/n20", .trials = kTrials, .run = connectives20}},
      conn_base);
  const auto conn_old = sweep("boolfn_connectives_legacy",
                              {{.key = "connectives/n20",
                                .trials = kTrials,
                                .run = legacy_connectives20}},
                              conn_base);

  // Packed-only arities: correctness only.
  const auto extended = sweep(
      "boolfn_extended",
      {{.key = "degree/parity28", .trials = 1, .run = degree_parity28},
       {.key = "degree/and22in24", .trials = 1, .run = degree_and22in24}});

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
  std::printf("degree(parity(28)) = %.0f, degree(and22 at n=24) = %.0f\n\n",
              extended.cells[0].mean, extended.cells[1].mean);

  // ----- speedups over the legacy replicas --------------------------------
  // Each side repeats trial 0 of its sweep (op stream / sampled function
  // of the same seed) and must reproduce the cost the sweep recorded.
  bool diverged = false;
  const std::uint64_t commit_seed = pb::runtime::derive_seed(commit_base, 0);
  const auto commit_want =
      static_cast<std::uint64_t>(qsm_new.cells[0].costs[0]);
  session.gate_floor(
      "speedup/phase_commit/qsm_p1024x64",
      pb::runtime::paired_ratio(
          checked([=] { return qsm_legacy_commit_model(commit_seed); },
                  commit_want, diverged),
          checked([=] { return qsm_commit_model(commit_seed); }, commit_want,
                  diverged),
          kPairs),
      min_phase);
  // One repetition: trial 0 of every degree cell (random20's is trial 4).
  const std::uint64_t random_seed = pb::runtime::derive_seed(degree_base, 4);
  const double degree_want = fn_new.cells[0].costs[0] +
                             fn_new.cells[1].costs[0] +
                             fn_new.cells[2].costs[0];
  session.gate_floor(
      "speedup/boolfn/degree_n20",
      pb::runtime::paired_ratio(
          checked(
              [=] {
                return legacy_degree_parity20(0) + legacy_degree_and18in20(0) +
                       legacy_degree_random20(random_seed);
              },
              degree_want, diverged),
          checked(
              [=] {
                return degree_parity20(0) + degree_and18in20(0) +
                       degree_random20(random_seed);
              },
              degree_want, diverged),
          kPairs),
      min_degree);

  // ----- intra-trial thread pairs -----------------------------------------
  // One chunked-tier degree instance at pool size 1 against 2 and
  // against 8, on the main thread, where the pool fans out. The degree
  // (AND of the first 24 of 26 inputs: it defeats every early tier)
  // must come out exact at every pool size.
  const pb::BoolFn deg26 = pb::BoolFn::from(26, [](std::uint32_t x) {
    return (x & 0xFFFFFFu) == 0xFFFFFFu;
  });
  const auto at_pool = [&](unsigned threads) {
    return checked([&deg26] { return pb::degree(deg26); }, 24u, diverged,
                   [&pool, threads] { pool.set_threads(threads); });
  };
  session.ratio("shard_speedup/degree26/threads2",
                pb::runtime::paired_ratio(at_pool(1), at_pool(2), kPairs));
  session.gate_floor("shard_speedup/degree26/threads8",
                     pb::runtime::paired_ratio(at_pool(1), at_pool(8), kPairs),
                     min_shard);
  pool.set_threads(1);

  // ----- dispatch-equivalence oracle: every level x pool sizes ------------
  // One digest seed, evaluated at every dispatch level the host supports
  // and at pool sizes 1/2/8 under each. Any divergence means a SIMD
  // kernel is not bit-identical to portable — a correctness bug, never a
  // tolerable perf artifact. The entry level is restored afterwards.
  const pb::runtime::SimdLevel entry_level = pb::runtime::active_simd_level();
  const auto levels = pb::runtime::supported_simd_levels();
  const std::uint64_t oracle_seed = session.next_base_seed();
  std::optional<std::uint64_t> oracle;
  bool dispatch_ok = true;
  for (const auto level : levels) {
    pb::runtime::set_simd_level(level);
    for (const unsigned threads : {1u, 2u, 8u}) {
      pool.set_threads(threads);
      const std::uint64_t d = kernel_digest(oracle_seed);
      if (!oracle) {
        oracle = d;
      } else if (d != *oracle) {
        dispatch_ok = false;
        std::fprintf(stderr,
                     "bench_hotpath: kernel digest DIVERGED at level %s, "
                     "pool %u (%016llx vs %016llx)\n",
                     pb::runtime::simd_level_name(level), threads,
                     static_cast<unsigned long long>(d),
                     static_cast<unsigned long long>(*oracle));
      }
    }
  }
  pb::runtime::set_simd_level(entry_level);
  pool.set_threads(1);
  if (!dispatch_ok) return 1;
  std::printf("dispatch oracle: kernel digest %016llx identical across %zu "
              "level(s) x pools {1,2,8}\n\n",
              static_cast<unsigned long long>(*oracle), levels.size());

  // The digest (truncated to double-exact range) and the lane count go
  // into the JSON report so a run archives which matrix it proved equal.
  const double digest53 =
      static_cast<double>(*oracle & ((std::uint64_t{1} << 53) - 1));
  const double oracle_lanes = static_cast<double>(levels.size() * 3);
  sweep("dispatch_oracle",
        {{.key = "kernel_digest/low53",
          .trials = 1,
          .run = [digest53](std::uint64_t) { return digest53; }},
         {.key = "kernel_digest/lanes",
          .trials = 1,
          .run = [oracle_lanes](std::uint64_t) { return oracle_lanes; }}});

  // ----- SIMD word loops: pinned portable vs best tier --------------------
  const auto max_level = pb::runtime::max_supported_simd_level();
  if (max_level == pb::runtime::SimdLevel::kPortable) {
    std::printf("simd speedup: host has no SIMD tier (portable only) — "
                "pairs and floor skipped\n\n");
  } else {
    pb::Rng srng(session.next_base_seed());
    const pb::BoolFn cf = pb::BoolFn::random(24, srng);
    const pb::BoolFn cg = pb::BoolFn::random(24, srng);
    // n = 23, AND of the first 21 inputs: the true degree 21 defeats
    // every fast tier, so the whole chunked slice scan runs.
    const pb::BoolFn d23 = pb::BoolFn::from(23, [](std::uint32_t x) {
      return (x & 0x1FFFFFu) == 0x1FFFFFu;
    });
    // Every timed repetition must reproduce the checksum computed at
    // the entry level: it must not depend on the level.
    const auto conn = [&cf, &cg] { return connectives24(cf, cg); };
    const auto deg = [&d23] { return pb::degree(d23); };
    const std::uint64_t conn_want = conn();
    const auto at = [&](pb::runtime::SimdLevel level, auto fn, auto want) {
      return checked(fn, want, diverged,
                     [level] { pb::runtime::set_simd_level(level); });
    };
    const auto portable = pb::runtime::SimdLevel::kPortable;
    session.gate_floor("simd_speedup/connectives/n24",
                       pb::runtime::paired_ratio(at(portable, conn, conn_want),
                                                 at(max_level, conn, conn_want),
                                                 kPairs),
                       min_simd);
    session.gate_floor("simd_speedup/degree23/chunked",
                       pb::runtime::paired_ratio(at(portable, deg, 21u),
                                                 at(max_level, deg, 21u),
                                                 kPairs),
                       min_simd);
    pb::runtime::set_simd_level(entry_level);
  }
  pool.set_threads(session_threads);

  if (diverged) {
    std::fprintf(stderr,
                 "bench_hotpath: a timed repetition diverged from its oracle "
                 "value\n");
    return 1;
  }
  return session.finish();
}
