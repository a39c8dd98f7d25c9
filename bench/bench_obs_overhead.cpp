// Observability overhead guard: the engine commit loop with the
// telemetry hook compiled in (but detached) must stay within a small
// factor of the same loop with no hook at all.
//
// Since the obs PR every commit_phase ends with obs::phase_hook — one
// atomic load plus a predicted-untaken branch when nothing is
// installed. That null-sink fast path is the contract that lets the
// hook live in the hot loop of every engine; this bench enforces it the
// bench_hotpath way, with an embedded replica as the uninstrumented
// baseline:
//
//   baseline::Qsm is a faithful copy of today's QsmMachine commit
//   pipeline (same KeyHistogram accounting, CellStore memory,
//   FlatInbox delivery, same clash/EREW branches) minus ONLY the
//   observer and phase_hook calls. Paired runs replay the SAME
//   deterministic op stream through the engine and the replica; model
//   costs are asserted equal, so the replica doubles as a behavioral
//   oracle, and the wall-clock ratio is the measured hook overhead.
//
// Runs are timed serially (never through the runner) and the ratio uses
// the min over interleaved repetitions on each side, which strips
// scheduler noise. For reference, the bench also measures the hook with
// a live TelemetryObserver attached, and — after the gated loop, so it
// cannot perturb it — with a registry first touched after 10,000
// registries have lived and died on this thread (what a fleet worker,
// one registry per cell, does). Both are informational, not gated; the
// second shows that the thread's shard cache (obs/thread_cache.hpp)
// scans only live registries.
//
// Extra flag (stripped before the harness parses argv; X must be a
// finite positive number, anything else exits 2):
//   --max-overhead=X  fail (exit 1) if detached/baseline wall ratio > X
//                     (default 1.05; tools/run_checks.sh passes it
//                     explicitly)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/commit_tail.hpp"
#include "core/qsm.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace pb = parbounds;
using namespace parbounds::bench;

namespace {

constexpr std::uint64_t kProcs = 1024;
constexpr unsigned kPhases = 64;
constexpr std::uint64_t kCells = 4096;  // reads in [0, 2048), writes above
constexpr unsigned kGuardReps = 9;
constexpr unsigned kWarmupReps = 2;
constexpr unsigned kDeadRegistries = 10000;

struct Op {
  bool is_write;
  pb::ProcId proc;
  pb::Addr addr;
  pb::Word value;
};

// One phase's request stream (the bench_hotpath workload): every
// processor issues 2 reads and 2 writes, halves disjoint so the stream
// is legal. Generated once and replayed for all kPhases phases.
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

// ----- baseline replica: today's QSM commit pipeline, hook-free --------------

namespace baseline {

// Copy of QsmMachine's phase protocol with the observer slot and
// obs::phase_hook removed — nothing else. Every accounting pass, branch
// (clash, EREW, record_detail, write resolution), container, and throw
// site matches the engine, and noinline keeps the whole protocol
// outlined calls the way the library build's are (the engine defines
// them in qsm.cpp) — so any wall gap between the two is the hook itself.
class Qsm {
 public:
  explicit Qsm(pb::QsmConfig cfg = {})
      : cfg_(cfg), rng_(cfg.seed), mem_(cfg.mem_dense_limit) {
    trace_.kind = pb::ExecutionTrace::Kind::Qsm;
    trace_.g = cfg_.g;
    trace_.d = cfg_.d;
  }

  __attribute__((noinline)) void begin_phase() {
    if (in_phase_) throw pb::ModelViolation("begin_phase inside an open phase");
    in_phase_ = true;
    reads_.clear();
    writes_.clear();
    locals_.clear();
  }
  __attribute__((noinline)) void read(pb::ProcId p, pb::Addr a) {
    if (!in_phase_) throw pb::ModelViolation("read outside a phase");
    reads_.push_back({p, a});
  }
  __attribute__((noinline)) void write(pb::ProcId p, pb::Addr a, pb::Word v) {
    if (!in_phase_) throw pb::ModelViolation("write outside a phase");
    writes_.push_back({p, a, v});
  }
  std::uint64_t time() const { return time_; }

  __attribute__((noinline)) void commit_phase() {
    if (!in_phase_)
      throw pb::ModelViolation("commit_phase without begin_phase");
    in_phase_ = false;

    pb::PhaseTrace ph;
    pb::PhaseStats& st = ph.stats;
    st.reads = reads_.size();
    st.writes = writes_.size();

    proc_.scan(st.writes, [this](std::uint64_t i) { return writes_[i].proc; });
    st.m_rw = std::max(st.m_rw, proc_.max_run());
    proc_.scan(st.reads, [this](std::uint64_t i) { return reads_[i].proc; });
    st.m_rw = std::max(st.m_rw, proc_.max_run());
    raddr_.scan(st.reads, [this](std::uint64_t i) { return reads_[i].addr; });
    waddr_.scan(st.writes,
                [this](std::uint64_t i) { return writes_[i].addr; });
    st.kappa_r = std::max(st.kappa_r, raddr_.max_run());
    st.kappa_w = std::max(st.kappa_w, waddr_.max_run());
    const std::optional<pb::Addr> clash =
        pb::detail::KeyHistogram::min_common(raddr_, waddr_);
    pb::detail::charge_local_ops(locals_, st);

    if (clash)
      throw pb::ModelViolation("cell " + std::to_string(*clash) +
                               " both read and written in one phase");

    if (cfg_.model == pb::CostModel::Erew && st.kappa() > 1)
      throw pb::ModelViolation("EREW: concurrent access (contention " +
                               std::to_string(st.kappa()) + ")");

    ph.cost = pb::phase_cost(cfg_.model, cfg_.g, st, cfg_.d);
    time_ += ph.cost;

    pb::detail::deliver_word_reads(reads_, mem_, inboxes_,
                                   cfg_.record_detail ? &ph.events : nullptr);

    if (cfg_.writes == pb::WriteResolution::LastQueued) {
      for (const auto& w : writes_) {
        mem_.slot(w.addr) = w.value;
        if (cfg_.record_detail)
          ph.events.push_back({w.proc, w.addr, w.value, true});
      }
    } else {
      wgroup_scratch_.clear();
      for (std::uint32_t i = 0; i < writes_.size(); ++i)
        wgroup_scratch_.push_back({writes_[i].addr, i});
      std::sort(wgroup_scratch_.begin(), wgroup_scratch_.end());
      for (std::size_t lo = 0; lo < wgroup_scratch_.size();) {
        std::size_t hi = lo;
        while (hi < wgroup_scratch_.size() &&
               wgroup_scratch_[hi].first == wgroup_scratch_[lo].first)
          ++hi;
        const auto k =
            lo + static_cast<std::size_t>(rng_.next_below(hi - lo));
        const WriteReq& winner = writes_[wgroup_scratch_[k].second];
        mem_.slot(winner.addr) = winner.value;
        if (cfg_.record_detail)
          for (std::size_t j = lo; j < hi; ++j) {
            const WriteReq& w = writes_[wgroup_scratch_[j].second];
            ph.events.push_back({w.proc, w.addr, w.value, true});
          }
        lo = hi;
      }
    }

    trace_.phases.push_back(std::move(ph));
  }

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

  pb::QsmConfig cfg_;
  pb::Rng rng_;
  pb::CellStore<pb::Word> mem_;
  bool in_phase_ = false;
  std::uint64_t time_ = 0;
  pb::ExecutionTrace trace_;

  std::vector<ReadReq> reads_;
  std::vector<WriteReq> writes_;
  std::vector<std::pair<pb::ProcId, std::uint64_t>> locals_;
  pb::FlatInbox<pb::Word> inboxes_;

  pb::detail::KeyHistogram proc_{pb::detail::kProcHistogramLimit};
  pb::detail::KeyHistogram raddr_{pb::detail::kAddrHistogramLimit};
  pb::detail::KeyHistogram waddr_{pb::detail::kAddrHistogramLimit};
  std::vector<std::pair<pb::Addr, std::uint32_t>> wgroup_scratch_;
};

}  // namespace baseline

// ----- paired timed runs -----------------------------------------------------

// Integer nanoseconds + integer model cost: the commit loop itself is
// float-free (detlint det.float-accum watches commit-named functions),
// and the ratio math happens once in main on the integer minima.
struct Run {
  std::uint64_t wall_ns = 0;
  std::uint64_t cost = 0;
};

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

template <class Machine>
Run run_commits(std::uint64_t seed) {
  pb::Rng rng(seed);
  const auto ops = make_ops(rng);
  Machine m({.g = 4});
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned p = 0; p < kPhases; ++p) {
    m.begin_phase();
    for (const Op& op : ops) {
      if (op.is_write)
        m.write(op.proc, op.addr, op.value);
      else
        m.read(op.proc, op.addr);
    }
    m.commit_phase();
  }
  return {ns_since(t0), m.time()};
}

}  // namespace

int main(int argc, char** argv) {
  const double max_overhead =
      pb::runtime::take_floor_flag(argc, argv, "--max-overhead", 1.05);

  auto& session = session_init(argc, argv, "obs_overhead");
  std::printf("%s", pb::banner("OBS OVERHEAD — commit loop with detached "
                               "phase hook vs hook-free replica")
                        .c_str());

  // The guard measures the DETACHED fast path: whatever the session
  // installed for --json/--trace must come off before timing starts.
  pb::obs::install_process_telemetry(nullptr);
  pb::obs::install_process_tracer(nullptr);

  const std::uint64_t seed = session.next_base_seed();
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::uint64_t best_engine = kNever, best_base = kNever,
                best_attached = kNever;
  pb::obs::MetricsRegistry attached_registry;
  pb::obs::TelemetryObserver attached_obs(attached_registry);
  for (unsigned rep = 0; rep < kWarmupReps + kGuardReps; ++rep) {
    const Run engine = run_commits<pb::QsmMachine>(seed);
    const Run base = run_commits<baseline::Qsm>(seed);
    pb::obs::install_process_telemetry(&attached_obs);
    const Run attached = run_commits<pb::QsmMachine>(seed);
    pb::obs::install_process_telemetry(nullptr);
    if (engine.cost != base.cost || engine.cost != attached.cost) {
      std::fprintf(stderr,
                   "bench_obs_overhead: replica diverged (engine %llu, "
                   "baseline %llu, attached %llu)\n",
                   static_cast<unsigned long long>(engine.cost),
                   static_cast<unsigned long long>(base.cost),
                   static_cast<unsigned long long>(attached.cost));
      return 1;
    }
    if (rep < kWarmupReps) continue;
    best_engine = std::min(best_engine, engine.wall_ns);
    best_base = std::min(best_base, base.wall_ns);
    best_attached = std::min(best_attached, attached.wall_ns);
  }

  for (unsigned i = 0; i < kDeadRegistries; ++i) {
    pb::obs::MetricsRegistry dead;
    dead.add(dead.counter("dead"));
  }
  std::uint64_t best_aged = kNever;
  pb::obs::MetricsRegistry aged_registry;
  pb::obs::TelemetryObserver aged_obs(aged_registry);
  pb::obs::install_process_telemetry(&aged_obs);
  for (unsigned rep = 0; rep < kWarmupReps + kGuardReps; ++rep) {
    const Run aged = run_commits<pb::QsmMachine>(seed);
    if (rep >= kWarmupReps) best_aged = std::min(best_aged, aged.wall_ns);
  }
  pb::obs::install_process_telemetry(nullptr);

  const auto to_ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  const double detached_ratio =
      static_cast<double>(best_engine) / static_cast<double>(best_base);
  const double attached_ratio =
      static_cast<double>(best_attached) / static_cast<double>(best_base);
  const double aged_ratio =
      static_cast<double>(best_aged) / static_cast<double>(best_base);
  pb::TextTable t({"path", "best wall (ms)", "vs baseline"});
  t.add_row(
      {"replica (no hook)", pb::TextTable::num(to_ms(best_base), 3), "1.00"});
  t.add_row({"engine, hook detached", pb::TextTable::num(to_ms(best_engine), 3),
             pb::TextTable::num(detached_ratio, 3)});
  t.add_row({"engine, telemetry attached",
             pb::TextTable::num(to_ms(best_attached), 3),
             pb::TextTable::num(attached_ratio, 3)});
  t.add_row({"attached, after 10,000 dead registries",
             pb::TextTable::num(to_ms(best_aged), 3),
             pb::TextTable::num(aged_ratio, 3)});
  std::printf("%s\n", t.render().c_str());

  // Wall ratios are measurements, not model data: ops file only.
  session.ratio("obs_overhead/qsm_commit/detached_vs_baseline",
                detached_ratio);
  session.ratio("obs_overhead/qsm_commit/attached_vs_baseline",
                attached_ratio);
  session.ratio("obs_overhead/qsm_commit/attached_after_dead_vs_baseline",
                aged_ratio);

  if (detached_ratio > max_overhead) {
    std::fprintf(stderr,
                 "bench_obs_overhead: detached hook overhead %.3fx exceeds "
                 "--max-overhead=%.2f\n",
                 detached_ratio, max_overhead);
    return 1;
  }
  std::printf("detached hook overhead %.3fx (limit %.2fx) — ok\n",
              detached_ratio, max_overhead);

  return session.finish();
}
