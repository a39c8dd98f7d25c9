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
// Each ratio is a paired_ratio (src/runtime/paired_ratio.hpp): the
// engine and the replica alternate in >= 100 ms regions over 11 pairs,
// and the gate reads the median with its spread (docs/PERF.md, "How a
// wall-clock gate reads"). For reference, the bench also measures the
// hook with a live TelemetryObserver attached, and — after the gated
// ratio, so it cannot perturb it — with a registry first touched after
// 10,000 registries have lived and died on this thread (what a fleet
// worker, one registry per cell, does). Both are informational, not
// gated; the second shows that the thread's shard cache
// (obs/thread_cache.hpp) scans only live registries.
//
// Extra flag (stripped before the harness parses argv; X must be a
// finite positive number, anything else exits 2):
//   --max-overhead=X  fail (exit 1) if the detached/baseline ratio is
//                     above the ceiling X (default 1.05;
//                     tools/run_checks.sh passes it explicitly). The
//                     report and the ops file are written either way.

#include <algorithm>
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

constexpr unsigned kPairs = 11;
constexpr unsigned kDeadRegistries = 10000;

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

// One timed repetition: the op stream's phases on a fresh machine.
template <class Machine>
std::uint64_t run_commits(const std::vector<CommitOp>& ops) {
  Machine m({.g = 4});
  return replay_phases(m, ops);
}

}  // namespace

int main(int argc, char** argv) {
  const double max_overhead =
      pb::runtime::take_floor_flag(argc, argv, "--max-overhead", 1.05);

  auto& session = session_init(argc, argv, "obs_overhead");
  std::printf("%s", pb::banner("OBS OVERHEAD — commit loop with detached "
                               "phase hook vs hook-free replica")
                        .c_str());

  pb::Rng rng(session.next_base_seed());
  const std::vector<CommitOp> ops = make_commit_ops(rng);

  // Every repetition's model cost must match the replica's: the replica
  // is a behavioral oracle as well as the baseline.
  const std::uint64_t want = run_commits<baseline::Qsm>(ops);
  bool diverged = false;
  const auto side = [&](auto run, pb::AnalysisObserver* telemetry) {
    return pb::runtime::TimedSide{
        .setup = [telemetry] { pb::obs::install_process_telemetry(telemetry); },
        .body = [&, run] { diverged |= run(ops) != want; }};
  };
  const auto engine = [](const std::vector<CommitOp>& o) {
    return run_commits<pb::QsmMachine>(o);
  };
  const auto base = side(
      [](const std::vector<CommitOp>& o) { return run_commits<baseline::Qsm>(o); },
      nullptr);

  pb::obs::MetricsRegistry attached_registry;
  pb::obs::TelemetryObserver attached_obs(attached_registry);
  const auto detached =
      pb::runtime::paired_ratio(side(engine, nullptr), base, kPairs);
  const auto attached =
      pb::runtime::paired_ratio(side(engine, &attached_obs), base, kPairs);

  for (unsigned i = 0; i < kDeadRegistries; ++i) {
    pb::obs::MetricsRegistry dead;
    dead.add(dead.counter("dead"));
  }
  pb::obs::MetricsRegistry aged_registry;
  pb::obs::TelemetryObserver aged_obs(aged_registry);
  const auto aged =
      pb::runtime::paired_ratio(side(engine, &aged_obs), base, kPairs);
  pb::obs::install_process_telemetry(nullptr);

  if (diverged) {
    std::fprintf(stderr,
                 "bench_obs_overhead: a run's model cost diverged from the "
                 "replica's %llu\n",
                 static_cast<unsigned long long>(want));
    return 1;
  }

  // Wall ratios are measurements, not model data: ops file only.
  session.gate_ceiling("obs_overhead/qsm_commit/detached_vs_baseline",
                       detached, max_overhead);
  session.ratio("obs_overhead/qsm_commit/attached_vs_baseline", attached);
  session.ratio("obs_overhead/qsm_commit/attached_after_dead_vs_baseline",
                aged);
  return session.finish();
}
