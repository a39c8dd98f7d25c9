#include "core/qsm.hpp"

#include <algorithm>
#include <optional>

#include "core/commit_tail.hpp"
#include "runtime/parallel_for.hpp"

namespace parbounds {

const std::vector<Word> QsmMachine::kEmptyInbox = {};

QsmMachine::QsmMachine(QsmConfig cfg)
    : cfg_(cfg), rng_(cfg.seed), mem_(cfg.mem_dense_limit) {
  if (cfg_.g == 0) throw std::invalid_argument("QSM gap g must be >= 1");
  if (cfg_.d == 0) throw std::invalid_argument("QSM memory gap d must be >= 1");
  switch (cfg_.model) {
    case CostModel::SQsm:
      trace_.kind = ExecutionTrace::Kind::SQsm;
      break;
    case CostModel::QsmGd:
      trace_.kind = ExecutionTrace::Kind::QsmGd;
      break;
    default:
      trace_.kind = ExecutionTrace::Kind::Qsm;
  }
  trace_.g = cfg_.g;
  trace_.d = cfg_.d;
}

Addr QsmMachine::alloc(std::uint64_t n) {
  const Addr base = next_base_;
  next_base_ += n;
  return base;
}

void QsmMachine::preload(Addr base, std::span<const Word> values) {
  for (std::size_t i = 0; i < values.size(); ++i)
    if (values[i] != 0) mem_.slot(base + i) = values[i];
}

void QsmMachine::preload(Addr addr, Word value) { mem_.slot(addr) = value; }

void QsmMachine::begin_phase() {
  if (in_phase_) throw ModelViolation("begin_phase inside an open phase");
  in_phase_ = true;
  reads_.clear();
  writes_.clear();
  locals_.clear();
}

void QsmMachine::read(ProcId p, Addr a) {
  if (!in_phase_) throw ModelViolation("read outside a phase");
  reads_.push_back({p, a});
}

void QsmMachine::write(ProcId p, Addr a, Word v) {
  if (!in_phase_) throw ModelViolation("write outside a phase");
  writes_.push_back({p, a, v});
}

void QsmMachine::local(ProcId p, std::uint64_t ops) {
  if (!in_phase_) throw ModelViolation("local outside a phase");
  locals_.push_back({p, ops});
}

const PhaseTrace& QsmMachine::commit_phase() {
  if (!in_phase_) throw ModelViolation("commit_phase without begin_phase");
  in_phase_ = false;

  PhaseTrace ph;
  PhaseStats& st = ph.stats;
  st.reads = reads_.size();
  st.writes = writes_.size();

  // Per-processor r_i / w_i, charged as separate maxima (a processor's
  // reads and writes overlap in the pipeline, they do not add): one
  // processor scan serves both, readers last so delivery can use it.
  // Then per-cell contention and the queue rule (reads XOR writes per
  // cell); the reported clash is the smallest conflicting address, so
  // the violation stays deterministic.
  const unsigned shards = detail::commit_shard_count(st.reads + st.writes);
  if (shards > 1) ph.commit_shards = shards;
  proc_.scan(shards, st.writes,
             [this](std::uint64_t i) { return writes_[i].proc; });
  st.m_rw = std::max(st.m_rw, proc_.max_run());
  proc_.scan(shards, st.reads,
             [this](std::uint64_t i) { return reads_[i].proc; });
  st.m_rw = std::max(st.m_rw, proc_.max_run());
  raddr_.scan(shards, st.reads,
              [this](std::uint64_t i) { return reads_[i].addr; });
  waddr_.scan(shards, st.writes,
              [this](std::uint64_t i) { return writes_[i].addr; });
  st.kappa_r = std::max(st.kappa_r, raddr_.max_run());
  st.kappa_w = std::max(st.kappa_w, waddr_.max_run());
  const std::optional<Addr> clash =
      detail::PhaseScan::min_common(raddr_, waddr_);
  detail::charge_local_ops(locals_, st);

  if (clash)
    throw ModelViolation("cell " + std::to_string(*clash) +
                         " both read and written in one phase");

  if (cfg_.model == CostModel::Erew && st.kappa() > 1)
    throw ModelViolation("EREW: concurrent access (contention " +
                         std::to_string(st.kappa()) + ")");

  ph.cost = phase_cost(cfg_.model, cfg_.g, st, cfg_.d);
  time_ += ph.cost;

  // Deliver reads: values are the cell contents at the start of the phase
  // (writes below have not been applied yet), in issue order per processor.
  // Strategy (not results) depends on the pool size: a 1-thread pool
  // takes the serial loops rather than paying kCommitShards scans of the
  // request streams.
  auto& pool = runtime::ParallelFor::pool();
  const bool par_apply =
      shards > 1 && !cfg_.record_detail && pool.threads() > 1;
  detail::deliver_word_reads(reads_, mem_, inboxes_, proc_, par_apply,
                             cfg_.record_detail ? &ph.events : nullptr);

  // Apply writes. With multiple writers to one cell, an arbitrary write
  // succeeds: LastQueued keeps the final request's value; Random picks a
  // uniform winner per cell, drawing in ascending cell order so the
  // winner sequence is a pure function of the seed (an unordered_map
  // walk here would feed rng_ in library-specific order).
  if (cfg_.writes == WriteResolution::LastQueued) {
    // Parallel path: address ranges. A cell's writes are all applied by
    // the one shard owning its range, in issue order — the surviving
    // value is the last queued write, exactly as in the serial loop.
    bool applied = false;
    if (par_apply && waddr_.all_dense() &&
        mem_.reserve_dense(waddr_.dense_extent())) {
      pool.for_shards(waddr_.dense_extent(), detail::kCommitShards,
                      [&](unsigned s, std::uint64_t alo, std::uint64_t ahi) {
                        obs::Span span(obs::process_tracer(), "commit.shard",
                                       s);
                        for (const auto& w : writes_)
                          if (w.addr >= alo && w.addr < ahi)
                            mem_.slot(w.addr) = w.value;
                      });
      applied = true;
    }
    if (!applied) {
      for (const auto& w : writes_) {
        mem_.slot(w.addr) = w.value;
        if (cfg_.record_detail)
          ph.events.push_back({w.proc, w.addr, w.value, true});
      }
    }
  } else {
    // Random resolution draws rng_ in ascending cell order — the draw
    // sequence is inherently serial, but the dominant cost (sorting the
    // write groups) shards cleanly: (addr, issue index) pairs are
    // distinct, so parallel_sort is byte-identical to std::sort.
    wgroup_scratch_.clear();
    for (std::uint32_t i = 0; i < writes_.size(); ++i)
      wgroup_scratch_.push_back({writes_[i].addr, i});
    runtime::parallel_sort(wgroup_scratch_, pool);
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

  return detail::publish_phase(trace_, std::move(ph), observer_);
}

std::span<const Word> QsmMachine::inbox(ProcId p) const {
  const std::vector<Word>* box = inboxes_.find(p);
  return (box == nullptr) ? kEmptyInbox : *box;
}

Word QsmMachine::peek(Addr a) const {
  const Word* cell = mem_.find(a);
  return (cell == nullptr) ? 0 : *cell;
}

}  // namespace parbounds
