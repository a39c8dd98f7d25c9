#include "core/crcw.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <string>

#include "core/commit_tail.hpp"
#include "runtime/parallel_for.hpp"

namespace parbounds {

const std::vector<Word> CrcwMachine::kEmptyInbox = {};

CrcwMachine::CrcwMachine(CrcwConfig cfg)
    : cfg_(cfg), mem_(cfg.mem_dense_limit) {
  trace_.kind = ExecutionTrace::Kind::Qsm;  // unit-gap shared memory
  trace_.g = 1;
}

Addr CrcwMachine::alloc(std::uint64_t n) {
  const Addr base = next_base_;
  next_base_ += n;
  return base;
}

void CrcwMachine::preload(Addr base, std::span<const Word> values) {
  for (std::size_t i = 0; i < values.size(); ++i)
    if (values[i] != 0) mem_.slot(base + i) = values[i];
}

void CrcwMachine::preload(Addr addr, Word value) { mem_.slot(addr) = value; }

void CrcwMachine::begin_step() {
  if (in_step_) throw ModelViolation("begin_step inside an open step");
  in_step_ = true;
  reads_.clear();
  writes_.clear();
  locals_.clear();
}

void CrcwMachine::read(ProcId p, Addr a) {
  if (!in_step_) throw ModelViolation("read outside a step");
  reads_.push_back({p, a});
}

void CrcwMachine::write(ProcId p, Addr a, Word v) {
  if (!in_step_) throw ModelViolation("write outside a step");
  writes_.push_back({p, a, v});
}

void CrcwMachine::local(ProcId p, std::uint64_t ops) {
  if (!in_step_) throw ModelViolation("local outside a step");
  locals_.push_back({p, ops});
}

const PhaseTrace& CrcwMachine::commit_step() {
  if (!in_step_) throw ModelViolation("commit_step without begin_step");
  in_step_ = false;

  PhaseTrace ph;
  PhaseStats& st = ph.stats;
  st.reads = reads_.size();
  st.writes = writes_.size();

  // The PRAM charges reads and writes jointly per processor. Contention
  // is recorded (for comparisons) but NOT charged.
  const std::uint64_t nr = st.reads;
  const unsigned shards = detail::commit_shard_count(nr + st.writes);
  if (shards > 1) ph.commit_shards = shards;
  proc_.scan(shards, nr + st.writes, [&](std::uint64_t i) {
    return i < nr ? reads_[i].proc : writes_[i - nr].proc;
  });
  st.m_rw = std::max(st.m_rw, proc_.max_run());
  // One address scan serves both directions, writes last so the write
  // resolution below can partition by it.
  addr_.scan(shards, nr, [this](std::uint64_t i) { return reads_[i].addr; });
  st.kappa_r = std::max(st.kappa_r, addr_.max_run());
  addr_.scan(shards, st.writes,
             [this](std::uint64_t i) { return writes_[i].addr; });
  st.kappa_w = std::max(st.kappa_w, addr_.max_run());
  detail::charge_local_ops(locals_, st);

  // A PRAM step: every processor does O(1) work; charging max(1, m_op)
  // keeps heavy local computation visible.
  ph.cost = std::max<std::uint64_t>(1, st.m_op);
  time_ += ph.cost;

  // Reads see the pre-step memory. Strategy, not results, depends on the
  // pool size.
  auto& pool = runtime::ParallelFor::pool();
  const bool par_apply = shards > 1 && pool.threads() > 1;
  detail::deliver_word_reads(reads_, mem_, inboxes_, proc_, par_apply,
                             nullptr);

  // Resolve writes per rule over addr-sorted groups; within a group the
  // index component keeps issue order, so "last queued" and
  // "first-queued tie-break" mean exactly what they did before. The
  // (addr, issue index) pairs are distinct, so parallel_sort yields
  // byte-identical order to std::sort.
  wgroup_scratch_.clear();
  for (std::uint32_t i = 0; i < writes_.size(); ++i)
    wgroup_scratch_.push_back({writes_[i].addr, i});
  runtime::parallel_sort(wgroup_scratch_, pool);

  // A group's winner (and any Common conflict) is a pure function of the
  // group, and a group lies wholly inside one address range — so the
  // ranges resolve independently. To reproduce the serial loop exactly
  // when Common conflicts, the parallel path detects first, then applies
  // only the groups strictly below the smallest conflicting address
  // (= the groups the serial loop applied before throwing).
  const auto resolve_range = [&](std::uint64_t alo, std::uint64_t ahi,
                                 bool apply) -> std::optional<Addr> {
    auto it = std::lower_bound(
        wgroup_scratch_.begin(), wgroup_scratch_.end(),
        std::pair<Addr, std::uint32_t>{alo, 0});
    std::size_t lo = static_cast<std::size_t>(it - wgroup_scratch_.begin());
    while (lo < wgroup_scratch_.size() && wgroup_scratch_[lo].first < ahi) {
      std::size_t hi = lo;
      while (hi < wgroup_scratch_.size() &&
             wgroup_scratch_[hi].first == wgroup_scratch_[lo].first)
        ++hi;
      const WriteReq* win = &writes_[wgroup_scratch_[lo].second];
      for (std::size_t j = lo + 1; j < hi; ++j) {
        const WriteReq& w = writes_[wgroup_scratch_[j].second];
        switch (cfg_.rule) {
          case CrcwWriteRule::Common:
            if (win->value != w.value) return w.addr;  // smallest in range
            break;
          case CrcwWriteRule::Arbitrary:
            win = &w;  // last queued
            break;
          case CrcwWriteRule::Priority:
            if (w.proc < win->proc) win = &w;
            break;
        }
      }
      if (apply) mem_.slot(win->addr) = win->value;
      lo = hi;
    }
    return std::nullopt;
  };

  bool resolved = false;
  if (par_apply && addr_.all_dense() &&
      mem_.reserve_dense(addr_.dense_extent())) {
    const std::uint64_t extent = addr_.dense_extent();
    std::array<std::optional<Addr>, detail::kCommitShards> conflict{};
    pool.for_shards(extent, detail::kCommitShards,
                    [&](unsigned s, std::uint64_t alo, std::uint64_t ahi) {
                      obs::Span span(obs::process_tracer(), "commit.shard", s);
                      conflict[s] = resolve_range(
                          alo, ahi, cfg_.rule != CrcwWriteRule::Common);
                    });
    std::optional<Addr> worst;
    for (const auto& c : conflict)
      if (c && (!worst || *c < *worst)) worst = c;
    if (cfg_.rule == CrcwWriteRule::Common) {
      // Apply the conflict-free prefix, exactly like the serial walk.
      pool.for_shards(worst ? *worst : extent, detail::kCommitShards,
                      [&](unsigned, std::uint64_t alo, std::uint64_t ahi) {
                        resolve_range(alo, ahi, true);
                      });
      if (worst)
        throw ModelViolation("CRCW-Common: conflicting writes to cell " +
                             std::to_string(*worst));
    }
    resolved = true;
  }
  if (!resolved) {
    // Serial walk: apply as we go; on a Common conflict the groups
    // before the clashing address are already applied, matching the
    // historical loop exactly.
    if (const auto c = resolve_range(0, std::uint64_t(-1), true))
      throw ModelViolation("CRCW-Common: conflicting writes to cell " +
                           std::to_string(*c));
  }

  return detail::publish_phase(trace_, std::move(ph), observer_);
}

std::span<const Word> CrcwMachine::inbox(ProcId p) const {
  const std::vector<Word>* box = inboxes_.find(p);
  return box == nullptr ? std::span<const Word>(kEmptyInbox)
                        : std::span<const Word>(*box);
}

Word CrcwMachine::peek(Addr a) const {
  const Word* cell = mem_.find(a);
  return cell == nullptr ? 0 : *cell;
}

}  // namespace parbounds
