#include "core/crcw.hpp"

#include <algorithm>
#include <string>

#include "core/commit_tail.hpp"

namespace parbounds {

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
  proc_.scan(nr + st.writes, [&](std::uint64_t i) {
    return i < nr ? reads_[i].proc : writes_[i - nr].proc;
  });
  st.m_rw = std::max(st.m_rw, proc_.max_run());
  // One address histogram serves both directions, one scan each.
  addr_.scan(nr, [this](std::uint64_t i) { return reads_[i].addr; });
  st.kappa_r = std::max(st.kappa_r, addr_.max_run());
  addr_.scan(st.writes, [this](std::uint64_t i) { return writes_[i].addr; });
  st.kappa_w = std::max(st.kappa_w, addr_.max_run());
  detail::charge_local_ops(locals_, st);

  // A PRAM step: every processor does O(1) work; charging max(1, m_op)
  // keeps heavy local computation visible.
  ph.cost = std::max<std::uint64_t>(1, st.m_op);
  time_ += ph.cost;

  // Reads see the pre-step memory.
  detail::deliver_word_reads(reads_, mem_, inboxes_, nullptr);

  // Resolve writes per rule over addr-sorted groups; within a group the
  // index component keeps issue order, so "last queued" and
  // "first-queued tie-break" mean exactly what they did before. Groups
  // apply in ascending address order, so a Common conflict leaves
  // exactly the groups below the clashing address applied.
  wgroup_scratch_.clear();
  for (std::uint32_t i = 0; i < writes_.size(); ++i)
    wgroup_scratch_.push_back({writes_[i].addr, i});
  std::sort(wgroup_scratch_.begin(), wgroup_scratch_.end());
  for (std::size_t lo = 0; lo < wgroup_scratch_.size();) {
    std::size_t hi = lo;
    while (hi < wgroup_scratch_.size() &&
           wgroup_scratch_[hi].first == wgroup_scratch_[lo].first)
      ++hi;
    const WriteReq* win = &writes_[wgroup_scratch_[lo].second];
    for (std::size_t j = lo + 1; j < hi; ++j) {
      const WriteReq& w = writes_[wgroup_scratch_[j].second];
      switch (cfg_.rule) {
        case CrcwWriteRule::Common:
          if (win->value != w.value)
            throw ModelViolation("CRCW-Common: conflicting writes to cell " +
                                 std::to_string(w.addr));
          break;
        case CrcwWriteRule::Arbitrary:
          win = &w;  // last queued
          break;
        case CrcwWriteRule::Priority:
          if (w.proc < win->proc) win = &w;
          break;
      }
    }
    mem_.slot(win->addr) = win->value;
    lo = hi;
  }

  return detail::publish_phase(trace_, std::move(ph), observer_);
}

std::span<const Word> CrcwMachine::inbox(ProcId p) const {
  return inboxes_.of(p);
}

Word CrcwMachine::peek(Addr a) const {
  const Word* cell = mem_.find(a);
  return cell == nullptr ? 0 : *cell;
}

}  // namespace parbounds
