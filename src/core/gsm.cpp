#include "core/gsm.hpp"

#include <algorithm>

#include "core/commit_tail.hpp"
#include "util/mathx.hpp"

namespace parbounds {

GsmMachine::GsmMachine(GsmConfig cfg)
    : cfg_(cfg), mem_(cfg.mem_dense_limit) {
  if (cfg_.alpha == 0 || cfg_.beta == 0 || cfg_.gamma == 0)
    throw std::invalid_argument("GSM parameters must be >= 1");
  trace_.kind = ExecutionTrace::Kind::Gsm;
}

Addr GsmMachine::alloc(std::uint64_t n) {
  const Addr base = next_base_;
  next_base_ += n;
  return base;
}

std::uint64_t GsmMachine::load_inputs(Addr base, std::span<const Word> inputs) {
  std::uint64_t cells = 0;
  for (std::size_t i = 0; i < inputs.size(); i += cfg_.gamma) {
    auto& cell = mem_.slot(base + cells);
    const std::size_t hi = std::min(inputs.size(), i + cfg_.gamma);
    cell.assign(inputs.begin() + static_cast<std::ptrdiff_t>(i),
                inputs.begin() + static_cast<std::ptrdiff_t>(hi));
    ++cells;
  }
  return cells;
}

void GsmMachine::preload(Addr a, std::span<const Word> contents) {
  mem_.slot(a).assign(contents.begin(), contents.end());
}

void GsmMachine::begin_phase() {
  if (in_phase_) throw ModelViolation("begin_phase inside an open phase");
  if (!started_) {
    initial_mem_.clear();
    mem_.for_each([this](Addr a, const std::vector<Word>& cell) {
      initial_mem_.emplace(a, cell);
    });
    started_ = true;
  }
  in_phase_ = true;
  reads_.clear();
  writes_.clear();
  write_words_.clear();
}

void GsmMachine::read(ProcId p, Addr a) {
  if (!in_phase_) throw ModelViolation("read outside a phase");
  reads_.push_back({p, a});
}

void GsmMachine::write(ProcId p, Addr a, Word v) {
  if (!in_phase_) throw ModelViolation("write outside a phase");
  writes_.push_back({p, a, write_words_.size(), 1});
  write_words_.push_back(v);
}

void GsmMachine::write_block(ProcId p, Addr a, std::span<const Word> vs) {
  if (!in_phase_) throw ModelViolation("write outside a phase");
  writes_.push_back({p, a, write_words_.size(), vs.size()});
  write_words_.insert(write_words_.end(), vs.begin(), vs.end());
}

const PhaseTrace& GsmMachine::commit_phase() {
  if (!in_phase_) throw ModelViolation("commit_phase without begin_phase");
  in_phase_ = false;

  PhaseTrace ph;
  PhaseStats& st = ph.stats;
  st.reads = reads_.size();
  st.writes = writes_.size();

  // The GSM charges reads and writes jointly per processor; per-cell
  // contention comes with the read-xor-write queue rule.
  const std::uint64_t nr = st.reads;
  proc_.scan(nr + st.writes, [&](std::uint64_t i) {
    return i < nr ? reads_[i].proc : writes_[i - nr].proc;
  });
  raddr_.scan(nr, [this](std::uint64_t i) { return reads_[i].addr; });
  waddr_.scan(st.writes, [this](std::uint64_t i) { return writes_[i].addr; });
  st.m_rw = std::max(st.m_rw, proc_.max_run());
  st.kappa_r = std::max(st.kappa_r, raddr_.max_run());
  st.kappa_w = std::max(st.kappa_w, waddr_.max_run());
  if (detail::KeyHistogram::min_common(raddr_, waddr_))
    throw ModelViolation("GSM cell both read and written in one phase");

  // Big-step accounting (Section 2.2): a phase with b big-steps costs
  // mu * b; b = max(ceil(m_rw/alpha), ceil(kappa/beta)), at least 1.
  const std::uint64_t b =
      std::max<std::uint64_t>({1, ceil_div(st.m_rw, cfg_.alpha),
                               ceil_div(st.kappa(), cfg_.beta)});
  ph.cost = mu() * b;
  big_steps_ += b;
  time_ += ph.cost;

  const auto reader = [this](std::uint64_t i) { return reads_[i].proc; };
  inboxes_.index(nr, reader);
  inboxes_.fill(reader, [this](std::uint64_t i, std::vector<Word>& slot) {
    const std::vector<Word>* cell = mem_.find(reads_[i].addr);
    if (cell == nullptr)
      slot.clear();
    else
      slot = *cell;
  });
  if (cfg_.record_detail)
    for (const auto& r : reads_)
      ph.events.push_back({r.proc, r.addr, 0, false});

  // Strong queuing: every write appends its information to the cell.
  for (const auto& w : writes_) {
    const auto words = std::span<const Word>(write_words_).subspan(
        w.offset, w.length);
    auto& cell = mem_.slot(w.addr);
    cell.insert(cell.end(), words.begin(), words.end());
    if (cfg_.record_detail)
      ph.events.push_back(
          {w.proc, w.addr, words.empty() ? 0 : words.front(), true});
  }

  return detail::publish_phase(trace_, std::move(ph), observer_);
}

std::span<const std::vector<Word>> GsmMachine::inbox(ProcId p) const {
  return inboxes_.of(p);
}

std::span<const Word> GsmMachine::peek(Addr a) const {
  const std::vector<Word>* cell = mem_.find(a);
  if (cell == nullptr) return {};
  return *cell;
}

}  // namespace parbounds
