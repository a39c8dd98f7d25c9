#include "core/bsp.hpp"

#include <algorithm>

#include "core/commit_tail.hpp"

namespace parbounds {

BspMachine::BspMachine(BspConfig cfg) : cfg_(cfg) {
  if (cfg_.p == 0) throw std::invalid_argument("BSP needs p >= 1");
  if (cfg_.g == 0) throw std::invalid_argument("BSP needs g >= 1");
  if (cfg_.L < cfg_.g)
    throw std::invalid_argument("paper assumes L >= g throughout");
  trace_.kind = ExecutionTrace::Kind::Bsp;
  trace_.g = cfg_.g;
  trace_.L = cfg_.L;
  inboxes_.resize(cfg_.p);
  work_cnt_.assign(cfg_.p, 0);
}

void BspMachine::begin_superstep() {
  if (in_step_) throw ModelViolation("begin_superstep inside open superstep");
  in_step_ = true;
  sends_.clear();
  locals_.clear();
}

void BspMachine::send(ProcId src, ProcId dst, Word value, Word tag) {
  if (!in_step_) throw ModelViolation("send outside a superstep");
  if (src >= cfg_.p || dst >= cfg_.p)
    throw ModelViolation("send endpoint out of range");
  sends_.push_back({src, dst, Message{src, value, tag}});
}

void BspMachine::local(ProcId proc, std::uint64_t ops) {
  if (!in_step_) throw ModelViolation("local outside a superstep");
  if (proc >= cfg_.p) throw ModelViolation("processor id out of range");
  locals_.push_back({proc, ops});
}

const PhaseTrace& BspMachine::commit_superstep() {
  if (!in_step_) throw ModelViolation("commit without begin_superstep");
  in_step_ = false;

  PhaseTrace ph;
  PhaseStats& st = ph.stats;

  // Per-processor send and receive counts (endpoints are range-checked
  // at issue time); h is the larger of the two maxima.
  src_.scan(sends_.size(), [this](std::uint64_t i) { return sends_[i].src; });
  dst_.scan(sends_.size(), [this](std::uint64_t i) { return sends_[i].dst; });
  const std::uint64_t fan_in = dst_.max_run();
  const std::uint64_t h = std::max(src_.max_run(), fan_in);
  for (const auto& [proc, ops] : locals_) {
    work_cnt_[proc] += ops;
    st.m_op = std::max(st.m_op, work_cnt_[proc]);
    st.ops += ops;
  }
  for (const auto& [proc, ops] : locals_) work_cnt_[proc] = 0;
  ph.h = h;

  // Record the h-relation in the shared PhaseStats fields so the Claim 2.1
  // replayer can treat a superstep like a phase: sends look like writes,
  // receives like reads, and per-destination fan-in is the contention.
  st.m_rw = std::max<std::uint64_t>(1, h);
  st.reads = sends_.size();
  st.writes = sends_.size();
  st.kappa_r = std::max<std::uint64_t>(1, fan_in);
  st.kappa_w = st.kappa_r;

  ph.cost = std::max({st.m_op, cfg_.g * h, cfg_.L});
  time_ += ph.cost;

  // Deliver: each destination's box receives its messages in issue
  // order.
  for (auto& box : inboxes_) box.clear();
  for (const auto& s : sends_) {
    inboxes_[s.dst].push_back(s.msg);
    if (cfg_.record_detail)
      ph.events.push_back({s.src, s.dst, s.msg.value, true});
  }

  return detail::publish_phase(trace_, std::move(ph), observer_);
}

std::span<const Message> BspMachine::inbox(ProcId proc) const {
  return inboxes_.at(proc);
}

std::pair<std::uint64_t, std::uint64_t> BspMachine::block_range(
    std::uint64_t n, std::uint64_t p, std::uint64_t i) {
  // First (n mod p) components receive ceil(n/p), the rest floor(n/p).
  const std::uint64_t q = n / p;
  const std::uint64_t r = n % p;
  const std::uint64_t lo = i * q + std::min(i, r);
  const std::uint64_t hi = lo + q + (i < r ? 1 : 0);
  return {lo, hi};
}

}  // namespace parbounds
