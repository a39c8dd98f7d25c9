#pragma once
// Hot-path storage for the phase-commit engines (QSM / GSM / CRCW).
//
// Two containers replace the per-phase `unordered_map` churn that used to
// dominate commit_phase profiles:
//
//  * CellStore<Cell> — shared memory with a flat-arena fast path. The
//    engines allocate addresses from 0 upward (`alloc`), so in practice
//    every hot cell lives in a dense low range: those cells are a direct
//    vector index (one load, no hashing). Addresses at or above
//    `dense_limit` fall back to a hash map, so the sparse unbounded
//    address space of the model is still honoured. A `dense_limit` of 0
//    turns the arena off entirely — the map-only reference configuration
//    the equivalence tests compare against.
//
//  * FlatInbox<Value> — the values one phase's reads delivered, as one
//    flat array grouped by reader (CSR form), rebuilt at every commit in
//    two linear passes: count and rank, then fill. There is no
//    per-processor box and no per-phase clear; `of(p)` is O(1) through a
//    sparse-set slot index whose size is bounded by the phase's reads,
//    not by the processor id range (ids beyond it: a binary search).
//
// CellStore preserves the observable "present vs absent" semantics of
// the map it replaces: a cell that was never stored reports absent
// (reads deliver the model's default contents), and `for_each` visits
// exactly the cells that were ever materialised — the GSM time-0
// snapshot and the trace analysis depend on that. A reader with no
// reads in the last phase gets an empty FlatInbox span.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/trace.hpp"

namespace parbounds {

template <class Cell>
class CellStore {
 public:
  /// Default span of the dense arena: 4M cells. Growth below the limit
  /// is lazy and geometric, so a machine only pays for the address range
  /// it actually touches.
  static constexpr std::uint64_t kDefaultDenseLimit = std::uint64_t{1} << 22;

  explicit CellStore(std::uint64_t dense_limit = kDefaultDenseLimit)
      : dense_limit_(dense_limit) {}

  /// Read-only lookup; nullptr when the cell was never stored.
  const Cell* find(Addr a) const {
    if (a < dense_limit_) {
      const auto i = static_cast<std::size_t>(a);
      return (i < dense_.size() && present_[i] != 0) ? &dense_[i] : nullptr;
    }
    const auto it = sparse_.find(a);
    return it == sparse_.end() ? nullptr : &it->second;
  }

  bool contains(Addr a) const { return find(a) != nullptr; }

  /// Mutable slot, creating (and marking present) the cell.
  Cell& slot(Addr a) {
    if (a < dense_limit_) {
      const auto i = static_cast<std::size_t>(a);
      if (i >= dense_.size()) grow(i + 1);
      present_[i] = 1;
      return dense_[i];
    }
    return sparse_[a];
  }

  /// Visit every stored cell as f(addr, cell). Dense cells first in
  /// ascending address order, then sparse cells in unspecified order —
  /// callers that need a canonical order sort, exactly as they did with
  /// the map this store replaced.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < dense_.size(); ++i)
      if (present_[i] != 0) f(static_cast<Addr>(i), dense_[i]);
    // DETLINT(det.unordered-iter): order documented unspecified; callers sort
    for (const auto& [a, c] : sparse_) f(a, c);
  }

  std::uint64_t dense_limit() const { return dense_limit_; }

 private:
  void grow(std::size_t need) {
    std::size_t next = std::max<std::size_t>(need, dense_.size() * 2);
    next = std::min<std::size_t>(next,
                                 static_cast<std::size_t>(dense_limit_));
    dense_.resize(next);
    present_.resize(next, 0);
  }

  std::uint64_t dense_limit_;
  std::vector<Cell> dense_;
  std::vector<std::uint8_t> present_;
  std::unordered_map<Addr, Cell> sparse_;
};

/// One phase's delivered read values, grouped by reader. index() is the
/// count pass: it groups the reads by reader and ranks each read within
/// its group, so fill() can store each value straight into its slot.
/// of(p) is then reader p's values, contiguous and in issue order.
///
/// A reader id below the slot index's span finds its group through a
/// sparse set: slot_[p] is trusted only when it points back at p
/// (readers_[slot_[p]] == p), so stale entries from earlier phases need
/// no clearing. Ids at or above the span are grouped by a sort and found
/// by binary search. Read indices and offsets are 32-bit: a phase of
/// 2^32 reads would exhaust memory in the request buffers first.
template <class Value>
class FlatInbox {
 public:
  /// The slot index covers reader ids below min(largest id + 1,
  /// kIndexPerRead * reads) of the largest phase so far.
  static constexpr std::uint64_t kIndexPerRead = 4;

  /// Pass one over the reads [0, n): group them by reader(i) and rank
  /// each within its group in issue order. Ids beyond the slot index
  /// are grouped by sorting (reader, read) pairs; the sort is skipped
  /// when they already arrive in id order.
  template <class ReaderFn>
  void index(std::uint64_t n, ReaderFn&& reader) {
    std::uint64_t top = 0;
    for (std::uint64_t i = 0; i < n; ++i) top = std::max(top, reader(i));
    const std::uint64_t span = std::min(top + 1, kIndexPerRead * n);
    if (span > slot_.size()) resize_exact(slot_, span);
    resize_exact(rank_, n);
    readers_.clear();
    readers_.reserve(n);
    start_.clear();
    start_.reserve(n + 1);
    start_.push_back(0);
    spill_.clear();

    // start_[s + 1] counts group s until the prefix sum below.
    const auto open_group = [this](ProcId p) {
      readers_.push_back(p);
      start_.push_back(0);
      return static_cast<std::uint32_t>(readers_.size() - 1);
    };
    const std::uint64_t cover = slot_.size();
    for (std::uint64_t i = 0; i < n; ++i) {
      const ProcId p = reader(i);
      if (p >= cover) {
        spill_.push_back({p, i});
        continue;
      }
      std::uint32_t s = slot_[p];
      if (s >= readers_.size() || readers_[s] != p)
        slot_[p] = s = open_group(p);
      rank_[i] = start_[s + 1]++;
    }
    indexed_ = readers_.size();
    if (!std::is_sorted(spill_.begin(), spill_.end()))
      std::sort(spill_.begin(), spill_.end());
    for (const auto& [p, i] : spill_) {
      if (readers_.size() == indexed_ || readers_.back() != p) open_group(p);
      rank_[i] = start_.back()++;
    }
    for (std::size_t s = 1; s < start_.size(); ++s) start_[s] += start_[s - 1];
    resize_exact(values_, n);
  }

  /// Pass two over the reads of the indexed phase, with the same
  /// reader(i): fill(i, slot) stores read i's value.
  template <class ReaderFn, class FillFn>
  void fill(ReaderFn&& reader, FillFn&& fill) {
    for (std::uint64_t i = 0; i < values_.size(); ++i)
      fill(i, values_[start_[group(reader(i))] + rank_[i]]);
  }

  /// Values delivered to reader p, in issue order; empty when p read
  /// nothing in the last indexed phase.
  std::span<const Value> of(ProcId p) const {
    const std::size_t s = group(p);
    if (s == kAbsent) return {};
    return {values_.data() + start_[s], start_[s + 1] - start_[s]};
  }

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  std::size_t group(ProcId p) const {
    if (p < slot_.size()) {
      const std::size_t s = slot_[p];
      return (s < indexed_ && readers_[s] == p) ? s : kAbsent;
    }
    const auto first =
        readers_.begin() + static_cast<std::ptrdiff_t>(indexed_);
    const auto it = std::lower_bound(first, readers_.end(), p);
    return (it != readers_.end() && *it == p)
               ? static_cast<std::size_t>(it - readers_.begin())
               : kAbsent;
  }

  /// Resize to n elements, allocating exactly n when the vector must
  /// grow. Every buffer is rebuilt from scratch, so a reallocation drops
  /// the old contents instead of copying them, and a fresh machine does
  /// not pay for geometric growth.
  template <class T>
  static void resize_exact(std::vector<T>& v, std::size_t n) {
    if (n > v.capacity()) {
      v.clear();
      v.reserve(n);
    }
    v.resize(n);
  }

  std::vector<std::uint32_t> slot_;   ///< sparse-set index: reader -> group
  std::vector<ProcId> readers_;       ///< group -> reader (spilled: sorted)
  std::size_t indexed_ = 0;           ///< groups reached through slot_
  std::vector<std::uint32_t> start_;  ///< group s is [start_[s], start_[s+1])
  std::vector<std::uint32_t> rank_;   ///< read -> place within its group
  std::vector<std::pair<ProcId, std::uint64_t>> spill_;  ///< (reader, read)
  std::vector<Value> values_;
};

}  // namespace parbounds
