#pragma once
// Phase accounting over flat scratch buffers, shared by the four engines.
//
// A committing phase needs four aggregates over its request buffers:
// per-processor maxima (m_op, m_rw), per-cell maxima (kappa_r, kappa_w),
// and the queue-rule check that no cell is both read and written. The
// engines used to build four `unordered_map`s per phase for this. Two
// replacements live here:
//
//  * PhaseScan — multiplicity counting over one request stream, split
//    into a shard count that depends on the phase size alone. Each shard
//    counts into a KeyHistogram: a dense counter array for small keys
//    (processor ids, arena addresses) with an O(touched) reset and a
//    sorted-spill fallback for keys above the dense limit. The counters
//    persist across phases, so a steady-state commit allocates nothing
//    and never pays O(key-space).
//  * sort_max_run / sort_max_run_sum / first_common — sorted-run
//    scanning over reusable key buffers, used for the spill path, for
//    weighted local-op accounting, and for the ascending-address write
//    groups of the QSM Random and CRCW resolution rules.

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "runtime/parallel_for.hpp"

namespace parbounds::detail {

/// Sort `keys` ascending in place and return the length of the longest
/// run of equal keys (0 when empty). One sorted pass replaces a
/// count-map: the multiplicity of a key is the length of its run.
inline std::uint64_t sort_max_run(std::vector<std::uint64_t>& keys) {
  if (keys.empty()) return 0;
  std::sort(keys.begin(), keys.end());
  std::uint64_t best = 0, run = 0;
  std::uint64_t prev = keys.front();
  for (const std::uint64_t k : keys) {
    if (k == prev) {
      ++run;
    } else {
      best = std::max(best, run);
      prev = k;
      run = 1;
    }
  }
  return std::max(best, run);
}

struct RunSum {
  std::uint64_t max_run = 0;  ///< largest per-key weight sum
  std::uint64_t total = 0;    ///< sum of all weights
};

/// Sort (key, weight) pairs by key and return the largest per-key weight
/// sum together with the grand total. Used for local-op accounting where
/// one request carries a weight > 1.
inline RunSum sort_max_run_sum(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& kv) {
  RunSum out;
  if (kv.empty()) return out;
  std::sort(kv.begin(), kv.end());
  std::uint64_t prev = kv.front().first;
  std::uint64_t run = 0;
  for (const auto& [k, w] : kv) {
    if (k != prev) {
      out.max_run = std::max(out.max_run, run);
      prev = k;
      run = 0;
    }
    run += w;
    out.total += w;
  }
  out.max_run = std::max(out.max_run, run);
  return out;
}

/// First value present in both ascending-sorted vectors, or nullopt.
/// Replaces the map-membership probe in the read-xor-write queue rule;
/// "first" means smallest, which makes the violation deterministic.
inline std::optional<std::uint64_t> first_common(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j])
      ++i;
    else if (b[j] < a[i])
      ++j;
    else
      return a[i];
  }
  return std::nullopt;
}

/// Reusable multiplicity counter over integer keys. Keys below the dense
/// limit are counted in a flat array that grows geometrically to the
/// largest key seen (never beyond the limit); keys at or above it spill
/// into a plain list. reset() zeroes only the slots the previous round
/// touched.
///
/// Counts are 32-bit: a phase holding 2^32 requests for one key would
/// exceed memory in the request buffers long before the counter wraps.
class KeyHistogram {
 public:
  explicit KeyHistogram(std::uint64_t dense_limit)
      : dense_limit_(dense_limit) {}

  /// Count key(i) for every i in [lo, hi). The counter array and its
  /// extent stay in locals across the loop (they change only when the
  /// array grows), so an add is one increment plus, for a key new this
  /// round, one append.
  template <class KeyFn>
  void add_range(std::uint64_t lo, std::uint64_t hi, KeyFn&& key) {
    std::uint32_t* cnt = cnt_.data();
    std::uint64_t extent = cnt_.size();
    for (; lo < hi; ++lo) {
      const std::uint64_t k = key(lo);
      // The array never outgrows the dense limit, so one bounds check
      // covers both growth and spilling.
      if (k >= extent) [[unlikely]] {
        if (k >= dense_limit_) {
          spill_.push_back(k);
          continue;
        }
        cnt_.resize(std::min(std::max(k + 1, extent * 2), dense_limit_));
        cnt = cnt_.data();
        extent = cnt_.size();
      }
      if (cnt[k]++ == 0) touched_.push_back(k);
    }
  }

  /// Multiplicity of a dense key so far this round (always 0 for spilled
  /// keys — those are in spill()).
  std::uint64_t count(std::uint64_t key) const {
    return (key < cnt_.size()) ? cnt_[key] : 0;
  }

  /// Extent of the dense counter array (largest key counted is below
  /// this). Lets PhaseScan bound its key-range aggregation passes.
  std::uint64_t dense_size() const { return cnt_.size(); }

  /// Distinct dense keys counted this round, in first-seen order.
  const std::vector<std::uint64_t>& touched() const { return touched_; }

  /// Max multiplicity over the dense keys counted this round, in
  /// O(distinct keys).
  std::uint64_t dense_max() const {
    std::uint32_t m = 0;
    for (const std::uint64_t k : touched_) m = std::max(m, cnt_[k]);
    return m;
  }

  /// Spilled (>= dense_limit) keys, in the order counted.
  const std::vector<std::uint64_t>& spill() const { return spill_; }

  /// Forget this round: zero the touched dense slots, drop the spill.
  /// Cost is O(distinct keys added), independent of the key space.
  void reset() {
    for (const std::uint64_t k : touched_) cnt_[k] = 0;
    touched_.clear();
    spill_.clear();
  }

 private:
  std::uint64_t dense_limit_;
  std::vector<std::uint32_t> cnt_;
  std::vector<std::uint64_t> touched_;
  std::vector<std::uint64_t> spill_;
};

/// Dense-key bound for processor ids (matches InboxTable::kDenseLimit).
inline constexpr std::uint64_t kProcHistogramLimit = std::uint64_t{1} << 20;
/// Dense-key bound for cell addresses (matches the CellStore default).
inline constexpr std::uint64_t kAddrHistogramLimit = std::uint64_t{1} << 22;

/// Shard count of every multi-shard commit scan. A fixed constant (not
/// a thread-count function) so the request-slice boundaries — and with
/// them every per-shard histogram — are identical in every pool
/// configuration.
inline constexpr unsigned kCommitShards = 8;

/// Request-count floor at which a commit scan splits into kCommitShards
/// shards; below it the scan is one inline histogram pass. Mutable so
/// tests and the bench_hotpath oracle can force either shard count;
/// written only between runs, never during a commit.
inline std::uint64_t& commit_shard_min_requests() {
  static std::uint64_t v = std::uint64_t{1} << 16;
  return v;
}

/// Shard count for a phase of `requests` requests: 1 below
/// commit_shard_min_requests(), kCommitShards at or above it — a pure
/// function of the phase size, never of the thread count (with one
/// thread the shards execute inline over the same boundaries).
inline unsigned commit_shard_count(std::uint64_t requests) {
  return requests >= commit_shard_min_requests() ? kCommitShards : 1;
}

/// Multiplicity counting over one request stream. scan() slices the
/// request index range [0, n) into `shards` fixed slices and counts
/// each into a private KeyHistogram; the aggregates then merge the
/// shards with commutative operations only —
///
///   * per-key totals are the SUM of the per-shard counts (addition is
///     commutative, so the total never depends on which worker counted
///     which slice);
///   * max_run() is the MAX over keys of those sums (dense keys via a
///     key-range partitioned parallel pass, spilled keys via the sorted
///     concatenation of the per-shard spill vectors);
///   * min_common() is the MIN key counted by both of two scans (the
///     queue-rule clash), again over summed counts.
///
/// Every aggregate is therefore independent of the shard count and of
/// the thread count. A one-shard scan runs inline — no pool dispatch,
/// no span — and its aggregates cost O(keys touched), so a small phase
/// pays what a single histogram pass costs.
class PhaseScan {
 public:
  explicit PhaseScan(std::uint64_t dense_limit) : dense_limit_(dense_limit) {}

  /// Count key(i) for every i in [0, n) over `shards` histograms. KeyFn
  /// must be safe to call concurrently (a pure read of the request
  /// buffers). reset() leads each scan, so a phase aborted by a
  /// violation cannot leak counts into the next one.
  template <class KeyFn>
  void scan(unsigned shards, std::uint64_t n, KeyFn&& key) {
    if (shards_.size() < shards)
      shards_.resize(shards, KeyHistogram(dense_limit_));
    for (KeyHistogram& h : used()) h.reset();
    used_ = shards;
    spill_sorted_ = false;
    if (shards == 1) {
      shards_.front().add_range(0, n, key);
      return;
    }
    runtime::ParallelFor::pool().for_shards(
        n, shards, [&](unsigned s, std::uint64_t lo, std::uint64_t hi) {
          obs::Span span(obs::process_tracer(), "commit.shard", s);
          shards_[s].add_range(lo, hi, key);
        });
  }

  /// Max over all keys of the summed multiplicity. Several shards take
  /// one key-range partitioned parallel pass over the dense arrays
  /// (partition bounds derive from the data extent, not the thread
  /// count); every scan adds a sorted pass over the spilled keys.
  std::uint64_t max_run() {
    std::uint64_t best = 0;
    if (used_ == 1) {
      best = shards_.front().dense_max();
    } else if (const std::uint64_t extent = dense_extent(); extent > 0) {
      const unsigned parts = runtime::ParallelFor::shard_count(
          extent, std::uint64_t{1} << 15, kCommitShards);
      std::array<std::uint64_t, kCommitShards> part_max{};
      runtime::ParallelFor::pool().for_shards(
          extent, parts, [&](unsigned s, std::uint64_t lo, std::uint64_t hi) {
            std::uint64_t m = 0;
            for (std::uint64_t k = lo; k < hi; ++k) {
              std::uint64_t tot = 0;
              for (const KeyHistogram& h : used()) tot += h.count(k);
              m = std::max(m, tot);
            }
            part_max[s] = m;
          });
      for (unsigned s = 0; s < parts; ++s) best = std::max(best, part_max[s]);
    }
    return std::max(best, sort_max_run(sorted_spill()));
  }

  /// Smallest key counted by both scans, or nullopt — the read-xor-write
  /// queue-rule clash. "Smallest" keeps the violation deterministic.
  static std::optional<std::uint64_t> min_common(PhaseScan& reads,
                                                 PhaseScan& writes) {
    std::optional<std::uint64_t> clash;
    if (reads.used_ == 1 && writes.used_ == 1) {
      const KeyHistogram& r = reads.shards_.front();
      for (const std::uint64_t k : writes.shards_.front().touched())
        if (r.count(k) > 0 && (!clash || k < *clash)) clash = k;
    } else if (const std::uint64_t extent = std::min(reads.dense_extent(),
                                                     writes.dense_extent());
               extent > 0) {
      const unsigned parts = runtime::ParallelFor::shard_count(
          extent, std::uint64_t{1} << 15, kCommitShards);
      std::array<std::optional<std::uint64_t>, kCommitShards> part_min{};
      runtime::ParallelFor::pool().for_shards(
          extent, parts, [&](unsigned s, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t k = lo; k < hi; ++k) {
              std::uint64_t r = 0, w = 0;
              for (const KeyHistogram& h : reads.used()) r += h.count(k);
              if (r == 0) continue;
              for (const KeyHistogram& h : writes.used()) w += h.count(k);
              if (w == 0) continue;
              part_min[s] = k;  // first hit in an ascending range = min
              return;
            }
          });
      for (unsigned s = 0; s < parts; ++s)
        if (part_min[s] && (!clash || *part_min[s] < *clash))
          clash = part_min[s];
    }
    if (const auto sp =
            first_common(reads.sorted_spill(), writes.sorted_spill()))
      if (!clash || *sp < *clash) clash = *sp;
    return clash;
  }

  /// Upper bound (exclusive) on the dense keys counted this round.
  std::uint64_t dense_extent() const {
    std::uint64_t e = 0;
    for (const KeyHistogram& h : used()) e = std::max(e, h.dense_size());
    return e;
  }

  /// True when every key this round was dense — the precondition the
  /// engines need before key-range-partitioning a parallel apply pass.
  bool all_dense() const {
    for (const KeyHistogram& h : used())
      if (!h.spill().empty()) return false;
    return true;
  }

 private:
  std::span<KeyHistogram> used() { return {shards_.data(), used_}; }
  std::span<const KeyHistogram> used() const {
    return {shards_.data(), used_};
  }

  /// The spilled keys of every shard, concatenated and sorted once per
  /// scan.
  std::vector<std::uint64_t>& sorted_spill() {
    if (!spill_sorted_) {
      spill_all_.clear();
      for (const KeyHistogram& h : used())
        spill_all_.insert(spill_all_.end(), h.spill().begin(),
                          h.spill().end());
      std::sort(spill_all_.begin(), spill_all_.end());
      spill_sorted_ = true;
    }
    return spill_all_;
  }

  std::uint64_t dense_limit_;
  std::vector<KeyHistogram> shards_;
  unsigned used_ = 0;  ///< shards of the current scan (0 before the first)
  std::vector<std::uint64_t> spill_all_;
  bool spill_sorted_ = false;
};

}  // namespace parbounds::detail
