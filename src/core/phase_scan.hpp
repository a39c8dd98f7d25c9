#pragma once
// Phase accounting over flat scratch buffers, shared by the four engines.
//
// A committing phase needs four aggregates over its request buffers:
// per-processor maxima (m_op, m_rw), per-cell maxima (kappa_r, kappa_w),
// and the queue-rule check that no cell is both read and written. The
// engines used to build four `unordered_map`s per phase for this. Two
// replacements live here:
//
//  * KeyHistogram — multiplicity counting over one request stream: a
//    dense counter array for small keys (processor ids, arena addresses)
//    with an O(touched) reset and a sorted-spill fallback for keys above
//    the dense limit. The counters persist across phases, so a
//    steady-state commit allocates nothing and never pays O(key-space).
//    The aggregates are per-key maxima, so one array per key space
//    computes them exactly in any counting order.
//  * longest_run / sort_max_run_sum / first_common — sorted-run
//    scanning over reusable key buffers, used for the spill path and for
//    weighted local-op accounting. Inputs that arrive sorted (kernels
//    issue in processor order) skip the sort.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace parbounds::detail {

/// Length of the longest run of equal keys in ascending-sorted `keys`
/// (0 when empty). One sorted pass replaces a count-map: the
/// multiplicity of a key is the length of its run.
inline std::uint64_t longest_run(const std::vector<std::uint64_t>& keys) {
  if (keys.empty()) return 0;
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
/// one request carries a weight > 1. Pairs already in key order are left
/// as they are: a run's sum does not depend on the order of its weights.
inline RunSum sort_max_run_sum(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& kv) {
  RunSum out;
  if (kv.empty()) return out;
  if (!std::is_sorted(kv.begin(), kv.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      }))
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

/// Multiplicity counting over one phase's request stream, one instance
/// per key space. Keys below the dense limit are counted in a flat array
/// that grows geometrically to the largest key seen (never beyond the
/// limit); keys at or above it spill into a plain list. Each scan zeroes
/// only the slots the previous scan touched, so the counters persist
/// across phases: a steady-state commit allocates nothing and never pays
/// O(key space), and the aggregates cost O(keys touched).
///
/// Counts are 32-bit: a phase holding 2^32 requests for one key would
/// exceed memory in the request buffers long before the counter wraps.
class KeyHistogram {
 public:
  explicit KeyHistogram(std::uint64_t dense_limit)
      : dense_limit_(dense_limit) {}

  /// Forget the previous scan, then count key(i) for every i in [0, n).
  /// Resetting first means a phase aborted by a violation cannot leak
  /// counts into the next one. The counter array and its extent stay in
  /// locals across the loop (they change only when the array grows), so
  /// a count is one increment plus, for a key new this scan, one append.
  template <class KeyFn>
  void scan(std::uint64_t n, KeyFn&& key) {
    for (const std::uint64_t k : touched_) cnt_[k] = 0;
    touched_.clear();
    spill_.clear();
    spill_sorted_ = false;
    std::uint32_t* cnt = cnt_.data();
    std::uint64_t extent = cnt_.size();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t k = key(i);
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

  /// Largest multiplicity of any key this scan: the dense maximum over
  /// the touched keys and the longest run of the sorted spill.
  std::uint64_t max_run() {
    std::uint32_t m = 0;
    for (const std::uint64_t k : touched_) m = std::max(m, cnt_[k]);
    return std::max<std::uint64_t>(m, longest_run(sorted_spill()));
  }

  /// Smallest key counted by both scans, or nullopt — the read-xor-write
  /// queue-rule clash. "Smallest" keeps the violation deterministic.
  static std::optional<std::uint64_t> min_common(KeyHistogram& reads,
                                                 KeyHistogram& writes) {
    std::optional<std::uint64_t> clash =
        first_common(reads.sorted_spill(), writes.sorted_spill());
    for (const std::uint64_t k : writes.touched_)
      if (reads.count(k) > 0 && (!clash || k < *clash)) clash = k;
    return clash;
  }

 private:
  /// Multiplicity of a dense key this scan (0 for spilled keys).
  std::uint64_t count(std::uint64_t key) const {
    return (key < cnt_.size()) ? cnt_[key] : 0;
  }

  /// The spilled keys, sorted in place once per scan. A stream issued in
  /// key order spills already sorted and skips the sort.
  const std::vector<std::uint64_t>& sorted_spill() {
    if (!spill_sorted_ && !std::is_sorted(spill_.begin(), spill_.end()))
      std::sort(spill_.begin(), spill_.end());
    spill_sorted_ = true;
    return spill_;
  }

  std::uint64_t dense_limit_;
  std::vector<std::uint32_t> cnt_;
  std::vector<std::uint64_t> touched_;  ///< distinct dense keys this scan
  std::vector<std::uint64_t> spill_;    ///< keys >= dense_limit_
  bool spill_sorted_ = false;
};

/// Dense-key bound for processor ids.
inline constexpr std::uint64_t kProcHistogramLimit = std::uint64_t{1} << 20;
/// Dense-key bound for cell addresses (matches the CellStore default).
inline constexpr std::uint64_t kAddrHistogramLimit = std::uint64_t{1} << 22;

}  // namespace parbounds::detail
