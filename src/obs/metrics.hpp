#pragma once
// MetricsRegistry — lock-free-on-the-hot-path process metrics.
//
// Every measured number in parbounds flows through simulated phase
// commits and runner trials; this registry is how those hot loops
// expose where model cost and work go without perturbing what they
// measure. Three metric kinds:
//
//   counter    — monotone sum (add);
//   gauge      — high-water mark (record_max). Gauges are maxima, not
//                last-write-wins, so their merged value is independent
//                of thread scheduling;
//   histogram  — fixed upper-bound buckets plus an overflow bucket
//                (observe). Bounds are set at registration and never
//                change.
//
// Concurrency model: each thread writes its own shard — a flat array of
// relaxed atomics allocated on the thread's first touch of the registry
// — so the hot path is one cached shard lookup plus one relaxed
// fetch_add. The lookup is the thread's ThreadCache (thread_cache.hpp),
// which drops the entries of destroyed registries, so a thread that
// works through many short-lived registries scans only the live ones.
// snapshot() walks all shards under the registry mutex and
// merges (sum for counters and histogram buckets, max for gauges).
// Because every merge operator is commutative and associative, metric
// values derived from deterministic per-trial work are bit-identical at
// any worker count — the same discipline the ExperimentRunner applies
// to results (docs/OBSERVABILITY.md).
//
// Registration freezes at the first add/observe: shards are sized to
// the slot count at creation and never grow, which is what lets
// snapshot() read them while other threads keep writing. Register every
// metric up front (TelemetryObserver does this in its constructor);
// registering after instrumentation has begun throws std::logic_error.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/thread_cache.hpp"

namespace parbounds::obs {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

const char* metric_kind_name(MetricKind k);

/// One merged metric in a snapshot, in registration order.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t value = 0;  ///< counter sum or gauge max
  std::vector<std::uint64_t> bounds;  ///< histogram upper bounds
  std::vector<std::uint64_t> counts;  ///< bounds.size()+1 buckets (last = overflow)

  std::uint64_t total() const;  ///< histogram: sum over buckets
};

/// Point-in-time merge of every shard. Values are exact (no sampling).
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* find(const std::string& name) const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{"bounds":[...],
  /// "counts":[...],"total":N}}} — keys in registration order, so two
  /// snapshots of identical instrumentation serialize identically.
  std::string to_json() const;

  /// Aligned human-readable listing; all-zero metrics are skipped unless
  /// include_zero is set.
  std::string to_text(bool include_zero = false) const;

  /// Fold `other` into this snapshot with the registry's own merge
  /// operators: counters and histogram buckets sum, gauges take the max.
  /// Both snapshots must come from identically-registered registries —
  /// same names, kinds and bounds in the same order — or this throws
  /// std::logic_error. Because every operator is commutative and
  /// associative, merging per-worker snapshots in any grouping yields
  /// the bytes a single cumulative registry would have produced; this
  /// is what lets the sweep fleet (docs/SERVICE.md) reassemble one
  /// metrics block from partial reports.
  void merge_from(const MetricsSnapshot& other);
};

class MetricsRegistry {
 public:
  using Id = std::uint32_t;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ----- registration (before any instrumentation; throws once frozen) ----
  Id counter(std::string name);
  Id gauge(std::string name);
  /// `bounds` are ascending inclusive upper bounds; values above the last
  /// bound land in the overflow bucket.
  Id histogram(std::string name, std::vector<std::uint64_t> bounds);

  /// Ascending powers of two [2^lo, 2^hi] — the standard cost/contention
  /// bucketing used by TelemetryObserver.
  static std::vector<std::uint64_t> pow2_bounds(unsigned lo, unsigned hi);

  // ----- hot path ---------------------------------------------------------
  void add(Id id, std::uint64_t delta = 1);
  void record_max(Id id, std::uint64_t v);
  void observe(Id id, std::uint64_t v);

  // ----- read side --------------------------------------------------------
  MetricsSnapshot snapshot() const;
  std::size_t size() const;  ///< registered metric count

 private:
  struct Desc {
    std::string name;
    MetricKind kind;
    std::uint32_t first_slot;
    std::vector<std::uint64_t> bounds;  // histograms only
  };
  struct Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
    std::uint32_t size = 0;
  };

  /// The calling thread's shard (thread-local cached; created — and the
  /// registry frozen — on first use).
  std::atomic<std::uint64_t>* shard_slots();
  Id register_metric(std::string name, MetricKind kind,
                     std::vector<std::uint64_t> bounds);

  mutable std::mutex mu_;
  std::vector<Desc> descs_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint32_t slot_count_ = 0;
  bool frozen_ = false;
  detail::OwnerKey key_;  ///< this registry in every thread's shard cache
};

namespace detail {
/// Entries in the calling thread's shard cache (a probe for tests).
std::size_t thread_shard_cache_size();
}  // namespace detail

}  // namespace parbounds::obs
