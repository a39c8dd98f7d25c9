#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace parbounds::obs {

namespace {

/// The calling thread's shards, keyed by registry (thread_cache.hpp).
thread_local detail::ThreadCache t_shards;

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

std::uint64_t MetricValue::total() const {
  std::uint64_t t = 0;
  for (const std::uint64_t c : counts) t += c;
  return t;
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  for (const auto& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{";
  for (const MetricKind kind :
       {MetricKind::Counter, MetricKind::Gauge, MetricKind::Histogram}) {
    if (kind != MetricKind::Counter) out += ',';
    out += '"';
    out += metric_kind_name(kind);
    out += "s\":{";
    bool first = true;
    for (const auto& m : metrics) {
      if (m.kind != kind) continue;
      if (!first) out += ',';
      first = false;
      out += '"' + m.name + "\":";
      if (kind == MetricKind::Histogram) {
        out += "{\"bounds\":[";
        for (std::size_t i = 0; i < m.bounds.size(); ++i) {
          if (i > 0) out += ',';
          out += u64(m.bounds[i]);
        }
        out += "],\"counts\":[";
        for (std::size_t i = 0; i < m.counts.size(); ++i) {
          if (i > 0) out += ',';
          out += u64(m.counts[i]);
        }
        out += "],\"total\":" + u64(m.total()) + "}";
      } else {
        out += u64(m.value);
      }
    }
    out += '}';
  }
  out += '}';
  return out;
}

std::string MetricsSnapshot::to_text(bool include_zero) const {
  std::string out;
  std::size_t width = 0;
  for (const auto& m : metrics) width = std::max(width, m.name.size());
  for (const auto& m : metrics) {
    const bool zero = (m.kind == MetricKind::Histogram) ? m.total() == 0
                                                        : m.value == 0;
    if (zero && !include_zero) continue;
    out += m.name;
    out.append(width - m.name.size() + 2, ' ');
    if (m.kind == MetricKind::Histogram) {
      out += "total=";
      out += u64(m.total());
      for (std::size_t i = 0; i < m.counts.size(); ++i) {
        if (m.counts[i] == 0) continue;
        if (i < m.bounds.size()) {
          out += "  <=";
          out += u64(m.bounds[i]);
        } else {
          out += "  >last";
        }
        out += ':';
        out += u64(m.counts[i]);
      }
    } else {
      out += u64(m.value);
      if (m.kind == MetricKind::Gauge) out += "  (max)";
    }
    out += '\n';
  }
  return out;
}

void MetricsSnapshot::merge_from(const MetricsSnapshot& other) {
  if (metrics.size() != other.metrics.size())
    throw std::logic_error(
        "MetricsSnapshot::merge_from: metric count mismatch (" +
        std::to_string(metrics.size()) + " vs " +
        std::to_string(other.metrics.size()) + ")");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    MetricValue& m = metrics[i];
    const MetricValue& o = other.metrics[i];
    if (m.name != o.name || m.kind != o.kind || m.bounds != o.bounds)
      throw std::logic_error(
          "MetricsSnapshot::merge_from: schema mismatch at \"" + m.name +
          "\" vs \"" + o.name + "\"");
    switch (m.kind) {
      case MetricKind::Counter:
        m.value += o.value;
        break;
      case MetricKind::Gauge:
        m.value = std::max(m.value, o.value);
        break;
      case MetricKind::Histogram:
        if (m.counts.size() != o.counts.size())
          throw std::logic_error(
              "MetricsSnapshot::merge_from: bucket count mismatch at \"" +
              m.name + "\"");
        for (std::size_t b = 0; b < m.counts.size(); ++b)
          m.counts[b] += o.counts[b];
        break;
    }
  }
}

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Id MetricsRegistry::register_metric(
    std::string name, MetricKind kind, std::vector<std::uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (frozen_)
    throw std::logic_error(
        "MetricsRegistry: cannot register \"" + name +
        "\" after instrumentation has begun (register all metrics up front)");
  for (const auto& d : descs_)
    if (d.name == name)
      throw std::logic_error("MetricsRegistry: duplicate metric \"" + name +
                             "\"");
  const Id id = static_cast<Id>(descs_.size());
  const auto slots =
      (kind == MetricKind::Histogram)
          ? static_cast<std::uint32_t>(bounds.size() + 1)
          : std::uint32_t{1};
  descs_.push_back({std::move(name), kind, slot_count_, std::move(bounds)});
  slot_count_ += slots;
  return id;
}

MetricsRegistry::Id MetricsRegistry::counter(std::string name) {
  return register_metric(std::move(name), MetricKind::Counter, {});
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string name) {
  return register_metric(std::move(name), MetricKind::Gauge, {});
}

MetricsRegistry::Id MetricsRegistry::histogram(
    std::string name, std::vector<std::uint64_t> bounds) {
  if (bounds.empty())
    throw std::invalid_argument("MetricsRegistry: histogram \"" + name +
                                "\" needs at least one bound");
  if (!std::is_sorted(bounds.begin(), bounds.end()))
    throw std::invalid_argument("MetricsRegistry: histogram \"" + name +
                                "\" bounds must ascend");
  return register_metric(std::move(name), MetricKind::Histogram,
                         std::move(bounds));
}

std::vector<std::uint64_t> MetricsRegistry::pow2_bounds(unsigned lo,
                                                        unsigned hi) {
  std::vector<std::uint64_t> b;
  for (unsigned e = lo; e <= hi; ++e) b.push_back(std::uint64_t{1} << e);
  return b;
}

std::atomic<std::uint64_t>* MetricsRegistry::shard_slots() {
  if (void* hit = t_shards.find(key_))
    return static_cast<std::atomic<std::uint64_t>*>(hit);
  std::lock_guard<std::mutex> lock(mu_);
  frozen_ = true;
  auto shard = std::make_unique<Shard>();
  shard->size = slot_count_;
  shard->slots = std::make_unique<std::atomic<std::uint64_t>[]>(slot_count_);
  for (std::uint32_t i = 0; i < slot_count_; ++i)
    shard->slots[i].store(0, std::memory_order_relaxed);
  std::atomic<std::uint64_t>* slots = shard->slots.get();
  shards_.push_back(std::move(shard));
  t_shards.insert(key_, slots);
  return slots;
}

void MetricsRegistry::add(Id id, std::uint64_t delta) {
  std::atomic<std::uint64_t>* slots = shard_slots();
  slots[descs_[id].first_slot].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::record_max(Id id, std::uint64_t v) {
  // Only the owning thread writes its shard, so a plain load/store pair
  // (no CAS loop) keeps the per-thread maximum.
  std::atomic<std::uint64_t>* slots = shard_slots();
  std::atomic<std::uint64_t>& s = slots[descs_[id].first_slot];
  if (v > s.load(std::memory_order_relaxed))
    s.store(v, std::memory_order_relaxed);
}

void MetricsRegistry::observe(Id id, std::uint64_t v) {
  std::atomic<std::uint64_t>* slots = shard_slots();
  const Desc& d = descs_[id];
  const auto it = std::lower_bound(d.bounds.begin(), d.bounds.end(), v);
  const auto bucket =
      static_cast<std::uint32_t>(it - d.bounds.begin());  // overflow = last
  slots[d.first_slot + bucket].fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.metrics.reserve(descs_.size());
  for (const auto& d : descs_) {
    MetricValue m;
    m.name = d.name;
    m.kind = d.kind;
    m.bounds = d.bounds;
    if (d.kind == MetricKind::Histogram) {
      m.counts.assign(d.bounds.size() + 1, 0);
      for (const auto& sh : shards_)
        for (std::size_t b = 0; b < m.counts.size(); ++b)
          m.counts[b] += sh->slots[d.first_slot + b].load(
              std::memory_order_relaxed);
    } else {
      for (const auto& sh : shards_) {
        const std::uint64_t v =
            sh->slots[d.first_slot].load(std::memory_order_relaxed);
        if (d.kind == MetricKind::Counter)
          m.value += v;
        else
          m.value = std::max(m.value, v);
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return descs_.size();
}

std::size_t detail::thread_shard_cache_size() { return t_shards.size(); }

}  // namespace parbounds::obs
