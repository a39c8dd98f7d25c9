#include "obs/span.hpp"

#include <chrono>

namespace parbounds::obs {

namespace {

/// The calling thread's buffers, keyed by tracer (thread_cache.hpp).
thread_local detail::ThreadCache t_buffers;

std::atomic<Tracer*> g_process_tracer{nullptr};

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Tracer::Tracer(std::size_t capacity_per_thread)
    : capacity_(capacity_per_thread < 4 ? 4 : capacity_per_thread),
      epoch_ns_(steady_ns()) {}

Tracer::~Tracer() = default;

std::uint64_t Tracer::now() const { return steady_ns() - epoch_ns_; }

Tracer::Buffer& Tracer::buffer() {
  if (void* hit = t_buffers.find(key_)) return *static_cast<Buffer*>(hit);
  std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<Buffer>();
  buf->events.resize(capacity_);
  buf->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
  Buffer* raw = buf.get();
  buffers_.push_back(std::move(buf));
  t_buffers.insert(key_, raw);
  return *raw;
}

bool Tracer::begin(const char* name, std::uint64_t arg, bool has_arg) {
  Buffer& b = buffer();
  const std::size_t n = b.count.load(std::memory_order_relaxed);
  // Accept only if there is room for this 'B', its own 'E', and the 'E'
  // of every span already open in this buffer — so an accepted begin can
  // always write its end and the stream never holds an unmatched 'B'.
  if (n + b.open + 2 > capacity_) {
    b.dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  b.events[n] = {name, now(), arg, 'B', has_arg};
  b.count.store(n + 1, std::memory_order_release);
  ++b.open;
  return true;
}

void Tracer::end(const char* name) {
  Buffer& b = buffer();
  const std::size_t n = b.count.load(std::memory_order_relaxed);
  b.events[n] = {name, now(), 0, 'E', false};
  b.count.store(n + 1, std::memory_order_release);
  --b.open;
}

std::vector<Tracer::BufferView> Tracer::buffers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BufferView> views;
  views.reserve(buffers_.size());
  for (const auto& b : buffers_) {
    BufferView v;
    v.tid = b->tid;
    v.events = b->events.data();
    v.count = b->count.load(std::memory_order_acquire);
    v.dropped = b->dropped.load(std::memory_order_relaxed);
    views.push_back(v);
  }
  return views;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  for (const auto& v : buffers()) total += v.dropped;
  return total;
}

Tracer* process_tracer() {
  return g_process_tracer.load(std::memory_order_acquire);
}

void install_process_tracer(Tracer* t) {
  g_process_tracer.store(t, std::memory_order_release);
}

std::size_t detail::thread_buffer_cache_size() { return t_buffers.size(); }

}  // namespace parbounds::obs
