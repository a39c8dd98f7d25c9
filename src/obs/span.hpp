#pragma once
// Span tracer — RAII begin/end events in per-thread ring buffers.
//
// A Span marks a wall-clock interval (a runner trial, a steal, a bench
// sweep). Construction records a 'B' event, destruction the matching
// 'E', both into a buffer owned by the calling thread, so the hot path
// is a cached buffer lookup, a steady_clock read, and one release
// store — no locks and no allocation after the buffer exists. The
// lookup is the thread's ThreadCache (thread_cache.hpp), which drops
// the entries of destroyed tracers at the thread's next first touch.
//
// Buffers have fixed capacity. When a buffer cannot guarantee room for
// both a span's 'B' and every outstanding 'E' (its own included), the
// new span is dropped whole and a drop counter ticks: the exported
// stream never contains an unmatched 'B'. Export (chrome_trace.hpp)
// may run while other threads keep tracing — readers see a clean
// prefix of each buffer via an acquire load of its event count.
//
// Wall-clock timestamps are inherently nondeterministic; anything that
// must be bit-identical across --jobs belongs in MetricsRegistry or in
// the model-time exporter, never in span fields (docs/OBSERVABILITY.md).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/thread_cache.hpp"

namespace parbounds::obs {

/// One begin/end record. `name` must be a string with static storage
/// duration (span call sites pass literals).
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;  ///< steady-clock ns since the tracer's epoch
  std::uint64_t arg = 0;    ///< optional payload (trial id, steal count, ...)
  char phase = 'B';         ///< 'B' or 'E'
  bool has_arg = false;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity_per_thread = kDefaultCapacity);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // ----- hot path (owner thread only per buffer) --------------------------
  /// Record a 'B' event. Returns false — and records nothing — when the
  /// thread's buffer cannot also guarantee room for the matching 'E'.
  bool begin(const char* name, std::uint64_t arg = 0, bool has_arg = false);
  /// Record the 'E' for the most recent accepted begin(). Only call when
  /// the matching begin() returned true (Span handles this).
  void end(const char* name);

  // ----- read side (safe concurrently with tracing) -----------------------
  struct BufferView {
    std::uint32_t tid = 0;            ///< 1-based buffer id (= trace tid)
    const SpanEvent* events = nullptr;
    std::size_t count = 0;            ///< committed prefix length
    std::uint64_t dropped = 0;
  };
  std::vector<BufferView> buffers() const;
  std::uint64_t dropped() const;  ///< total across buffers

 private:
  struct Buffer {
    std::vector<SpanEvent> events;       // sized to capacity up front
    std::atomic<std::size_t> count{0};   // committed prefix (release/acquire)
    std::atomic<std::uint64_t> dropped{0};
    std::size_t open = 0;                // accepted spans awaiting 'E'
    std::uint32_t tid = 0;
  };

  Buffer& buffer();           ///< the calling thread's buffer (creates once)
  std::uint64_t now() const;  ///< ns since epoch_

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::size_t capacity_;
  std::uint64_t epoch_ns_;  ///< steady-clock origin
  detail::OwnerKey key_;    ///< this tracer in every thread's buffer cache
};

namespace detail {
/// Entries in the calling thread's buffer cache (a probe for tests).
std::size_t thread_buffer_cache_size();
}  // namespace detail

/// RAII span. A null tracer makes the span inert (the detached fast
/// path: one branch, no clock read).
class Span {
 public:
  Span(Tracer* t, const char* name) : Span(t, name, 0, false) {}
  Span(Tracer* t, const char* name, std::uint64_t arg)
      : Span(t, name, arg, true) {}
  ~Span() {
    if (active_) tracer_->end(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Span(Tracer* t, const char* name, std::uint64_t arg, bool has_arg)
      : tracer_(t), name_(name) {
    active_ = t != nullptr && t->begin(name, arg, has_arg);
  }

  Tracer* tracer_;
  const char* name_;
  bool active_ = false;
};

/// Process-global tracer hook. Call sites (the runner's trial loop, the
/// bench harness) trace into whatever is installed, or skip in one
/// branch when nothing is. Install before spawning traced work and
/// uninstall (nullptr) before destroying the tracer.
Tracer* process_tracer();
void install_process_tracer(Tracer* t);

}  // namespace parbounds::obs
