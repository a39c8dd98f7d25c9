#pragma once
// SweepService — the daemon's engine room (docs/SERVICE.md). Requests
// enter a bounded admission queue; a single dispatcher thread drains it
// in batches, probes the result cache for every run request first, and
// fans only the cache misses across an ExperimentRunner. Admission is
// non-blocking: when the queue is full the caller gets a typed "retry"
// response immediately (load shedding, never unbounded buffering).
//
// Observability (docs/OBSERVABILITY.md): the service owns a private
// MetricsRegistry — deliberately NOT the process telemetry registry, so
// its operational counters never mix with model metrics. Counters
// cache.hit / cache.miss / cache.evict / cache.corrupt / queue.shed /
// service.exec, gauge queue.depth; spans service.admit → service.run →
// service.commit via the process tracer.
//
// A warm cache answers a whole sweep without a single kernel execution:
// every request hits in the probe pass, the miss batch is empty, and the
// runner is never entered (no runner.trial spans, service.exec stays 0 —
// the zero-exec replay test pins this down).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep_service/cache.hpp"
#include "runtime/sweep_service/protocol.hpp"

namespace parbounds::service {

struct ServiceConfig {
  CacheConfig cache;
  std::size_t queue_capacity = 1024;  ///< admission bound; 0 sheds everything
  unsigned jobs = 1;                  ///< runner fan-out for miss batches
  /// Optional execution backend for the unique cache misses of a batch.
  /// When set, the dispatcher hands the deduplicated miss requests to
  /// this hook instead of the in-process runner and expects one
  /// response per request, in order. This is how `parbounds_serve
  /// --workers N` routes misses across a process fleet
  /// (fleet/coordinator.hpp); cache publication and the service.exec
  /// counter behave exactly as for in-process execution, so a fleet-
  /// backed daemon stays byte-identical on the wire.
  std::function<std::vector<Response>(const std::vector<Request>&)>
      miss_executor;
};

class SweepService {
 public:
  /// Invoked exactly once per submitted request — synchronously for a
  /// shed (Retry), from the dispatcher thread otherwise.
  using Callback = std::function<void(Response)>;

  explicit SweepService(ServiceConfig cfg);
  ~SweepService();  ///< drains the queue, then stops the dispatcher

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Non-blocking admission. Full queue → cb(Retry) before returning.
  void submit(Request req, Callback cb);

  /// Convenience for tests and lock-step clients: submit and wait.
  Response call(Request req);

  /// Registry snapshot as JSON (the "stats" op payload).
  std::string stats_json() const;

  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Pending {
    Request req;
    Callback cb;
  };

  void dispatch_loop();
  void handle_batch(std::vector<Pending> batch);
  /// Cache-probe a run request: a Hit returns the cached answer, a
  /// Miss/Corrupt returns an uncached Ok shell (the batch loop routes
  /// those into the runner pass).
  Response run_request(const Request& req);

  ServiceConfig cfg_;
  obs::MetricsRegistry metrics_;
  obs::MetricsRegistry::Id hit_id_, miss_id_, evict_id_, corrupt_id_,
      shed_id_, exec_id_, depth_id_;
  ResultCache cache_;
  runtime::ExperimentRunner runner_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::thread dispatcher_;
};

}  // namespace parbounds::service
