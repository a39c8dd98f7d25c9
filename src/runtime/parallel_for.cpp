#include "runtime/parallel_for.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "runtime/runner.hpp"

namespace parbounds::runtime {

namespace {
thread_local bool t_in_pool_worker = false;
}  // namespace

bool ParallelFor::fans_out() const noexcept {
  return threads_ > 1 && !t_in_pool_worker && !detail::in_worker();
}

// All job fields are published under `mu` before workers are woken and
// are only recycled once `running` has returned to zero, so workers read
// them race-free without holding the lock while shards execute. Shard
// claims go through one atomic counter; completion is counted under the
// lock (shard bodies dwarf the lock cost).
struct ParallelFor::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // workers: a new generation is up
  std::condition_variable done_cv;   // caller: completion / quiescence
  std::vector<std::thread> workers;

  // Current job (stable while running > 0).
  std::uint64_t generation = 0;
  unsigned active_workers = 0;  ///< workers allowed to join this job
  const Body* body = nullptr;
  std::uint64_t n = 0;
  unsigned shards = 0;
  std::atomic<unsigned> next{0};

  unsigned running = 0;    ///< threads currently inside run_shards
  unsigned completed = 0;  ///< shard bodies finished (ok or not)
  std::exception_ptr error;
  unsigned error_shard = 0;
  bool shutdown = false;

  /// Claim and execute shards until the job drains. Called with mu NOT
  /// held; `running` was incremented by the caller under mu.
  void run_shards() {
    const bool was_in_pool = t_in_pool_worker;
    t_in_pool_worker = true;
    for (;;) {
      const unsigned s = next.fetch_add(1, std::memory_order_relaxed);
      if (s >= shards) break;
      const std::uint64_t lo = n * s / shards;
      const std::uint64_t hi = n * (s + 1) / shards;
      try {
        (*body)(s, lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        // Keep the lowest-shard exception so the caller sees the same
        // error regardless of which worker hit it first.
        if (!error || s < error_shard) {
          error = std::current_exception();
          error_shard = s;
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (++completed == shards) done_cv.notify_all();
      }
    }
    t_in_pool_worker = was_in_pool;
  }

  void worker_loop(unsigned id) {
    std::unique_lock<std::mutex> lk(mu);
    std::uint64_t seen = 0;
    for (;;) {
      work_cv.wait(lk, [&] {
        return shutdown || (generation != seen && id < active_workers);
      });
      if (shutdown) return;
      seen = generation;
      ++running;
      lk.unlock();
      run_shards();
      lk.lock();
      if (--running == 0) done_cv.notify_all();
    }
  }
};

ParallelFor::ParallelFor() : impl_(std::make_unique<Impl>()) {}

ParallelFor::~ParallelFor() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (auto& th : impl_->workers) th.join();
}

ParallelFor& ParallelFor::pool() {
  static ParallelFor p;
  return p;
}

void ParallelFor::set_threads(unsigned t) {
  if (t == 0) {
    // DETLINT(det.hw-concurrency): default pool size; shards stay n-derived
    t = std::thread::hardware_concurrency();
    if (t == 0) t = 1;
  }
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->done_cv.wait(lk, [&] { return impl_->running == 0; });
  threads_ = t;
  // Workers above the target stay parked (the wait predicate gates on
  // active_workers), so shrinking never joins threads mid-session.
  while (impl_->workers.size() + 1 < t) {
    const unsigned id = static_cast<unsigned>(impl_->workers.size());
    impl_->workers.emplace_back([this, id] { impl_->worker_loop(id); });
  }
}

void ParallelFor::for_shards(std::uint64_t n, unsigned shards,
                             const Body& body) {
  if (n == 0 || shards == 0) return;
  if (shards == 1 || !fans_out()) {
    // Inline: same boundaries, shard order 0..shards-1.
    const bool was_in_pool = t_in_pool_worker;
    t_in_pool_worker = true;
    for (unsigned s = 0; s < shards; ++s)
      body(s, n * s / shards, n * (s + 1) / shards);
    t_in_pool_worker = was_in_pool;
    return;
  }

  Impl& im = *impl_;
  {
    std::unique_lock<std::mutex> lk(im.mu);
    im.done_cv.wait(lk, [&] { return im.running == 0; });
    im.body = &body;
    im.n = n;
    im.shards = shards;
    im.next.store(0, std::memory_order_relaxed);
    im.completed = 0;
    im.error = nullptr;
    im.active_workers =
        std::min<unsigned>(threads_ - 1, shards > 1 ? shards - 1 : 0);
    ++im.generation;
    ++im.running;  // the caller participates
  }
  im.work_cv.notify_all();
  im.run_shards();
  std::unique_lock<std::mutex> lk(im.mu);
  --im.running;
  im.done_cv.wait(lk, [&] { return im.completed == im.shards; });
  if (im.error) {
    // Wait for stragglers so the job fields are safe to recycle, then
    // surface the error on the caller.
    im.done_cv.wait(lk, [&] { return im.running == 0; });
    std::exception_ptr e = im.error;
    im.error = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace parbounds::runtime
