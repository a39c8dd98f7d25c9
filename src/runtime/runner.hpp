#pragma once
// ExperimentRunner — a work-stealing fan-out for independent trials.
//
// Every measured number in parbounds comes from repeated independent
// trials (bench reps over seeds, adversary sweeps, fuzz-engine programs,
// parlint batches). The trials are embarrassingly parallel — each one
// builds its own machine — so the runner fans them across worker threads.
// Two invariants make that safe to rely on for *measurements*:
//
//   1. Deterministic seeding: trial t always receives
//      derive_seed(base_seed, t), a splitmix64-style mix of the base and
//      the trial index. Seeds never depend on which worker ran the trial
//      or in what order, so results are bit-identical for any job count.
//   2. Ordered collection: results land in a pre-sized vector slot
//      indexed by trial id. Aggregation (mean/p50/p99) therefore sees
//      the same sequence no matter how the trials were scheduled.
//
// Scheduling is work-stealing over index ranges: each worker starts with
// a contiguous chunk of [0, trials) and, when its chunk drains, steals
// the upper half of the largest remaining chunk. Chunks keep cache
// behaviour predictable; stealing absorbs skewed trial durations (e.g. a
// sweep mixing n = 2^10 and n = 2^18 cells).
//
// Workers are spawned per run() call rather than parked in a persistent
// pool: runs carry no state between each other (nothing to drain or
// reset), which is what makes the determinism argument a three-line
// proof instead of a lifecycle audit. Trial bodies take milliseconds, so
// thread spawn cost is noise.

#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/span.hpp"

namespace parbounds::runtime {

/// Stateless per-trial seed derivation (splitmix64 finalizer over the
/// combined base and trial id). Depends only on (base, trial) — never on
/// scheduling — which is the root of the runner's determinism guarantee.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t trial);

struct RunnerConfig {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned jobs = 0;
};

namespace detail {

/// Remaining trial range owned by one worker. The owner pops from lo,
/// thieves split off the upper half; both sides go through the mutex so
/// the scheduler is trivially race-free (and TSan-clean) — trial bodies
/// dwarf the lock cost by orders of magnitude.
struct Shard {
  std::mutex mu;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// True while the calling thread is itself a runner worker; nested runs
/// execute inline on the caller to stay deadlock-free by construction.
bool in_worker() noexcept;

class WorkerScope {
 public:
  WorkerScope() noexcept;
  ~WorkerScope();
};

}  // namespace detail

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerConfig cfg = {});

  unsigned jobs() const { return jobs_; }

  /// Run fn(trial) for every trial in [0, trials); returns results in
  /// trial order. T must be default-constructible. The first exception
  /// thrown by a trial is rethrown here after all workers have stopped.
  template <class T>
  std::vector<T> map(std::uint64_t trials,
                     const std::function<T(std::uint64_t)>& fn) const {
    std::vector<T> results(trials);
    if (trials == 0) return results;
    obs::Tracer* tracer = obs::process_tracer();
    if (jobs_ == 1 || trials == 1 || detail::in_worker()) {
      for (std::uint64_t t = 0; t < trials; ++t) {
        obs::Span span(tracer, "runner.trial", t);
        results[t] = fn(t);
      }
      return results;
    }

    const unsigned workers =
        static_cast<unsigned>(std::min<std::uint64_t>(jobs_, trials));
    std::vector<detail::Shard> shards(workers);
    for (unsigned w = 0; w < workers; ++w) {
      shards[w].lo = trials * w / workers;
      shards[w].hi = trials * (w + 1) / workers;
    }

    std::mutex err_mu;
    std::exception_ptr first_error;

    auto body = [&](unsigned self) {
      detail::WorkerScope scope;
      obs::Span worker_span(tracer, "runner.worker", self);
      std::uint64_t steals = 0;
      for (;;) {
        std::uint64_t trial = 0;
        bool have = false;
        {
          std::lock_guard<std::mutex> lock(shards[self].mu);
          if (shards[self].lo < shards[self].hi) {
            trial = shards[self].lo++;
            have = true;
          }
        }
        if (!have) {
          obs::Span steal_span(tracer, "runner.steal", ++steals);
          if (!steal_into(shards, self)) return;
          continue;
        }
        try {
          obs::Span span(tracer, "runner.trial", trial);
          results[trial] = fn(trial);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
          return;
        }
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) threads.emplace_back(body, w);
    body(0);
    for (auto& th : threads) th.join();
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

 private:
  /// Move the upper half of the fullest victim shard into shards[self].
  /// Returns false when every shard is empty (time to exit).
  static bool steal_into(std::vector<detail::Shard>& shards, unsigned self);

  unsigned jobs_;
};

}  // namespace parbounds::runtime
