#include "runtime/runner.hpp"

#include <algorithm>

namespace parbounds::runtime {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t trial) {
  // splitmix64 finalizer over the combined words; the odd multiplier on
  // trial keeps (base, trial) and (base + 1, trial - 1) far apart.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (trial + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace detail {

namespace {
thread_local bool t_in_worker = false;
}  // namespace

bool in_worker() noexcept { return t_in_worker; }

WorkerScope::WorkerScope() noexcept { t_in_worker = true; }
WorkerScope::~WorkerScope() { t_in_worker = false; }

}  // namespace detail

ExperimentRunner::ExperimentRunner(RunnerConfig cfg) : jobs_(cfg.jobs) {
  // DETLINT(det.hw-concurrency): default worker count; results are pool-invariant
  if (jobs_ == 0) jobs_ = std::max(1u, std::thread::hardware_concurrency());
}

bool ExperimentRunner::steal_into(std::vector<detail::Shard>& shards,
                                  unsigned self) {
  // Pick the victim with the most remaining work, then split off its
  // upper half. The loose (unlocked-then-rechecked) size scan is fine:
  // a stale pick only costs one extra round trip.
  const unsigned n = static_cast<unsigned>(shards.size());
  unsigned victim = n;
  std::uint64_t best = 0;
  for (unsigned w = 0; w < n; ++w) {
    if (w == self) continue;
    std::lock_guard<std::mutex> lock(shards[w].mu);
    const std::uint64_t left = shards[w].hi - shards[w].lo;
    if (left > best) {
      best = left;
      victim = w;
    }
  }
  if (victim == n) return false;

  std::uint64_t lo = 0, hi = 0;
  {
    std::lock_guard<std::mutex> lock(shards[victim].mu);
    const std::uint64_t left = shards[victim].hi - shards[victim].lo;
    if (left == 0) return true;  // raced with the owner; rescan
    const std::uint64_t take = (left + 1) / 2;
    hi = shards[victim].hi;
    lo = hi - take;
    shards[victim].hi = lo;
  }
  {
    std::lock_guard<std::mutex> lock(shards[self].mu);
    shards[self].lo = lo;
    shards[self].hi = hi;
  }
  return true;
}

}  // namespace parbounds::runtime
