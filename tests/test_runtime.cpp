// ExperimentRunner determinism suite (docs/RUNTIME.md).
//
// The load-bearing property is that the runner is invisible in the
// results: any worker count produces bit-identical per-trial outputs,
// identical traces, and identical aggregates. These tests pin that down
// with memcmp-level comparisons across jobs ∈ {1, 2, 8}, and cover the
// scheduler's corners — stealing under skewed durations, exception
// propagation, nested maps, the jobs=0 default. Run under
// -DPARBOUNDS_TSAN=ON (ctest -L runtime) this file is also the data-race
// proof for the whole trial-parallel path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>

#include "algos/parity.hpp"
#include "core/qsm.hpp"
#include "core/trace_io.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/generators.hpp"

namespace parbounds::runtime {
namespace {

constexpr std::uint64_t kBase = 0xb0a710adULL;

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(DeriveSeed, DependsOnlyOnBaseAndTrial) {
  // Pinned values: a change here silently reshuffles every experiment
  // in the repository, so it must be loud.
  EXPECT_EQ(derive_seed(0, 0), derive_seed(0, 0));
  EXPECT_EQ(derive_seed(kBase, 7), derive_seed(kBase, 7));
  EXPECT_NE(derive_seed(kBase, 7), derive_seed(kBase, 8));
  EXPECT_NE(derive_seed(kBase, 7), derive_seed(kBase + 1, 7));
}

TEST(DeriveSeed, NoCollisionsInPracticalRanges) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {std::uint64_t{0}, std::uint64_t{1}, kBase})
    for (std::uint64_t t = 0; t < 4096; ++t)
      seen.insert(derive_seed(base, t));
  EXPECT_EQ(seen.size(), 3u * 4096u);
}

TEST(ExperimentRunner, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(ExperimentRunner({.jobs = 0}).jobs(), 1u);
  EXPECT_EQ(ExperimentRunner({.jobs = 3}).jobs(), 3u);
}

TEST(ExperimentRunner, MapPreservesTrialOrder) {
  for (const unsigned jobs : {1u, 2u, 8u}) {
    ExperimentRunner r({.jobs = jobs});
    const auto out = r.map<std::uint64_t>(
        100, [](std::uint64_t t) { return t * t; });
    ASSERT_EQ(out.size(), 100u);
    for (std::uint64_t t = 0; t < 100; ++t) EXPECT_EQ(out[t], t * t);
  }
}

TEST(ExperimentRunner, EveryTrialRunsExactlyOnceUnderSkew) {
  // Front-loaded durations force the later workers to steal; the count
  // per trial must still be exactly one.
  ExperimentRunner r({.jobs = 8});
  std::vector<std::atomic<int>> counts(257);
  const auto out = r.map<int>(257, [&](std::uint64_t t) {
    if (t < 8) {
      // Busy trials at the front of worker 0's chunk; the atomic store
      // keeps the loop from being optimized away.
      static std::atomic<std::uint64_t> sink{0};
      std::uint64_t acc = 0;
      for (std::uint64_t i = 0; i < 200000; ++i) acc += i;
      sink.store(acc, std::memory_order_relaxed);
    }
    counts[t].fetch_add(1, std::memory_order_relaxed);
    return 1;
  });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 257);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ExperimentRunner, RunIsBitIdenticalAcrossJobCounts) {
  const std::function<double(std::uint64_t)> trial = [](std::uint64_t t) {
    Rng rng(derive_seed(kBase, t));
    double acc = 0;
    for (int i = 0; i < 100; ++i)
      acc += static_cast<double>(rng.next_below(1u << 20)) * 1e-3;
    return acc;
  };
  const auto serial = ExperimentRunner({.jobs = 1}).map<double>(64, trial);
  for (const unsigned jobs : {2u, 8u}) {
    const auto par = ExperimentRunner({.jobs = jobs}).map<double>(64, trial);
    EXPECT_TRUE(bitwise_equal(serial, par)) << "jobs=" << jobs;
  }
}

TEST(ExperimentRunner, TracesAreIdenticalAcrossJobCounts) {
  // Stronger than cost equality: the full serialized trace of a machine
  // run must not depend on the worker count, i.e. the engines really are
  // isolated per trial.
  auto trace_of = [](std::uint64_t trial) {
    const std::uint64_t n = 64 + 16 * (trial % 4);
    QsmMachine m({.g = 1 + trial % 3});
    Rng rng(derive_seed(kBase, trial));
    const auto input = bernoulli_array(n, 0.5, rng);
    const Addr in = m.alloc(n);
    m.preload(in, input);
    parity_tree(m, in, n, 2);
    return trace_to_csv(m.trace());
  };
  const auto serial =
      ExperimentRunner({.jobs = 1}).map<std::string>(24, trace_of);
  for (const unsigned jobs : {2u, 8u}) {
    const auto par =
        ExperimentRunner({.jobs = jobs}).map<std::string>(24, trace_of);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t t = 0; t < serial.size(); ++t)
      EXPECT_EQ(par[t], serial[t]) << "trial " << t << " jobs " << jobs;
  }
}

TEST(ExperimentRunner, ExceptionsPropagateToCaller) {
  for (const unsigned jobs : {1u, 4u}) {
    ExperimentRunner r({.jobs = jobs});
    EXPECT_THROW(r.map<int>(32,
                            [](std::uint64_t t) {
                              if (t == 17)
                                throw std::runtime_error("trial 17");
                              return 0;
                            }),
                 std::runtime_error)
        << "jobs=" << jobs;
  }
}

TEST(ExperimentRunner, NestedMapRunsInlineWithoutDeadlock) {
  ExperimentRunner outer({.jobs = 4});
  ExperimentRunner inner({.jobs = 4});
  const auto out = outer.map<std::uint64_t>(16, [&](std::uint64_t t) {
    const auto sub = inner.map<std::uint64_t>(
        8, [t](std::uint64_t s) { return t * 100 + s; });
    return std::accumulate(sub.begin(), sub.end(), std::uint64_t{0});
  });
  for (std::uint64_t t = 0; t < 16; ++t)
    EXPECT_EQ(out[t], 8 * t * 100 + 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
}

std::vector<SweepCell> demo_cells() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {64ull, 256ull, 1024ull})
    cells.push_back({.key = "n=" + std::to_string(n),
                     .trials = 5,
                     .lb = static_cast<double>(n),
                     .ub = 2.0 * static_cast<double>(n),
                     .run = [n](std::uint64_t seed) {
                       Rng rng(seed);
                       return static_cast<double>(n) +
                              static_cast<double>(rng.next_below(n));
                     }});
  return cells;
}

TEST(RunSweep, AggregatesMatchStatsHelpers) {
  ExperimentRunner r({.jobs = 2});
  const auto res = run_sweep(r, "demo", kBase, demo_cells());
  ASSERT_EQ(res.cells.size(), 3u);
  std::uint64_t trial = 0;
  for (const auto& cell : res.cells) {
    ASSERT_EQ(cell.costs.size(), 5u);
    EXPECT_DOUBLE_EQ(cell.mean, mean(cell.costs));
    EXPECT_DOUBLE_EQ(cell.p50, percentile(cell.costs, 50.0));
    EXPECT_DOUBLE_EQ(cell.p99, percentile(cell.costs, 99.0));
    // The seeding discipline: trial t of the flattened grid must have
    // seen derive_seed(base, t), regardless of scheduling.
    for (double c : cell.costs) {
      const double n = std::stod(cell.key.substr(2));
      Rng rng(derive_seed(kBase, trial++));
      EXPECT_DOUBLE_EQ(
          c, n + static_cast<double>(
                     rng.next_below(static_cast<std::uint64_t>(n))));
    }
  }
}

TEST(RunSweep, BitIdenticalAcrossJobCountsAndSerialBaseline) {
  const auto serial =
      run_sweep(ExperimentRunner({.jobs = 1}), "demo", kBase, demo_cells());
  for (const unsigned jobs : {2u, 8u}) {
    const auto par = run_sweep(ExperimentRunner({.jobs = jobs}), "demo",
                               kBase, demo_cells());
    ASSERT_EQ(par.cells.size(), serial.cells.size());
    for (std::size_t i = 0; i < par.cells.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(par.cells[i].costs, serial.cells[i].costs))
          << "cell " << i << " jobs " << jobs;
      EXPECT_DOUBLE_EQ(par.cells[i].mean, serial.cells[i].mean);
      EXPECT_DOUBLE_EQ(par.cells[i].p99, serial.cells[i].p99);
    }
  }
}

/// A multi-value cell grid: every trial runs a real machine and reports
/// its cost plus its phase count and a 0/1 verdict as named values.
std::vector<SweepCell> multi_value_cells() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {64ull, 200ull, 512ull})
    cells.push_back({.key = "n=" + std::to_string(n),
                     .trials = 3,
                     .run = [n](std::uint64_t seed) {
                       QsmMachine m({.g = 1 + seed % 4});
                       Rng rng(seed);
                       const auto input = bernoulli_array(n, 0.5, rng);
                       const Addr in = m.alloc(n);
                       m.preload(in, input);
                       parity_tree(m, in, n, 2);
                       const double cost = static_cast<double>(m.time());
                       return Trial(cost / 3.0,
                                    {{"phases", static_cast<double>(m.phases())},
                                     {"odd", cost > 100.0 ? 1.0 : 0.0}});
                     }});
  return cells;
}

TEST(RunSweep, MultiValueSweepBitIdenticalAtJobsOneAndFour) {
  const auto serial = run_sweep(ExperimentRunner({.jobs = 1}), "multi",
                                kBase, multi_value_cells());
  const auto par = run_sweep(ExperimentRunner({.jobs = 4}), "multi", kBase,
                             multi_value_cells());
  ASSERT_EQ(par.cells.size(), serial.cells.size());
  for (std::size_t i = 0; i < par.cells.size(); ++i) {
    const auto& a = serial.cells[i];
    const auto& b = par.cells[i];
    EXPECT_TRUE(bitwise_equal(a.costs, b.costs)) << "cell " << i;
    ASSERT_EQ(a.values.size(), 2u);
    ASSERT_EQ(b.values.size(), a.values.size());
    for (std::size_t v = 0; v < a.values.size(); ++v) {
      EXPECT_EQ(b.values[v].first, a.values[v].first);
      EXPECT_EQ(b.values[v].second.size(), 3u);
      EXPECT_TRUE(bitwise_equal(a.values[v].second, b.values[v].second))
          << "cell " << i << " value " << a.values[v].first;
    }
    EXPECT_GT(a.value("phases"), 0.0);
  }
}

TEST(RunSweep, TrialsReportingDifferentValuesAreRejected) {
  const std::vector<SweepCell> cells = {
      {.key = "ragged", .trials = 2, .run = {}}};
  EXPECT_THROW(aggregate_cells(cells, {Trial(1.0, {{"a", 1.0}}),
                                       Trial(1.0, {{"b", 1.0}})}),
               std::invalid_argument);
  EXPECT_THROW(aggregate_cells(cells, {Trial(1.0, {{"a", 1.0}}), Trial(1.0)}),
               std::invalid_argument);
}

}  // namespace
}  // namespace parbounds::runtime
