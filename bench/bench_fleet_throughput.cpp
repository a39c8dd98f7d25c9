// Fleet data-plane throughput guard: many SMALL cells pushed through
// the worker-process fleet, with the credit window open (default 8)
// versus the lock-step window of 1.
//
// The point of the credit window is the BSP lesson (PAPER.md): latency
// charges per superstep, not per message. Lock-step dispatch pays one
// pipe round-trip per CELL; a window of K pays one per K cells, and the
// coordinator batches the frames of a poll iteration through a single
// writev(2). This bench measures that as cells/sec over a sweep of tiny
// parity_circuit cells and gates the ratio
//
//   pipeline_speedup = cells_per_sec(window 8) / cells_per_sec(window 1)
//
// at workers=4. Every timed fleet run is ALSO byte-compared against an
// in-process --jobs 1 reference (the test_fleet oracle), so the
// speedup can never come at the cost of the byte-identity contract —
// on a 1-core CI host where the speedup floor is 1.0, the identity
// oracle is the real check.
//
// Runs are timed serially around run_sweep_fleet (never through the
// runner) with min-over-reps on each side; workers are spawned once
// per configuration and timing starts after a warmup sweep, so spawn
// cost is excluded and the number is steady-state pipe throughput.
//
// Extra flag (stripped before the harness parses argv):
//   --min-pipeline-speedup=X  fail (exit 1) if the workers=4 speedup
//                             < X (default 1.0; tools/run_checks.sh
//                             passes 1.5 on hosts with >= 4 cores)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "runtime/bench_json.hpp"
#include "runtime/fleet/coordinator.hpp"
#include "runtime/fleet/sweep_fleet.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"

namespace pb = parbounds;
using namespace parbounds::bench;

namespace {

constexpr unsigned kCells = 48;      // small cells: wire cost dominates
constexpr unsigned kGuardReps = 5;
constexpr unsigned kWarmupReps = 1;  // also primes the identity oracle

/// The workload: 48 one-trial parity_circuit cells at n in [16, 32] —
/// each costs microseconds to evaluate, so the per-cell pipe round
/// trip is the bill the window is meant to amortize.
std::vector<pb::runtime::SweepCell> tiny_cells() {
  std::vector<pb::runtime::SweepCell> cells;
  cells.reserve(kCells);
  for (unsigned i = 0; i < kCells; ++i) {
    const std::uint64_t n = 16 + (i % 17);
    cells.push_back(
        {.key = "cell=" + std::to_string(i) + "/n=" + std::to_string(n),
         .trials = 1,
         .lb = 1.0,
         .ub = static_cast<double>(n),
         .spec = {"qsm", "parity_circuit", {{"n", n}, {"g", 2}}}});
    cells.back().run = spec_body(cells.back());
  }
  return cells;
}

pb::runtime::BenchReport wrap_sweep(pb::runtime::SweepResult sweep,
                                    std::string metrics_json,
                                    std::uint64_t base_seed) {
  pb::runtime::BenchReport report;
  report.bench = "bench_fleet_throughput_oracle";
  report.seed = base_seed;
  report.metrics_json = std::move(metrics_json);
  report.sweeps.push_back(std::move(sweep));
  return report;
}

/// The bytes every fleet configuration must reproduce: the same cells
/// on an in-process jobs=1 runner under a fresh TelemetryObserver (the
/// test_fleet reference, verbatim).
std::string in_process_reference(std::uint64_t base_seed) {
  pb::obs::MetricsRegistry registry;
  pb::obs::TelemetryObserver telemetry(registry);
  pb::obs::install_process_telemetry(&telemetry);
  pb::runtime::ExperimentRunner runner({.jobs = 1});
  pb::runtime::SweepResult sweep =
      run_sweep(runner, "fleet throughput", base_seed, tiny_cells());
  pb::obs::install_process_telemetry(nullptr);
  return to_json(
      wrap_sweep(std::move(sweep), registry.snapshot().to_json(), base_seed));
}

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

struct Config {
  unsigned workers;
  unsigned window;
};

struct Measurement {
  std::uint64_t best_ns = ~std::uint64_t{0};
  std::uint64_t bytes_tx = 0;  ///< cumulative over all reps
  std::uint64_t frames_tx = 0;
  std::uint64_t window_depth = 0;  ///< high-water in-flight depth
};

/// Spawn one fleet for `cfg`, run warmup + timed sweeps of the same
/// cells, byte-compare EVERY run against the reference, and return the
/// min wall time. Exits 1 on any byte divergence.
Measurement run_config(const Config& cfg, std::uint64_t base_seed,
                       const std::string& reference) {
  pb::fleet::FleetConfig fc;
  fc.workers = cfg.workers;
  fc.window = cfg.window;
  pb::fleet::FleetCoordinator fleet(fc);

  Measurement m;
  for (unsigned rep = 0; rep < kWarmupReps + kGuardReps; ++rep) {
    pb::obs::MetricsSnapshot snap;
    const auto t0 = std::chrono::steady_clock::now();
    pb::runtime::SweepResult sweep = pb::fleet::run_sweep_fleet(
        fleet, "fleet throughput", base_seed, tiny_cells(), &snap);
    const std::uint64_t wall = ns_since(t0);
    const std::string report =
        to_json(wrap_sweep(std::move(sweep), snap.to_json(), base_seed));
    if (report != reference) {
      std::fprintf(stderr,
                   "bench_fleet_throughput: report diverged from the "
                   "in-process reference at workers=%u window=%u "
                   "(rep %u)\n",
                   cfg.workers, cfg.window, rep);
      std::exit(1);
    }
    if (rep >= kWarmupReps) m.best_ns = std::min(m.best_ns, wall);
  }
  m.bytes_tx = fleet.counter("fleet.bytes_tx");
  m.frames_tx = fleet.counter("fleet.frames_tx");
  m.window_depth = fleet.counter("fleet.window.depth");
  return m;
}

double cells_per_sec(const Measurement& m) {
  return static_cast<double>(kCells) /
         (static_cast<double>(m.best_ns) / 1e9);
}

}  // namespace

int main(int argc, char** argv) {
  double min_speedup = 1.0;
  {
    int w = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--min-pipeline-speedup=", 0) == 0)
        min_speedup = std::stod(arg.substr(23));
      else
        argv[w++] = argv[i];
    }
    argc = w;
  }

  auto& session = session_init(argc, argv, "fleet");
  std::printf("%s", pb::banner("FLEET THROUGHPUT — credit-window pipeline "
                               "vs lock-step")
                        .c_str());

  // The fleets below observe telemetry in their WORKERS; whatever the
  // session installed for --json/--trace in this process must come off
  // before the in-process oracle installs its own observer.
  pb::obs::install_process_telemetry(nullptr);
  pb::obs::install_process_tracer(nullptr);

  const std::uint64_t base_seed = session.next_base_seed();
  const std::string reference = in_process_reference(base_seed);

  const std::vector<Config> matrix = [] {
    std::vector<Config> m;
    for (const unsigned workers : {1u, 2u, 4u})
      for (const unsigned window : {1u, 8u}) m.push_back({workers, window});
    return m;
  }();

  pb::TextTable t({"workers", "window", "best wall (ms)", "cells/s",
                   "bytes_tx", "frames_tx", "depth"});
  // cps[workers][window]
  double cps[5][9] = {};
  for (const Config& cfg : matrix) {
    const Measurement m = run_config(cfg, base_seed, reference);
    cps[cfg.workers][cfg.window] = cells_per_sec(m);
    t.add_row({std::to_string(cfg.workers), std::to_string(cfg.window),
               pb::TextTable::num(static_cast<double>(m.best_ns) / 1e6, 3),
               pb::TextTable::num(cells_per_sec(m), 0),
               std::to_string(m.bytes_tx), std::to_string(m.frames_tx),
               std::to_string(m.window_depth)});
  }
  std::printf("%s\n", t.render().c_str());

  const double speedup = cps[4][8] / cps[4][1];

  // A wall ratio is a measurement, not model data: ops file only.
  session.ratio("fleet/pipeline_speedup", speedup);

  std::printf("identity oracle: every fleet report matched the in-process "
              "bytes (%u configs x %u runs)\n",
              static_cast<unsigned>(matrix.size()),
              kWarmupReps + kGuardReps);

  if (speedup < min_speedup) {
    std::fprintf(stderr,
                 "bench_fleet_throughput: pipeline_speedup %.3fx below "
                 "--min-pipeline-speedup=%.2f (workers=4)\n",
                 speedup, min_speedup);
    return 1;
  }
  std::printf("pipeline_speedup %.3fx (workers=4, window 8 vs 1; floor "
              "%.2fx) — ok\n",
              speedup, min_speedup);

  return session.finish();
}
