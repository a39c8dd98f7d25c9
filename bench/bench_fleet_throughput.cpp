// Fleet data-plane throughput guard: many SMALL cells pushed through
// the worker-process fleet, with the credit window open (default 8)
// versus the lock-step window of 1.
//
// The point of the credit window is the BSP lesson (PAPER.md): latency
// charges per superstep, not per message. Lock-step dispatch pays one
// pipe round-trip per CELL; a window of K pays one per K cells, and the
// coordinator batches the frames of a poll iteration through a single
// writev(2). This bench gates that at workers=4 as
//
//   pipeline_speedup = time(48-cell sweep, window 1)
//                      / time(48-cell sweep, window 8)
//
// a paired_ratio (src/runtime/paired_ratio.hpp): the two fleets
// alternate in >= 100 ms regions of repeated sweeps over 9 pairs, and
// the gate reads the median with its spread (docs/PERF.md, "How a
// wall-clock gate reads"). Both fleets are spawned before timing
// starts, so spawn cost is excluded and the number is steady-state
// pipe throughput. Every timed sweep is ALSO byte-compared against an
// in-process --jobs 1 reference (the test_fleet oracle), so the
// speedup can never come at the cost of the byte-identity contract —
// on a 1-core CI host where the speedup floor is 1.0, the identity
// oracle is the real check. (Every workers x window combination is
// held to those bytes by the fleet suite,
// FleetEndToEnd.EveryWireWorkersWindowComboReproducesTheBytes.)
//
// Extra flag (stripped before the harness parses argv; X must be a
// finite positive number, anything else exits 2):
//   --min-pipeline-speedup=X  fail (exit 1) if the workers=4 speedup
//                             is below the floor X (default 1.0;
//                             tools/run_checks.sh passes 1.5 on hosts
//                             with >= 4 cores). The report and the ops
//                             file are written either way.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "runtime/bench_json.hpp"
#include "runtime/fleet/coordinator.hpp"
#include "runtime/fleet/sweep_fleet.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"

namespace pb = parbounds;
using namespace parbounds::bench;

namespace {

constexpr unsigned kCells = 48;  // small cells: wire cost dominates
constexpr unsigned kWorkers = 4;
constexpr unsigned kPairs = 9;

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

/// The bytes every timed sweep must reproduce: the same cells on an
/// in-process jobs=1 runner, observed on a fresh registry (the
/// test_fleet reference, verbatim).
std::string in_process_reference(std::uint64_t base_seed) {
  pb::runtime::SweepResult sweep;
  const pb::obs::MetricsSnapshot observed = observe([&] {
    pb::runtime::ExperimentRunner runner({.jobs = 1});
    sweep = run_sweep(runner, "fleet throughput", base_seed, tiny_cells());
  });
  return to_json(wrap_sweep(std::move(sweep), observed.to_json(), base_seed));
}

/// One side of the pair: a workers=4 fleet at `window`, each repetition
/// one sweep of the cells, byte-compared against the reference.
pb::runtime::TimedSide fleet_side(pb::fleet::FleetCoordinator& fleet,
                                  unsigned window, std::uint64_t base_seed,
                                  const std::string& reference) {
  return {.body = [&fleet, window, base_seed, &reference] {
    pb::obs::MetricsSnapshot snap;
    pb::runtime::SweepResult sweep = pb::fleet::run_sweep_fleet(
        fleet, "fleet throughput", base_seed, tiny_cells(), &snap);
    if (to_json(wrap_sweep(std::move(sweep), snap.to_json(), base_seed)) !=
        reference) {
      std::fprintf(stderr,
                   "bench_fleet_throughput: report diverged from the "
                   "in-process reference at workers=%u window=%u\n",
                   kWorkers, window);
      std::exit(1);
    }
  }};
}

}  // namespace

int main(int argc, char** argv) {
  const double min_speedup =
      pb::runtime::take_floor_flag(argc, argv, "--min-pipeline-speedup", 1.0);

  auto& session = session_init(argc, argv, "fleet");
  std::printf("%s", pb::banner("FLEET THROUGHPUT — credit-window pipeline "
                               "vs lock-step")
                        .c_str());

  const std::uint64_t base_seed = session.next_base_seed();
  const std::string reference = in_process_reference(base_seed);

  const auto config = [](unsigned window) {
    pb::fleet::FleetConfig cfg;
    cfg.workers = kWorkers;
    cfg.window = window;
    return cfg;
  };
  pb::fleet::FleetCoordinator lockstep(config(1));
  pb::fleet::FleetCoordinator pipelined(config(8));
  const auto speedup = pb::runtime::paired_ratio(
      fleet_side(lockstep, 1, base_seed, reference),
      fleet_side(pipelined, 8, base_seed, reference), kPairs);

  std::printf("identity oracle: every timed sweep matched the in-process "
              "bytes\n\n");

  // A wall ratio is a measurement, not model data: ops file only.
  session.gate_floor("fleet/pipeline_speedup", speedup, min_speedup);

  return session.finish();
}
