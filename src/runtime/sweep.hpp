#pragma once
// Sweep execution: a named grid of cells, each repeated over derived
// seeds, fanned across the ExperimentRunner and aggregated in trial
// order. This is the one way a bench row is executed and reaches the
// JSON report — cost tables, round audits and multi-metric replays
// alike; the per-cell aggregates (mean/p50/p99) come from util/stats
// so every consumer summarizes the same way.
//
// Seeding discipline: the trial list is the concatenation of every
// cell's repetitions, in declaration order, and trial t runs with
// derive_seed(base_seed, t). Adding a cell changes the seeds of the
// cells after it (the grid is part of the experiment's identity) but
// never makes the result depend on thread count or scheduling. A sweep
// runs once; nothing re-runs it to cross-check. The contract is held
// from outside instead: test_runtime compares results at jobs 1 and
// jobs N bit for bit, and the bench_reports_jobs_invariant ctest and
// the run_checks.sh determinism stage cmp whole reports.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/runner.hpp"

namespace parbounds::runtime {

/// Service-routable description of a cell's trial body: a named cost
/// kernel (src/algos/cost_kernels.hpp via the service workload registry)
/// on a named engine with integer parameters. A cell that carries one
/// can be executed by a fleet worker process (--workers,
/// docs/SERVICE.md#fleet) instead of its `run` closure; the two must
/// compute the identical cost. The bench harness declares such cells by
/// the spec alone and builds `run` from it through the registry
/// (bench/harness.hpp, spec_body). An empty `workload` means "closure
/// only, not routable".
struct ServiceSpec {
  std::string engine;    ///< "qsm" | "sqsm" | "qsm-crfree" | "bsp" | ...
  std::string workload;  ///< registry name, e.g. "parity_circuit"
  std::vector<std::pair<std::string, std::uint64_t>> params;

  bool routable() const { return !workload.empty(); }
};

/// Named numbers a trial reports next to its cost (rounds, phases, a
/// 0/1 verdict, ...), in a fixed order per cell.
using NamedValues = std::vector<std::pair<std::string, double>>;

/// What one trial returns: its model cost plus optional named values.
/// Converts implicitly from double, so a plain cost body
/// (`.run = [](std::uint64_t seed) { return cost; }`) stays a Trial.
struct Trial {
  double cost = 0.0;
  NamedValues values;

  Trial(double c = 0.0) : cost(c) {}  // implicit on purpose (see above)
  Trial(double c, NamedValues v) : cost(c), values(std::move(v)) {}
};

/// One grid point: `trials` repetitions of `run` over derived seeds.
/// lb/ub are the paper's bound values for the cell, carried through to
/// the JSON report (0 when not applicable).
struct SweepCell {
  std::string key;
  unsigned trials = 1;
  double lb = 0.0;
  double ub = 0.0;
  std::function<Trial(std::uint64_t seed)> run{};
  ServiceSpec spec{};  ///< optional service routing (see ServiceSpec)
};

/// Aggregated results for one cell, in cell declaration order.
struct CellResult {
  std::string key;
  double lb = 0.0;
  double ub = 0.0;
  std::vector<double> costs;  ///< per-trial model costs, trial order
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// Per-trial named values (trial order), in the order the trials
  /// reported them; empty for cost-only cells.
  std::vector<std::pair<std::string, std::vector<double>>> values;

  /// Mean over trials of the value under `name` (the value itself for
  /// a one-trial cell); throws std::out_of_range if it was never
  /// reported.
  double value(const std::string& name) const;
};

/// One executed sweep. wall_ms is operational data: it goes to the
/// bench's ops file (bench_json.hpp), never into the report bytes.
struct SweepResult {
  std::string title;
  std::uint64_t base_seed = 0;
  std::vector<CellResult> cells;
  double wall_ms = 0.0;
};

/// Slice per-trial results (in cell-concatenation trial order, i.e. the
/// order run_sweep executes) back into per-cell aggregates. Shared by
/// run_sweep and fleet::run_sweep_fleet so both summarize the same way
/// — a precondition for their reports being byte-identical.
/// Throws std::invalid_argument if the trials of one cell report
/// different value names.
std::vector<CellResult> aggregate_cells(const std::vector<SweepCell>& cells,
                                        const std::vector<Trial>& trials);

/// Execute every (cell, repetition) trial through `runner`. The
/// trailing bool is accepted and ignored, so callers written against
/// the old serial-baseline parameter keep compiling.
SweepResult run_sweep(const ExperimentRunner& runner, std::string title,
                      std::uint64_t base_seed, std::vector<SweepCell> cells,
                      bool = false);

}  // namespace parbounds::runtime
