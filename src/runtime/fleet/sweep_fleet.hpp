#pragma once
// Fleet-backed sweep execution: the drop-in replacement for
// runtime::run_sweep that the bench harness uses under --workers N.
// Each CELL becomes one cell request — base seed plus the cell's
// trial0 offset into the concatenated trial list — so workers derive
// exactly the seeds run_sweep would have used, and the responses'
// per-repetition costs are aggregated through the same
// aggregate_cells. Identical seeds in, identical kernels underneath,
// identical aggregation out: the merged report is byte-identical to an
// in-process --jobs 1 run at any worker count, including after worker
// crashes (the coordinator retries lost cells; cells are pure
// functions of their request).
//
// Telemetry reassembly: every cell response carries the snapshot of a
// registry that observed exactly that cell (worker.hpp). Folding those
// snapshots with MetricsSnapshot::merge_from — commutative, associative
// — reproduces the cumulative metrics block a single process would
// have written, regardless of placement, retries, or cache hits. The
// metrics block holds no wall-clock quantity, so this holds at every
// phase size (docs/SERVICE.md#fleet).

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/fleet/coordinator.hpp"
#include "runtime/sweep.hpp"

namespace parbounds::fleet {

/// Execute `cells` across the fleet. Every cell must be
/// registry-routable and have trials >= 1, or this throws (a silent
/// closure fallback would defeat the byte-identity contract). Error
/// responses throw with the cell key. When `telemetry` is non-null the
/// per-cell snapshots are merged into it (it is overwritten). Timing
/// fields are left 0: fleet reports are cost-only.
runtime::SweepResult run_sweep_fleet(FleetCoordinator& fleet,
                                     std::string title,
                                     std::uint64_t base_seed,
                                     std::vector<runtime::SweepCell> cells,
                                     obs::MetricsSnapshot* telemetry);

}  // namespace parbounds::fleet
