#pragma once
// Machine-readable bench output. Every bench binary can serialize its
// executed sweeps as one JSON document (schema "parbounds-bench-v1"):
// configuration, per-trial model costs, per-trial named values (only
// on cells whose trials report them: rounds, phases, verdicts, ...),
// aggregates, wall times and the speedup over the serial baseline. This is what turns BENCH_*.json
// into a perf trajectory — model costs are bit-stable across runs and
// thread counts, so any drift in them is a regression, while the wall
// fields track the simulator's own throughput.
//
// Doubles are printed with %.17g so parsing the file back reproduces
// the measured costs exactly; `to_json(report, /*include_timing=*/false)`
// omits every wall-clock field, which makes serial and parallel runs of
// the same experiment serialize to identical bytes (the golden-schema
// test relies on this).

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/sweep.hpp"

namespace parbounds::runtime {

struct BenchReport {
  std::string bench;        ///< binary name, e.g. "bench_table1_qsm_time"
  unsigned jobs = 1;        ///< worker threads used for the sweeps
  unsigned threads = 1;     ///< intra-trial ParallelFor pool size
  std::uint64_t seed = 0;   ///< root seed the sweep base seeds derive from
  /// Pre-serialized MetricsSnapshot::to_json() captured after the last
  /// sweep (empty = no "metrics" key). Metric values derive from model
  /// costs only, so the block is bit-identical across --jobs.
  std::string metrics_json;
  std::vector<SweepResult> sweeps;
};

/// Total wall / serial-wall across sweeps; 1.0 when nothing was timed.
double report_speedup(const BenchReport& report);

/// The "host" provenance block: hardware_concurrency of the machine the
/// bench ran on, the CMake build type baked into the library, the
/// compiler, the active SIMD dispatch level and the probed cpu feature
/// flags (docs/PERF.md). Wall numbers are only comparable within a
/// matching host block, so every timed report carries one.
std::string host_json();

/// True only if every sweep's serial baseline matched bit for bit.
bool report_deterministic(const BenchReport& report);

/// JSON escape for string values (quotes, backslashes, control chars).
std::string json_escape(const std::string& s);

std::string to_json(const BenchReport& report, bool include_timing = true);

}  // namespace parbounds::runtime
