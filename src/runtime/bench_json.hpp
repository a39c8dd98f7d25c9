#pragma once
// Machine-readable bench output, in two files.
//
// to_json() writes the report (schema "parbounds-bench-v2"): the bench
// name, the root seed, the metrics block and every sweep's per-trial
// model costs, named per-trial values (only on cells whose trials
// report them: rounds, phases, verdicts, ...), aggregates and lb/ub.
// Nothing in it depends on the wall clock, the machine, --jobs,
// --threads or --workers, so two runs of one bench must produce the
// same bytes and a plain `cmp` checks that. Doubles are printed with
// %.17g, so parsing the file back reproduces the measured costs
// exactly.
//
// ops_json() writes the ops file (schema "parbounds-ops-v1") next to
// it: the execution settings, the host block, total and per-sweep wall
// times and any wall-clock ratios a bench measured. This is the
// simulator's throughput record; it differs from run to run.

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/sweep.hpp"

namespace parbounds::runtime {

struct BenchReport {
  std::string bench;        ///< binary name, e.g. "bench_table1_qsm_time"
  std::uint64_t seed = 0;   ///< root seed the sweep base seeds derive from
  /// Pre-serialized MetricsSnapshot::to_json() captured after the last
  /// sweep (empty = no "metrics" key). Metric values derive from model
  /// costs only, so the block is bit-identical across --jobs.
  std::string metrics_json;
  std::vector<SweepResult> sweeps;

  // Ops file only (ops_json):
  unsigned jobs = 1;        ///< worker threads used for the sweeps
  unsigned threads = 1;     ///< intra-trial ParallelFor pool size
  unsigned workers = 0;     ///< fleet worker processes (0 = in-process)
  /// Wall-clock ratios a bench measured (speedups, overheads), in the
  /// order it recorded them.
  NamedValues ratios;
};

/// The "host" provenance block: hardware_concurrency of the machine the
/// bench ran on, the CMake build type baked into the library, the
/// compiler, the active SIMD dispatch level and the probed cpu feature
/// flags (docs/PERF.md). Wall numbers are only comparable within a
/// matching host block, so every ops file carries one.
std::string host_json();

/// JSON escape for string values (quotes, backslashes, control chars).
std::string json_escape(const std::string& s);

/// The deterministic report. The trailing bool is accepted and ignored,
/// so callers written against the old timing switch keep compiling.
std::string to_json(const BenchReport& report, bool = false);

/// The ops file: jobs, threads, workers, host, wall times and ratios.
std::string ops_json(const BenchReport& report);

/// Where the ops file of a report at `json_path` goes: X.json becomes
/// X.ops.json; any other path gets ".ops.json" appended.
std::string ops_path(const std::string& json_path);

}  // namespace parbounds::runtime
