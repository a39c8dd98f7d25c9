#pragma once
// perfbench harness: the pieces every workload shares.
//
// A workload is a fixed set of ops built from the run's seed. main.cpp
// sets it up several times (each set-up is one setup_s sample), then
// runs timed passes over the op set until the run's time is spent. Each
// pass records one latency per op; the pass's outputs are checked right
// after the pass, outside the timed region. A traced run repeats the
// passes with the process tracer and TelemetryObserver installed and
// derives the per-layer metrics from the resulting span table.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test: perturb one reference value so the output check must fire.
  bool corrupt_reference = false;
  std::string data_dir;  ///< perfbench/ (reference digests)
  std::string work_dir;  ///< scratch for caches and traces
  unsigned nproc = 1;
};

/// Span names must outlive the tracer (obs::SpanEvent keeps the pointer):
/// intern them once, at set-up, never on the hot path.
const char* span_name(const std::string& name);

/// Per-span-name totals of one tracer: count, inclusive time, self time
/// (inclusive minus the time covered by direct child spans on the same
/// thread) and the longest single span.
struct SpanStat {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double max_s = 0.0;
};
using SpanTable = std::map<std::string, SpanStat>;

SpanTable span_table(const parbounds::obs::Tracer& tracer);
std::string span_table_text(const SpanTable& table);

/// Sum of the spans whose name starts with `prefix`.
SpanStat span_sum(const SpanTable& table, const std::string& prefix);

/// The per-layer metric catalogue (name, unit), in report order. Every
/// traced run reports every entry; a layer a workload does not exercise
/// reads 0. BENCHMARK.json's per_layer list mirrors this table.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_catalogue();

class LayerMetrics {
 public:
  LayerMetrics();
  /// Throws std::logic_error for a name missing from the catalogue.
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  const std::vector<std::pair<LayerMetric, double>>& values() const {
    return values_;
  }

 private:
  std::vector<std::pair<LayerMetric, double>> values_;
};

/// What a traced section hands to a workload's layer_metrics().
struct TracedRun {
  const SpanTable* spans = nullptr;
  parbounds::obs::MetricsSnapshot telemetry;  ///< TelemetryObserver counters
  unsigned passes = 0;                        ///< traced passes run
  double wall_s = 0.0;                        ///< summed traced pass walls
};

/// Telemetry counter value by name (0 when absent).
std::uint64_t counter(const parbounds::obs::MetricsSnapshot& snap,
                      const std::string& name);

/// Span name for one kernel call: "algos.<workload>[<kind>]", where kind
/// is the machine kind the engine traces as (qsm, sqsm, bsp).
const char* kernel_span(const std::string& engine, const std::string& workload);

/// algos.<workload>.{calls,busy_s} from the kernel spans, core.<kind>.*
/// for the qsm/sqsm/bsp kinds from the telemetry counters plus the kernel
/// span time per kind, and core.commit.* — all per traced pass.
void set_kernel_layers(const TracedRun& run, LayerMetrics& out);

/// runtime.* from the runner.trial spans: trials, busy time, the longest
/// trial and idle = jobs * wall - busy, per traced pass.
void set_runtime_layers(const TracedRun& run, unsigned jobs,
                        LayerMetrics& out);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the inputs and start the system under test, replacing any
  /// previous instance. Timed as one setup_s sample; called several times.
  virtual void setup() = 0;
  /// Untimed, once after the last set-up: build what check_pass compares
  /// against (default: nothing).
  virtual void prepare_check() {}
  /// Untimed: restore the state a pass starts from (default: nothing).
  virtual void reset() {}
  /// One timed pass over the fixed op set. Appends one latency (ms) per
  /// op to `op_ms`; keeps whatever the check needs.
  virtual void pass(std::vector<double>& op_ms) = 0;
  /// Untimed: check the outputs of the pass just run. Returns how many of
  /// its ops failed (wrong output, error, or refused).
  virtual std::uint64_t check_pass() = 0;
  /// Called once before the first traced pass.
  virtual void begin_traced() {}
  /// Derive this workload's per-layer metrics from the traced passes.
  virtual void layer_metrics(const TracedRun& run, LayerMetrics& out) = 0;
  /// Tracer buffer capacity per thread (events). Workloads that spawn a
  /// thread per batch keep it small: each new thread allocates a buffer.
  virtual std::size_t trace_capacity() const { return std::size_t{1} << 18; }
  /// Untimed one-line description of the op set, for the provenance line.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_table_grids(const Options& opt);
std::unique_ptr<Workload> make_fleet_small_cells(const Options& opt);
std::unique_ptr<Workload> make_daemon_cache_mix(const Options& opt);
std::unique_ptr<Workload> make_proof_machinery(const Options& opt);

// ----- small statistics helpers ---------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// The highest whole percentile that leaves at least ten of `n` samples
/// beyond it (p90 at n = 100, p95 at n = 200), never below the median.
double tail_percentile(std::size_t n);

/// Peak resident set of this process plus its live and reaped children,
/// in MiB.
double peak_rss_mb();

}  // namespace perfbench
