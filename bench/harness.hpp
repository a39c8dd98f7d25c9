#pragma once
// Shared measurement harness for the Table 1 reproduction benches.
//
// Every helper builds a fresh machine, stages a workload, runs one
// algorithm, and returns the MODEL cost (the paper's notion of time), not
// wall-clock. Each bench binary prints a paper-style table next to the
// corresponding lower-bound curve. Every table row that executes a
// machine is a SweepCell run through sweep() below — the one way a row
// is executed and reaches the --json report; rows that yield more than
// a cost (rounds, verdicts, replays) return them as named values.
//
// All trials fan out through the work-stealing ExperimentRunner
// (src/runtime) with deterministic per-trial seeds, so every printed
// number is bit-identical for any --jobs value. The flags every bench
// accepts — and the did-you-mean rejection of anything else — are
// documented in src/runtime/harness_flags.hpp and docs/RUNTIME.md. The
// session below gives them their bench meaning: --json defaults to
// BENCH_<name>.json and --trace to TRACE_<name>.json (--trace implies
// --json, and either installs the process TelemetryObserver so the
// report carries a "metrics" block); --workers routes sweeps of
// ServiceSpec cells across re-exec'd worker processes
// (docs/SERVICE.md#fleet).
//
// --json writes two files (src/runtime/bench_json.hpp): the report,
// whose bytes are the same at any --jobs, --threads or --workers, and
// next to it the ops file (BENCH_<name>.ops.json) with the settings,
// the host block, the wall times and the wall-clock ratios a bench
// recorded with ratio().
//
// The PARBOUNDS_SIMD environment variable (portable|avx2|avx512) pins
// the BoolFn kernel dispatch level for the whole run; unknown values or
// tiers the cpu cannot run are typed errors (exit 2), and the ops file
// records the active level in its host block (docs/PERF.md, "SIMD
// kernel dispatch").
//
// A cell whose body is a registry workload at the trial seed is declared
// by its ServiceSpec alone; sweep() runs it through service::run_spec
// (spec_body), the call a fleet worker makes, so --workers can route it.
// Other cells (fixed seeds, replays, audits) keep a closure and call
// kernels:: (src/algos/cost_kernels.hpp) by its qualified name.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algos/broadcast.hpp"
#include "algos/bsp_prefix.hpp"
#include "algos/cost_kernels.hpp"
#include "algos/lac.hpp"
#include "algos/or_func.hpp"
#include "algos/padded_sort.hpp"
#include "algos/parity.hpp"
#include "algos/prefix.hpp"
#include "algos/reduce.hpp"
#include "bounds/gsm_bounds.hpp"
#include "bounds/model_bounds.hpp"
#include "bounds/upper_bounds.hpp"
#include "core/mapping.hpp"
#include "core/rounds.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "runtime/bench_json.hpp"
#include "runtime/fleet/sweep_fleet.hpp"
#include "runtime/fleet/worker.hpp"
#include "runtime/harness_flags.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/simd_level.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"
#include "runtime/sweep_service/registry.hpp"
#include "util/mathx.hpp"
#include "util/table.hpp"
#include "workloads/generators.hpp"

namespace parbounds::bench {

inline constexpr std::uint64_t kSeed = 0xb0a710adULL;

/// Default repetitions for randomized cells. The parallel runner makes
/// wider averaging affordable; the serial harness used 3.
inline constexpr unsigned kReps = 5;

/// Average a cost function over `reps` derived seeds, serially. Meant
/// for use *inside* a runner trial (nested fan-out runs inline anyway);
/// top-level sweeps should declare SweepCells with trials = kReps.
inline double avg_cost(const std::function<double(std::uint64_t)>& run,
                       unsigned reps = kReps) {
  double total = 0.0;
  for (unsigned r = 0; r < reps; ++r)
    total += run(runtime::derive_seed(kSeed, r));
  return total / reps;
}

// ----- per-binary session (flag parsing, runner, JSON report) ---------------

class BenchSession {
 public:
  static BenchSession& get() {
    static BenchSession s;
    return s;
  }

  /// Parse the harness flags from argv. --json without a path defaults to
  /// BENCH_<name>.json, --trace to TRACE_<name>.json; --trace alone
  /// also turns the JSON report on so the trace always ships with its
  /// metrics block.
  void init(int& argc, char** argv, std::string name) {
    // Fleet front door: when this binary was re-exec'd as a fleet
    // worker, serve requests and exit — before any flag parsing
    // touches argv.
    fleet::maybe_run_worker(argc, argv);
    report_.bench = std::move(name);
    report_.seed = kSeed;
    const auto flags = runtime::parse_harness_flags(
        argc, argv, "BENCH_" + report_.bench + ".json",
        "TRACE_" + report_.bench + ".json");
    if (flags.error) {
      std::fprintf(stderr, "bench: %s\n", flags.error_message.c_str());
      std::exit(2);
    }
    // Resolve the SIMD dispatch level up front so a bad PARBOUNDS_SIMD
    // pin fails like any other flag error (typed message, exit 2)
    // instead of surfacing as an uncaught exception mid-sweep.
    try {
      (void)runtime::active_simd_level();
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bench: %s\n", e.what());
      std::exit(2);
    }
    json_path_ = flags.json_path;
    trace_path_ = flags.trace_path;
    if (!trace_path_.empty() && json_path_.empty())
      json_path_ = "BENCH_" + report_.bench + ".json";
    // Fleet mode pins the parent to jobs=1/threads=1: the parallelism
    // is the fleet's width.
    runner_ = std::make_unique<runtime::ExperimentRunner>(
        runtime::RunnerConfig{.jobs = flags.workers > 0 ? 1u : flags.jobs});
    report_.jobs = runner_->jobs();
    // One pool governs all intra-trial parallelism (BoolFn transforms,
    // adversary folds); it follows --jobs unless --threads overrides.
    runtime::ParallelFor::pool().set_threads(
        flags.workers > 0 ? 1u : flags.resolved_threads(runner_->jobs()));
    report_.threads = runtime::ParallelFor::pool().threads();
    report_.workers = flags.workers;
    // Fleet runs keep the metrics block, but it is reassembled from
    // per-cell worker snapshots (run_sweep_fleet), never observed in
    // this process.
    if (!json_path_.empty() && flags.workers == 0) {
      telemetry_ = std::make_unique<obs::TelemetryObserver>(registry_);
      obs::install_process_telemetry(telemetry_.get());
    }
    if (!trace_path_.empty()) {
      tracer_ = std::make_unique<obs::Tracer>();
      obs::install_process_tracer(tracer_.get());
    }
    if (flags.workers > 0) {
      fleet::FleetConfig cfg;
      cfg.workers = flags.workers;
      if (flags.fleet_window > 0) cfg.window = flags.fleet_window;
      // The shared cell cache is opt-in: only an explicit --cache-dir
      // makes the fleet memoize (warm replays must be asked for).
      cfg.cache_dir = flags.cache_dir;
      cfg.cache_bytes = flags.cache_bytes;
      try {
        fleet_ = std::make_unique<fleet::FleetCoordinator>(cfg);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench: --workers: %s\n", e.what());
        std::exit(2);
      }
    }
  }

  const runtime::ExperimentRunner& runner() const { return *runner_; }
  bool json_enabled() const { return !json_path_.empty(); }
  bool via_fleet() const { return fleet_ != nullptr; }
  fleet::FleetCoordinator& fleet() { return *fleet_; }

  /// Fold one sweep's reassembled worker telemetry into the report's
  /// metrics block (fleet mode only; merge order cannot change the
  /// bytes — every operator is commutative and associative).
  void merge_fleet_metrics(const obs::MetricsSnapshot& snap) {
    if (json_path_.empty()) return;
    if (!fleet_metrics_valid_) {
      fleet_metrics_ = snap;
      fleet_metrics_valid_ = true;
    } else {
      fleet_metrics_.merge_from(snap);
    }
    report_.metrics_json = fleet_metrics_.to_json();
  }

  /// Fresh base seed for the next sweep, derived from the root
  /// seed and a per-binary ordinal (decouples sweeps from each other).
  std::uint64_t next_base_seed() {
    return runtime::derive_seed(kSeed, 0x5eedULL + sweep_ordinal_++);
  }

  /// Append a sweep to the report and re-snapshot the registry into it,
  /// so the metrics block counts exactly the sweeps' executions.
  const runtime::SweepResult& record(runtime::SweepResult s) {
    report_.sweeps.push_back(std::move(s));
    if (telemetry_ != nullptr)
      report_.metrics_json = registry_.snapshot().to_json();
    return report_.sweeps.back();
  }

  /// Record a measured wall-clock ratio (a speedup, an overhead). It
  /// goes to the ops file only: the report holds model data alone.
  void ratio(std::string name, double value) {
    report_.ratios.emplace_back(std::move(name), value);
  }

  /// Write the JSON report and span trace if requested. Returns the
  /// process exit code.
  int finish() {
    obs::install_process_telemetry(nullptr);
    obs::install_process_tracer(nullptr);
    if (tracer_ != nullptr) {
      if (!obs::write_text_file(trace_path_, obs::chrome_trace_json(*tracer_))) {
        std::fprintf(stderr, "bench: cannot write %s\n", trace_path_.c_str());
        return 1;
      }
      std::fprintf(stderr, "bench: %s: span trace -> %s (load in Perfetto)\n%s",
                   report_.bench.c_str(), trace_path_.c_str(),
                   obs::top_n_summary(*tracer_, 10).c_str());
    }
    if (fleet_ != nullptr) {
      // Fleet health on stderr (never in the report: the JSON must stay
      // byte-identical to an in-process run).
      std::fprintf(
          stderr, "bench: %s: fleet spawn=%llu exit=%llu retry=%llu reassign=%llu\n",
          report_.bench.c_str(),
          static_cast<unsigned long long>(fleet_->counter("fleet.worker.spawn")),
          static_cast<unsigned long long>(fleet_->counter("fleet.worker.exit")),
          static_cast<unsigned long long>(fleet_->counter("fleet.worker.retry")),
          static_cast<unsigned long long>(
              fleet_->counter("fleet.worker.reassign")));
    }
    if (json_path_.empty()) return 0;
    const std::string ops = runtime::ops_path(json_path_);
    if (!obs::write_text_file(json_path_, runtime::to_json(report_)) ||
        !obs::write_text_file(ops, runtime::ops_json(report_))) {
      std::fprintf(stderr, "bench: cannot write %s or %s\n",
                   json_path_.c_str(), ops.c_str());
      return 1;
    }
    std::fprintf(stderr, "bench: %s: jobs=%u threads=%u sweeps=%zu -> %s, %s\n",
                 report_.bench.c_str(), report_.jobs, report_.threads,
                 report_.sweeps.size(), json_path_.c_str(), ops.c_str());
    return 0;
  }

 private:
  BenchSession() = default;
  std::string json_path_;
  std::string trace_path_;
  std::unique_ptr<runtime::ExperimentRunner> runner_ =
      std::make_unique<runtime::ExperimentRunner>();
  runtime::BenchReport report_;
  std::uint64_t sweep_ordinal_ = 0;
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::TelemetryObserver> telemetry_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<fleet::FleetCoordinator> fleet_;
  obs::MetricsSnapshot fleet_metrics_;  ///< merged across sweeps
  bool fleet_metrics_valid_ = false;
};

/// Bench-main bootstrap: parse/strip harness flags.
inline BenchSession& session_init(int& argc, char** argv, std::string name) {
  auto& s = BenchSession::get();
  s.init(argc, argv, std::move(name));
  return s;
}

/// The local body of a cell declared by its spec alone: the registry
/// kernel at the trial seed, through the run_spec a fleet worker calls.
inline std::function<runtime::Trial(std::uint64_t)> spec_body(
    const runtime::SweepCell& cell) {
  return [key = cell.key, spec = cell.spec](std::uint64_t seed) {
    double cost = 0.0;
    std::string err;
    if (!service::run_spec(spec, seed, cost, err))
      throw std::invalid_argument("cell '" + key + "': " + err);
    return runtime::Trial(cost);
  };
}

/// Run a sweep through the session runner. A cell that carries a
/// ServiceSpec must not also set `run`: its body is spec_body(). Under
/// --workers a sweep of such cells runs across the process fleet (same
/// derived seeds, same kernels, same aggregation). A sweep with no
/// ServiceSpec at all (audits, multi-value replays) runs on the session
/// runner either way; one that mixes routable and closure-only cells is
/// a hard error on the fleet, not a silent fallback.
inline const runtime::SweepResult& sweep(
    std::string title, std::vector<runtime::SweepCell> cells) {
  auto& s = BenchSession::get();
  try {
    bool routable = false;
    for (auto& c : cells) {
      if (!c.spec.routable()) continue;
      if (c.run)
        throw std::invalid_argument("cell '" + c.key +
                                    "' sets both .run and .spec");
      c.run = spec_body(c);
      routable = true;
    }
    if (routable && s.via_fleet()) {
      obs::MetricsSnapshot snap;
      const auto& res = s.record(fleet::run_sweep_fleet(
          s.fleet(), std::move(title), s.next_base_seed(), std::move(cells),
          s.json_enabled() ? &snap : nullptr));
      if (s.json_enabled()) s.merge_fleet_metrics(snap);
      return res;
    }
    if (s.via_fleet() && s.json_enabled()) {
      // The fleet's metrics block is merged from per-sweep snapshots, so
      // a sweep run here contributes its own, observed on a fresh
      // registry.
      obs::MetricsRegistry registry;
      obs::TelemetryObserver telemetry(registry);
      obs::install_process_telemetry(&telemetry);
      const auto& res = s.record(runtime::run_sweep(
          s.runner(), std::move(title), s.next_base_seed(), std::move(cells)));
      obs::install_process_telemetry(nullptr);
      s.merge_fleet_metrics(registry.snapshot());
      return res;
    }
    return s.record(runtime::run_sweep(s.runner(), std::move(title),
                                       s.next_base_seed(), std::move(cells)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: %s%s\n", s.via_fleet() ? "--workers: " : "",
                 e.what());
    std::exit(2);
  }
}

// ----- formatting ----------------------------------------------------------------

/// The "n=..,g=.." cell key of the shared-memory time tables.
inline std::string key_ng(std::uint64_t n, std::uint64_t g) {
  return "n=" + std::to_string(n) + ",g=" + std::to_string(g);
}

/// Standard columns: sweep key, measured, lower bound, measured/LB ratio,
/// upper-bound formula, measured/UB ratio.
inline std::vector<std::string> row(const std::string& key, double measured,
                                    double lb, double ub) {
  return {key,
          TextTable::num(measured, 0),
          TextTable::num(lb, 1),
          TextTable::num(measured / std::max(lb, 1e-9), 2),
          TextTable::num(ub, 1),
          TextTable::num(measured / std::max(ub, 1e-9), 2)};
}

inline std::vector<std::string> std_header(const std::string& key) {
  return {key,       "measured", "lower-bd", "meas/LB",
          "UB-claim", "meas/UB"};
}

/// Run the cells through the session runner and print the standard
/// 6-column table (banner, key, measured mean, LB, ratio, UB, ratio).
inline void sweep_table(const std::string& title, const std::string& key_col,
                        std::vector<runtime::SweepCell> cells) {
  std::printf("%s", banner(title).c_str());
  const auto& res = sweep(title, std::move(cells));
  TextTable t(std_header(key_col));
  for (const auto& c : res.cells) t.add_row(row(c.key, c.mean, c.lb, c.ub));
  std::printf("%s\n", t.render().c_str());
}

}  // namespace parbounds::bench
