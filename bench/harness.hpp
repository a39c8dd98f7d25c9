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
// --json); --workers routes sweeps of ServiceSpec cells across
// re-exec'd worker processes (docs/SERVICE.md#fleet).
//
// --json writes two files (src/runtime/bench_json.hpp): the report,
// whose bytes are the same at any --jobs, --threads or --workers, and
// next to it the ops file (BENCH_<name>.ops.json) with the settings,
// the host block, the wall times and the paired wall-clock ratios a
// bench recorded with ratio() or gated with gate_floor()/gate_ceiling().
//
// The report's "metrics" block has one path: every sweep, local or on
// the fleet, is observed on its own registry and merged into the
// session. Nothing is installed process-wide, so a machine that runs
// outside a sweep (an oracle, a timed region) never reaches the report.
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
#include "runtime/paired_ratio.hpp"
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
    if (!trace_path_.empty()) {
      tracer_ = std::make_unique<obs::Tracer>();
      obs::install_process_tracer(tracer_.get());
    }
    if (flags.workers > 0) {
      fleet::FleetConfig cfg;
      cfg.workers = flags.workers;
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

  /// Fresh base seed for the next sweep, derived from the root
  /// seed and a per-binary ordinal (decouples sweeps from each other).
  std::uint64_t next_base_seed() {
    return runtime::derive_seed(kSeed, 0x5eedULL + sweep_ordinal_++);
  }

  /// Append a sweep to the report and fold what it was observed to do
  /// into the metrics block (with --json; merge order cannot change the
  /// bytes — every operator is commutative and associative).
  const runtime::SweepResult& record(runtime::SweepResult s,
                                     const obs::MetricsSnapshot& observed) {
    report_.sweeps.push_back(std::move(s));
    if (!json_path_.empty()) {
      if (report_.sweeps.size() == 1)
        metrics_ = observed;
      else
        metrics_.merge_from(observed);
      report_.metrics_json = metrics_.to_json();
    }
    return report_.sweeps.back();
  }

  /// Record a paired wall-clock ratio and print it. The ops file gets
  /// the median under `name`, next to `name`/spread and `name`/pairs
  /// (the report holds model data alone).
  void ratio(const std::string& name, const runtime::PairedRatio& r) {
    gate(name, r, true, "-");
  }

  /// Record a ratio and gate it on a floor (runtime::holds_floor); a
  /// floor of 0 records only. A failed gate makes finish() exit 1 after
  /// the report and the ops file are written.
  void gate_floor(const std::string& name, const runtime::PairedRatio& r,
                  double bound) {
    if (bound <= 0.0) return ratio(name, r);
    gate(name, r, runtime::holds_floor(r, bound),
         ">= " + TextTable::num(bound, 2));
  }

  /// Record a ratio and gate it on a ceiling (runtime::holds_ceiling).
  void gate_ceiling(const std::string& name, const runtime::PairedRatio& r,
                    double bound) {
    gate(name, r, runtime::holds_ceiling(r, bound),
         "<= " + TextTable::num(bound, 2));
  }

  /// Write the JSON report and span trace if requested. Returns the
  /// process exit code: 1 when a gate failed, each failure named on
  /// stderr.
  int finish() {
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
          stderr, "bench: %s: fleet spawn=%llu exit=%llu retry=%llu\n",
          report_.bench.c_str(),
          static_cast<unsigned long long>(fleet_->counter("fleet.worker.spawn")),
          static_cast<unsigned long long>(fleet_->counter("fleet.worker.exit")),
          static_cast<unsigned long long>(fleet_->counter("fleet.worker.retry")));
    }
    if (json_path_.empty()) return gate_exit();
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
    return gate_exit();
  }

 private:
  BenchSession() = default;

  void gate(const std::string& name, const runtime::PairedRatio& r, bool ok,
            const std::string& bound) {
    report_.ratios.emplace_back(name, r.ratio.median);
    report_.ratios.emplace_back(name + "/spread", r.spread);
    report_.ratios.emplace_back(name + "/pairs",
                                static_cast<double>(r.pairs.size()));
    char line[320];
    std::snprintf(line, sizeof line,
                  "%s: median %.3f, spread %.3f, %zu pairs (A %.3f ms, "
                  "B %.3f ms), gate %s",
                  name.c_str(), r.ratio.median, r.spread, r.pairs.size(),
                  r.a_ms, r.b_ms, bound.c_str());
    std::printf("%s%s\n", line, ok ? "" : " FAILED");
    if (!ok) failed_gates_.emplace_back(line);
  }

  int gate_exit() const {
    for (const auto& g : failed_gates_)
      std::fprintf(stderr, "bench: %s: gate failed: %s\n",
                   report_.bench.c_str(), g.c_str());
    return failed_gates_.empty() ? 0 : 1;
  }

  std::string json_path_;
  std::string trace_path_;
  std::unique_ptr<runtime::ExperimentRunner> runner_ =
      std::make_unique<runtime::ExperimentRunner>();
  runtime::BenchReport report_;
  std::uint64_t sweep_ordinal_ = 0;
  obs::MetricsSnapshot metrics_;  ///< merged across the recorded sweeps
  std::vector<std::string> failed_gates_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<fleet::FleetCoordinator> fleet_;
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

/// Run `fn` with a fresh TelemetryObserver installed process-wide and
/// return what it observed: every engine phase `fn` commits, on any
/// thread.
template <class Fn>
obs::MetricsSnapshot observe(Fn&& fn) {
  obs::MetricsRegistry registry;
  obs::TelemetryObserver telemetry(registry);
  obs::install_process_telemetry(&telemetry);
  struct Detach {
    ~Detach() { obs::install_process_telemetry(nullptr); }
  } detach;
  fn();
  return registry.snapshot();
}

/// Run a sweep at `base_seed` and record it. A cell that carries a
/// ServiceSpec must not also set `run`: its body is spec_body(). Under
/// --workers a sweep of such cells runs across the process fleet (same
/// derived seeds, same kernels, same aggregation). A sweep with no
/// ServiceSpec at all (audits, multi-value replays) runs on the session
/// runner either way; one that mixes routable and closure-only cells is
/// a hard error on the fleet, not a silent fallback. With --json the
/// sweep is observed on its own registry, here or in the workers, and
/// merged into the report's metrics block.
inline const runtime::SweepResult& sweep(std::string title,
                                         std::vector<runtime::SweepCell> cells,
                                         std::uint64_t base_seed) {
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
    runtime::SweepResult res;
    obs::MetricsSnapshot observed;
    if (routable && s.via_fleet()) {
      res = fleet::run_sweep_fleet(s.fleet(), std::move(title), base_seed,
                                   std::move(cells),
                                   s.json_enabled() ? &observed : nullptr);
    } else {
      const auto run = [&] {
        res = runtime::run_sweep(s.runner(), std::move(title), base_seed,
                                 std::move(cells));
      };
      if (s.json_enabled())
        observed = observe(run);
      else
        run();
    }
    return s.record(std::move(res), observed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: %s%s\n", s.via_fleet() ? "--workers: " : "",
                 e.what());
    std::exit(2);
  }
}

/// Run a sweep at the session's next base seed and record it.
inline const runtime::SweepResult& sweep(
    std::string title, std::vector<runtime::SweepCell> cells) {
  const std::uint64_t base_seed = BenchSession::get().next_base_seed();
  return sweep(std::move(title), std::move(cells), base_seed);
}

// ----- the phase-commit op stream (bench_hotpath, bench_obs_overhead) ------

inline constexpr std::uint64_t kCommitProcs = 1024;
inline constexpr unsigned kCommitPhases = 64;
/// Reads land in [0, kCommitCells / 2), writes above.
inline constexpr std::uint64_t kCommitCells = 4096;

struct CommitOp {
  bool is_write;
  ProcId proc;
  Addr addr;
  Word value;
};

/// One phase's request stream: every processor issues 2 reads and 2
/// writes at random addresses, halves disjoint so the stream is legal
/// on every engine. Generated once and replayed for every phase, so
/// generation stays negligible next to the commit work.
inline std::vector<CommitOp> make_commit_ops(Rng& rng) {
  std::vector<CommitOp> ops;
  ops.reserve(kCommitProcs * 4);
  const std::uint64_t half = kCommitCells / 2;
  for (ProcId p = 0; p < kCommitProcs; ++p) {
    for (int r = 0; r < 2; ++r)
      ops.push_back({false, p, rng.next_below(half), 0});
    for (int w = 0; w < 2; ++w)
      ops.push_back({true, p, half + rng.next_below(half),
                     static_cast<Word>(1 + rng.next_below(1000))});
  }
  return ops;
}

/// Issue one phase's ops on `m`.
template <class Machine>
void issue_ops(Machine& m, const std::vector<CommitOp>& ops) {
  for (const CommitOp& op : ops) {
    if (op.is_write)
      m.write(op.proc, op.addr, op.value);
    else
      m.read(op.proc, op.addr);
  }
}

/// kCommitPhases phases of `ops` on `m`; returns its model time.
template <class Machine>
std::uint64_t replay_phases(Machine& m, const std::vector<CommitOp>& ops) {
  for (unsigned ph = 0; ph < kCommitPhases; ++ph) {
    m.begin_phase();
    issue_ops(m, ops);
    m.commit_phase();
  }
  return m.time();
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
