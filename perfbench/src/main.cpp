// perfbench — the repository benchmark. One process runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --data-dir perfbench --work-dir DIR [--corrupt-reference]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// then runs timed passes for S seconds and prints the end-to-end
// metrics. --trace 1 runs untimed-by-the-tracer passes for S/2 seconds,
// then traced passes for S/2 seconds, and prints the per-layer metrics
// derived from the traced passes' span table. Either way every op's
// output is checked after its pass, outside the timed region; the last
// stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}, and the exit code is 1 when any op failed its check.
// README.md in this directory documents the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/telemetry.hpp"
#include "runtime/bench_json.hpp"
#include "runtime/fleet/worker.hpp"
#include "runtime/simd_level.hpp"

namespace obs = parbounds::obs;
namespace runtime = parbounds::runtime;
using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/// Set-up repetitions per run; setup_s is their median. A cheap set-up
/// repeats until kSetupBudgetS is spent, so its median rests on more
/// samples.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 50;
constexpr double kSetupBudgetS = 0.5;

struct Section {
  std::vector<double> walls;
  std::vector<std::vector<double>> op_ms;  ///< per pass
};

/// Installs the process tracer and telemetry for one pass; uninstalls
/// them when the pass ends, by return or by exception.
class Instrumented {
 public:
  Instrumented(obs::Tracer* tracer, parbounds::AnalysisObserver* telemetry) {
    obs::install_process_tracer(tracer);
    obs::install_process_telemetry(telemetry);
  }
  ~Instrumented() {
    obs::install_process_telemetry(nullptr);
    obs::install_process_tracer(nullptr);
  }
  Instrumented(const Instrumented&) = delete;
  Instrumented& operator=(const Instrumented&) = delete;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload table_grids|fleet_small_cells|"
               "daemon_cache_mix|proof_machinery --seed N --seconds S "
               "--trace 0|1 --data-dir DIR --work-dir DIR "
               "[--corrupt-reference]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used, 10);
    if (used == text.size()) return v;
  } catch (const std::exception&) {
  }
  usage(flag + " expects a whole number, got '" + text + "'");
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt-reference") {
      opt.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = parse_u64(a, v);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(a, v));
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--data-dir") {
      opt.data_dir = v;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      usage("unknown flag " + a);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (opt.seconds < 1) usage("--seconds must be >= 1");
  if (opt.data_dir.empty() || opt.work_dir.empty())
    usage("--data-dir and --work-dir are required");
  return opt;
}

std::unique_ptr<Workload> make(const Options& opt) {
  if (opt.workload == "table_grids") return make_table_grids(opt);
  if (opt.workload == "fleet_small_cells") return make_fleet_small_cells(opt);
  if (opt.workload == "daemon_cache_mix") return make_daemon_cache_mix(opt);
  if (opt.workload == "proof_machinery") return make_proof_machinery(opt);
  usage("unknown workload '" + opt.workload + "'");
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void add_metric(std::string& json, const std::string& name, double value,
                const std::string& unit) {
  if (json.back() != '{') json += ',';
  json += "\"" + name + "\":{\"value\":" + num(value) + ",\"unit\":\"" +
          unit + "\"}";
  std::printf("metric %-40s %18s %s\n", name.c_str(), num(value).c_str(),
              unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Fleet workers are this binary re-exec'd; they never return from here.
  parbounds::fleet::maybe_run_worker(argc, argv);

  Options opt = parse(argc, argv);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type == "Debug" || build_type.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time a Debug build\n");
    return 2;
  }
  try {
    (void)runtime::active_simd_level();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::filesystem::create_directories(opt.work_dir);

  std::unique_ptr<Workload> w;
  std::vector<double> setup_samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Section plain;
  Section traced;
  LayerMetrics layers;
  std::string trace_path;
  std::string ops_desc;
  double rss_mb = 0.0;

  try {
    w = make(opt);
    double setup_total = 0.0;
    while (static_cast<int>(setup_samples.size()) < kMinSetupReps ||
           (setup_total < kSetupBudgetS &&
            static_cast<int>(setup_samples.size()) < kMaxSetupReps)) {
      const auto t0 = Clock::now();
      w->setup();
      setup_samples.push_back(seconds_since(t0));
      setup_total += setup_samples.back();
    }
    ops_desc = w->describe();
    w->prepare_check();

    // A plain pass passes null tracer and telemetry.
    const auto run_pass = [&](Section& sec, obs::Tracer* tr,
                              parbounds::AnalysisObserver* tel) {
      std::vector<double> op_ms;
      w->reset();
      double wall = 0.0;
      {
        const Instrumented on(tr, tel);
        const auto t0 = Clock::now();
        w->pass(op_ms);
        wall = seconds_since(t0);
      }
      attempted += op_ms.size();
      failed += w->check_pass();
      sec.walls.push_back(wall);
      sec.op_ms.push_back(std::move(op_ms));
    };

    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    auto start = Clock::now();
    do {
      run_pass(plain, nullptr, nullptr);
    } while (seconds_since(start) < budget);

    if (opt.trace) {
      obs::Tracer tracer(w->trace_capacity());
      obs::MetricsRegistry registry;
      obs::TelemetryObserver telemetry(registry);
      w->begin_traced();
      start = Clock::now();
      do {
        run_pass(traced, &tracer, &telemetry);
      } while (seconds_since(start) < budget);

      const SpanTable table = span_table(tracer);
      TracedRun tr;
      tr.spans = &table;
      tr.telemetry = registry.snapshot();
      tr.passes = static_cast<unsigned>(traced.walls.size());
      for (const double wall : traced.walls) tr.wall_s += wall;
      w->layer_metrics(tr, layers);
      layers.set("obs.trace_overhead",
                 median(traced.walls) / median(plain.walls));
      layers.set("obs.spans_dropped", static_cast<double>(tracer.dropped()));

      const std::string stem = opt.work_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed);
      trace_path = stem + ".trace.json";
      if (!obs::write_text_file(trace_path, obs::chrome_trace_json(tracer)) ||
          !obs::write_text_file(stem + ".spans.txt", span_table_text(table)))
        throw std::runtime_error("cannot write the trace under " +
                                 opt.work_dir);
      std::printf("%s", span_table_text(table).c_str());
    }
    rss_mb = peak_rss_mb();
    w.reset();  // stops the system under test (joins threads, reaps workers)
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  // Op latencies are pooled over the timed passes: one pass whose median
  // lands in a sparse stretch of a mixed op set then moves the result
  // less than it moves a median of per-pass medians.
  std::vector<double> all_ops;
  std::vector<double> rates;
  std::size_t ops_per_pass = 0;
  double tail_p = 50.0;
  for (std::size_t i = 0; i < plain.walls.size(); ++i) {
    const auto& ops = plain.op_ms[i];
    ops_per_pass = ops.size();
    tail_p = tail_percentile(ops.size());
    all_ops.insert(all_ops.end(), ops.begin(), ops.end());
    rates.push_back(static_cast<double>(ops.size()) / plain.walls[i]);
    std::printf("pass %zu wall_s=%.6f op_p50_ms=%.6f op_tail_ms=%.6f\n", i,
                plain.walls[i], percentile(ops, 50.0),
                percentile(ops, tail_p));
  }

  std::printf(
      "provenance {\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%u,"
      "\"build_type\":\"%s\",\"simd\":\"%s\",\"passes\":%zu,"
      "\"traced_passes\":%zu,\"ops_per_pass\":%zu,\"tail_percentile\":%g,"
      "\"setup_reps\":%zu,\"ops\":\"%s\",\"host\":%s}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.nproc, build_type.c_str(),
      runtime::simd_level_name(runtime::active_simd_level()),
      plain.walls.size(), traced.walls.size(), ops_per_pass, tail_p,
      setup_samples.size(), runtime::json_escape(ops_desc).c_str(),
      runtime::host_json().c_str());
  if (!trace_path.empty())
    std::printf("trace %s (load in https://ui.perfetto.dev)\n",
                trace_path.c_str());
  std::printf("metric %-40s %18s ratio\n", "fail_ratio",
              num(attempted == 0 ? 1.0
                                 : static_cast<double>(failed) /
                                       static_cast<double>(attempted))
                  .c_str());

  std::string metrics = "{";
  if (opt.trace) {
    for (const auto& [m, v] : layers.values()) add_metric(metrics, m.name, v, m.unit);
  } else {
    add_metric(metrics, "setup_s", median(setup_samples), "s");
    add_metric(metrics, "wall_s", median(plain.walls), "s");
    add_metric(metrics, "ops_per_s", median(rates), "1/s");
    add_metric(metrics, "op_p50_ms", percentile(all_ops, 50.0), "ms");
    add_metric(metrics, "op_tail_ms", percentile(all_ops, tail_p), "ms");
    add_metric(metrics, "peak_rss_mb", rss_mb, "MiB");
  }
  metrics += "}";
  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
