// Workload fleet_small_cells: back-to-back sweeps of a few hundred tiny
// registry cells (n <= 2^10, mixed engines) through fleet::run_sweep_fleet
// on one FleetCoordinator with workers = nproc, the default credit window
// and wire, and no cell cache. Op = one sweep; a pass is kSweepsPerPass
// sweeps cycling over kSweepSets distinct cell sets, all on the same
// coordinator.
//
// Set-up spawns the coordinator (fork/exec of this binary plus the wire
// handshake); so does the untimed reset before each pass (see reset()).
// Kernels are cheap here: dispatch, wire encode/decode, pipe I/O and the
// merge dominate.
//
// Check: every sweep's timing-free JSON matches, byte for byte, an
// in-process run_sweep (jobs = 1) of the same cells and base seed.

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "harness.hpp"
#include "obs/span.hpp"
#include "runtime/bench_json.hpp"
#include "runtime/fleet/coordinator.hpp"
#include "runtime/fleet/sweep_fleet.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"
#include "runtime/sweep_service/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace runtime = parbounds::runtime;
namespace fleet = parbounds::fleet;
using runtime::SweepCell;

constexpr unsigned kCellsPerSweep = 192;
constexpr unsigned kSweepSets = 4;
constexpr unsigned kSweepsPerPass = 100;

constexpr const char* kFleetCounters[] = {
    "fleet.bytes_tx",     "fleet.bytes_rx",    "fleet.frames_tx",
    "fleet.frames_rx",    "fleet.worker.retry", "fleet.worker.exit",
    "fleet.worker.reassign"};

/// Tiny registry cell number c: the kernel and n = 2^4..2^10 cycle with c,
/// so every seed gets the same mix of work; `rng` draws the parameters.
runtime::ServiceSpec tiny_spec(unsigned c, parbounds::Rng& rng) {
  const std::uint64_t n = std::uint64_t{1} << (4 + (c / 6) % 7);
  const std::uint64_t g = std::uint64_t{1} << (1 + rng.next_below(3));
  switch (c % 6) {
    case 0:
      return {"qsm", "parity_circuit", {{"n", n}, {"g", g}}};
    case 1:
      return {"sqsm", "parity_tree",
              {{"n", n}, {"g", g}, {"fanin", 2 + rng.next_below(3)}}};
    case 2:
      return {"qsm", "or_fanin",
              {{"n", n}, {"g", g}, {"ones", rng.next_below(n + 1)}}};
    case 3:
      return {"qsm", "lac_prefix", {{"n", n}, {"g", g}, {"h", n / 8}}};
    case 4:
      return {"sqsm", "broadcast", {{"n", n}, {"g", g}, {"fanin", 2}}};
    default:
      return {"bsp", "parity_bsp",
              {{"n", n}, {"p", 16u << (2 * rng.next_below(2))}, {"g", g / 2},
               {"L", 8u << (2 * rng.next_below(2))}}};
  }
}

std::string sweep_bytes(runtime::SweepResult sweep) {
  runtime::BenchReport report;
  report.bench = "fleet_small_cells";
  report.sweeps.push_back(std::move(sweep));
  return runtime::to_json(report, /*include_timing=*/false);
}

class FleetSmallCells final : public Workload {
 public:
  explicit FleetSmallCells(const Options& opt) : opt_(opt) {}

  void setup() override {
    sets_.clear();
    for (unsigned s = 0; s < kSweepSets; ++s) {
      parbounds::Rng rng(runtime::derive_seed(opt_.seed, 0xf1ee7 + s));
      SweepSet set;
      set.base_seed = rng.next();
      for (unsigned c = 0; c < kCellsPerSweep; ++c) {
        runtime::ServiceSpec spec = tiny_spec(c, rng);
        set.cells.push_back(
            {.key = "cell" + std::to_string(c),
             .trials = 1 + (c / 42) % 2,
             .run = [spec](std::uint64_t seed) {
               double cost = 0.0;
               std::string err;
               if (!parbounds::service::run_spec(spec, seed, cost, err))
                 throw std::runtime_error("fleet_small_cells: " + err);
               return cost;
             },
             .spec = spec});
      }
      sets_.push_back(std::move(set));
    }
    spawn();
  }

  /// Respawn the workers before every pass. A worker serves each cell
  /// under a fresh MetricsRegistry, and every registry a thread has
  /// touched stays in that thread's shard cache (obs/metrics.cpp), which
  /// each metric update scans; a worker therefore slows down the more
  /// cells it has served. Fresh workers give every pass the same start.
  void reset() override { spawn(); }

  void pass(std::vector<double>& op_ms) override {
    results_.clear();
    for (unsigned op = 0; op < kSweepsPerPass; ++op) {
      const SweepSet& set = sets_[op % sets_.size()];
      const auto t0 = Clock::now();
      {
        const parbounds::obs::Span span(parbounds::obs::process_tracer(),
                                        "perfbench.fleet_sweep", op);
        results_.push_back(fleet::run_sweep_fleet(
            *fleet_, "fleet_small_cells", set.base_seed, set.cells, nullptr));
      }
      op_ms.push_back(ms_since(t0));
    }
  }

  std::uint64_t check_pass() override {
    if (reference_.empty()) build_reference();
    std::uint64_t bad = 0;
    for (std::size_t op = 0; op < results_.size(); ++op)
      if (sweep_bytes(std::move(results_[op])) != reference_[op % sets_.size()])
        ++bad;
    if (traced_) {
      // Each pass has its own coordinator, so its counters cover the pass.
      for (const char* name : kFleetCounters)
        totals_[name] += static_cast<double>(fleet_->counter(name));
      window_depth_ =
          std::max(window_depth_, fleet_->counter("fleet.window.depth"));
    }
    return bad + (kSweepsPerPass - results_.size());
  }

  void begin_traced() override { traced_ = true; }

  void layer_metrics(const TracedRun& run, LayerMetrics& out) override {
    const double passes = run.passes;
    const SpanStat sweeps = span_sum(*run.spans, "perfbench.fleet_sweep");
    double cells = 0.0;
    double reference_s = 0.0;
    for (unsigned op = 0; op < kSweepsPerPass; ++op) {
      cells += static_cast<double>(kCellsPerSweep);
      reference_s += reference_s_[op % sets_.size()];
    }
    for (const char* name : kFleetCounters) out.set(name, totals_[name] / passes);
    const double run_s = sweeps.total_s / passes;
    out.set("fleet.spawn_s", median(spawn_samples_));
    out.set("fleet.run_s", run_s);
    out.set("fleet.us_per_cell", run_s * 1e6 / cells);
    out.set("fleet.bytes_per_cell",
            (out.get("fleet.bytes_tx") + out.get("fleet.bytes_rx")) / cells);
    out.set("fleet.window.depth", static_cast<double>(window_depth_));
    out.set("fleet.compute_share", reference_s / (opt_.nproc * run_s));
  }

  std::size_t trace_capacity() const override { return std::size_t{1} << 14; }

  std::string describe() const override {
    return std::to_string(kSweepsPerPass) + " sweeps per pass over " +
           std::to_string(kSweepSets) + " sets of " +
           std::to_string(kCellsPerSweep) + " cells; workers=" +
           std::to_string(opt_.nproc) + " window=" +
           std::to_string(fleet_->window()) + " wire=" +
           std::to_string(fleet_->wire());
  }

 private:
  struct SweepSet {
    std::uint64_t base_seed = 0;
    std::vector<SweepCell> cells;
  };

  void spawn() {
    fleet_.reset();
    const auto t0 = Clock::now();
    fleet::FleetConfig cfg;
    cfg.workers = opt_.nproc;
    fleet_ = std::make_unique<fleet::FleetCoordinator>(cfg);
    spawn_samples_.push_back(seconds_since(t0));
  }

  /// In-process jobs=1 reference of every cell set: the expected bytes,
  /// and its wall time (the kernels' share of a fleet sweep).
  void build_reference() {
    const runtime::ExperimentRunner serial({.jobs = 1});
    for (const SweepSet& set : sets_) {
      const auto t0 = Clock::now();
      runtime::SweepResult res = runtime::run_sweep(
          serial, "fleet_small_cells", set.base_seed, set.cells, false);
      reference_s_.push_back(seconds_since(t0));
      reference_.push_back(sweep_bytes(std::move(res)));
    }
    if (opt_.corrupt_reference) reference_.front().back() = '?';
  }

  Options opt_;
  std::vector<SweepSet> sets_;
  std::unique_ptr<fleet::FleetCoordinator> fleet_;
  std::vector<double> spawn_samples_;
  std::vector<runtime::SweepResult> results_;  ///< last pass, op order
  std::vector<std::string> reference_;         ///< per cell set
  std::vector<double> reference_s_;            ///< per cell set
  bool traced_ = false;
  std::map<std::string, double> totals_;  ///< coordinator counters, traced passes
  std::uint64_t window_depth_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_small_cells(const Options& opt) {
  return std::make_unique<FleetSmallCells>(opt);
}

}  // namespace perfbench
