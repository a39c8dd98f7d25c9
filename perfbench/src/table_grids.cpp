// Workload table_grids: the cells of Table 1's three time subtables
// (QSM, s-QSM, BSP — the grids bench_table{1,2,3}_*_time declare) as one
// sweep through runtime::run_sweep on an ExperimentRunner with jobs =
// nproc and the ParallelFor pool at nproc. No serial baseline. Op = one
// trial; a pass is the whole grid, the straggler cell first and the cells
// of n >= 2^13 at kFill times their declared trials.
//
// Every trial calls the service registry's run_spec, which dispatches to
// the same kernels::*_cost functions the bench binaries call. In a traced
// pass each call sits in a span "algos.<workload>[<kind>]", so the span
// table splits kernel time by registry workload and by machine kind.
//
// Check: the per-trial costs, printed %.17g one per line in trial order,
// hash (sha256) to the digest recorded in reference/table_grids.txt for
// this seed. A seed without a recorded digest is checked against an
// untimed jobs=1 pass of the same grid instead, trial by trial.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "harness.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"
#include "runtime/sweep_service/registry.hpp"
#include "util/sha256.hpp"

namespace perfbench {

namespace {

namespace runtime = parbounds::runtime;
using runtime::ServiceSpec;
using runtime::SweepCell;

struct GridCell {
  ServiceSpec spec;
  unsigned trials = 1;
};

void add(std::vector<GridCell>& out, const char* engine, const char* workload,
         std::vector<std::pair<std::string, std::uint64_t>> params,
         unsigned trials = 1) {
  out.push_back({{engine, workload, std::move(params)}, trials});
}

/// Cells with n >= kFillMinN, the straggler aside, run kFill times their
/// declared trials, so the other jobs stay busy for most of the
/// straggler's run and the latency sample spans the pass rather than its
/// first seconds. Smaller cells are not filled: they add little busy
/// time, the QsmCrFree n = 2^12 ones hold ~0.4 GiB each, and filled they
/// put the median trial in the sparse gap between the ~1 ms and ~3.5 ms
/// trial clusters, where it moved by up to 15% from run to run.
constexpr unsigned kFill = 3;
constexpr std::uint64_t kFillMinN = 1u << 13;

bool is_straggler(const GridCell& c) {
  return c.spec.engine == "qsm-crfree" && c.spec.workload == "parity_circuit" &&
         c.spec.params[0].second == (1u << 14) && c.spec.params[1].second == 64;
}

bool is_filled(const GridCell& c) {
  return !is_straggler(c) && c.spec.params[0].second >= kFillMinN;
}

/// Table 1's time subtables, cell for cell as the bench binaries declare
/// them (kReps = 5 repetitions for the randomized cells), less one cell.
/// The straggler (QsmCrFree parity_circuit n = 2^14, g = 64: ~10 s of an
/// ~11 s pass) goes first, so it starts at once; the rest keep their
/// declared order.
std::vector<GridCell> table1_grid() {
  constexpr unsigned kReps = 5;
  std::vector<GridCell> g;
  // Subtable 1: QSM.
  for (const char* engine : {"qsm", "qsm-crfree"})
    for (const std::uint64_t n : {1u << 10, 1u << 12, 1u << 14})
      for (const std::uint64_t gap : {4u, 16u, 64u}) {
        // Trimmed: the QsmCrFree n = 2^14 cells at g = 16 and g = 64 each
        // take ~7 s and ~2 GiB; running both at once doubled the peak
        // memory for no new information. g = 64 is the one kept.
        if (std::string(engine) == "qsm-crfree" && n == (1u << 14) && gap == 16)
          continue;
        add(g, engine, "parity_circuit", {{"n", n}, {"g", gap}});
      }
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 18})
    for (const std::uint64_t gap : {4u, 16u, 64u})
      add(g, "qsm", "or_fanin", {{"n", n}, {"g", gap}, {"ones", 1}});
  for (const std::uint64_t n : {1u << 12, 1u << 16})
    for (const std::uint64_t gap : {4u, 16u})
      for (const std::uint64_t ones : {std::uint64_t{0}, n / 2})
        add(g, "qsm-crfree", "or_rand_cr",
            {{"n", n}, {"g", gap}, {"ones", ones}}, kReps);
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 16})
    for (const std::uint64_t gap : {4u, 16u, 64u})
      add(g, "qsm", "lac_prefix", {{"n", n}, {"g", gap}, {"h", n / 8}});
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 16})
    for (const std::uint64_t gap : {4u, 16u, 64u})
      add(g, "qsm", "lac_dart", {{"n", n}, {"g", gap}, {"h", n / 8}}, kReps);
  // Subtable 2: s-QSM.
  for (const std::uint64_t n : {1u << 10, 1u << 13, 1u << 16})
    for (const std::uint64_t gap : {2u, 8u, 32u})
      add(g, "sqsm", "parity_tree", {{"n", n}, {"g", gap}, {"fanin", 2}});
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 18})
    for (const std::uint64_t gap : {2u, 8u, 32u})
      add(g, "sqsm", "or_fanin", {{"n", n}, {"g", gap}, {"ones", 1}});
  for (const std::uint64_t n : {1u << 12, 1u << 16})
    for (const std::uint64_t gap : {2u, 8u})
      add(g, "sqsm", "or_fanin", {{"n", n}, {"g", gap}, {"ones", 1}});
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 16})
    for (const std::uint64_t gap : {2u, 8u, 32u})
      add(g, "sqsm", "lac_prefix",
          {{"n", n}, {"g", gap}, {"h", n / 8}, {"fanin", 2}});
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 16})
    for (const std::uint64_t gap : {2u, 8u, 32u})
      add(g, "sqsm", "lac_dart", {{"n", n}, {"g", gap}, {"h", n / 8}}, kReps);
  for (const std::uint64_t n : {1u << 10, 1u << 14})
    for (const std::uint64_t gap : {2u, 8u})
      add(g, "sqsm", "broadcast", {{"n", n}, {"g", gap}, {"fanin", 2}});
  // Subtable 3: BSP.
  struct GL {
    std::uint64_t g, L;
  };
  constexpr GL kGrid[] = {{1, 8}, {2, 32}, {4, 128}};
  for (const char* workload : {"parity_bsp", "or_bsp", "lac_bsp"})
    for (const std::uint64_t n : {1u << 12, 1u << 16})
      for (const std::uint64_t p : {64u, 1024u})
        for (const auto [gap, L] : kGrid) {
          std::vector<std::pair<std::string, std::uint64_t>> params = {
              {"n", n}, {"p", p}, {"g", gap}, {"L", L}};
          if (std::string(workload) == "or_bsp") params.push_back({"ones", 1});
          if (std::string(workload) == "lac_bsp") params.push_back({"h", n / 8});
          add(g, "bsp", workload, std::move(params));
        }
  for (const std::uint64_t p : {64u, 256u, 1024u, 4096u})
    add(g, "bsp", "parity_bsp", {{"n", 1024}, {"p", p}, {"g", 2}, {"L", 32}});
  std::stable_partition(g.begin(), g.end(), is_straggler);
  for (GridCell& c : g)
    if (is_filled(c)) c.trials *= kFill;
  return g;
}

std::string cost_lines(const std::vector<double>& costs) {
  std::string text;
  char buf[40];
  for (const double c : costs) {
    std::snprintf(buf, sizeof buf, "%.17g\n", c);
    text += buf;
  }
  return text;
}

class TableGrids final : public Workload {
 public:
  explicit TableGrids(const Options& opt)
      : opt_(opt), base_seed_(runtime::derive_seed(opt.seed, 0x7ab1e1)) {
    grid_ = table1_grid();
    for (const GridCell& c : grid_) {
      trials_ += c.trials;
      spans_.push_back(kernel_span(c.spec.engine, c.spec.workload));
    }
    load_recorded_digest();
  }

  void setup() override {
    // Restart the intra-trial pool and the runner, and rebuild the cells.
    runtime::ParallelFor::pool().set_threads(1);
    runtime::ParallelFor::pool().set_threads(opt_.nproc);
    runner_ = std::make_unique<runtime::ExperimentRunner>(
        runtime::RunnerConfig{.jobs = opt_.nproc});
    cells_.clear();
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      const GridCell& c = grid_[i];
      std::string key = c.spec.engine + "/" + c.spec.workload;
      for (const auto& [k, v] : c.spec.params)
        key += "," + k + "=" + std::to_string(v);
      cells_.push_back({.key = std::move(key),
                        .trials = c.trials,
                        .run = [this, i](std::uint64_t seed) {
                          return timed_trial(i, seed);
                        },
                        .spec = c.spec});
    }
  }

  void pass(std::vector<double>& op_ms) override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      latencies_.clear();
      latencies_.reserve(trials_);
    }
    const runtime::SweepResult res = runtime::run_sweep(
        *runner_, "table_grids", base_seed_, cells_, /*serial_baseline=*/false);
    costs_.clear();
    for (const auto& cell : res.cells)
      costs_.insert(costs_.end(), cell.costs.begin(), cell.costs.end());
    const std::lock_guard<std::mutex> lock(mu_);
    op_ms = latencies_;
  }

  void prepare_check() override {
    if (!recorded_digest_.empty()) return;
    // Serial reference for a seed with no recorded digest.
    const runtime::ExperimentRunner serial({.jobs = 1});
    const auto res = runtime::run_sweep(serial, "table_grids reference",
                                        base_seed_, cells_, false);
    reference_.clear();
    for (const auto& cell : res.cells)
      reference_.insert(reference_.end(), cell.costs.begin(),
                        cell.costs.end());
    std::printf("reference table_grids seed=%llu digest=%s\n",
                static_cast<unsigned long long>(opt_.seed),
                parbounds::sha256_hex(cost_lines(reference_)).c_str());
    if (opt_.corrupt_reference) reference_.front() += 1.0;
  }

  std::uint64_t check_pass() override {
    if (costs_.size() != trials_) return trials_;
    if (!recorded_digest_.empty()) {
      const std::string got = parbounds::sha256_hex(cost_lines(costs_));
      return got == recorded_digest_ ? 0 : trials_;
    }
    std::uint64_t bad = 0;
    for (std::size_t t = 0; t < trials_; ++t)
      if (costs_[t] != reference_[t]) ++bad;
    return bad;
  }

  void layer_metrics(const TracedRun& run, LayerMetrics& out) override {
    set_runtime_layers(run, opt_.nproc, out);
    set_kernel_layers(run, out);
  }

  std::string describe() const override {
    return std::to_string(grid_.size()) + " cells, " +
           std::to_string(trials_) + " trials per pass; jobs=threads=" +
           std::to_string(opt_.nproc) +
           (recorded_digest_.empty() ? "; check: serial reference pass"
                                     : "; check: recorded digest");
  }

 private:
  double timed_trial(std::size_t cell, std::uint64_t seed) {
    const auto t0 = Clock::now();
    double cost = 0.0;
    std::string err;
    {
      const parbounds::obs::Span span(parbounds::obs::process_tracer(),
                                      spans_[cell]);
      if (!parbounds::service::run_spec(grid_[cell].spec, seed, cost, err))
        throw std::runtime_error("table_grids: " + err);
    }
    const double ms = ms_since(t0);
    const std::lock_guard<std::mutex> lock(mu_);
    latencies_.push_back(ms);
    return cost;
  }

  void load_recorded_digest() {
    std::ifstream f(opt_.data_dir + "/reference/table_grids.txt");
    std::string line;
    while (std::getline(f, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream in(line);
      std::uint64_t seed = 0;
      std::string digest;
      if (in >> seed >> digest && seed == opt_.seed) recorded_digest_ = digest;
    }
    if (!recorded_digest_.empty() && opt_.corrupt_reference)
      recorded_digest_[0] = recorded_digest_[0] == '0' ? '1' : '0';
  }

  Options opt_;
  std::uint64_t base_seed_;
  std::vector<GridCell> grid_;
  std::vector<const char*> spans_;  ///< per grid cell
  std::size_t trials_ = 0;
  std::unique_ptr<runtime::ExperimentRunner> runner_;
  std::vector<SweepCell> cells_;
  std::mutex mu_;
  std::vector<double> latencies_;  ///< guarded by mu_
  std::vector<double> costs_;      ///< last pass, trial order
  std::vector<double> reference_;  ///< serial pass (unrecorded seeds)
  std::string recorded_digest_;
};

}  // namespace

std::unique_ptr<Workload> make_table_grids(const Options& opt) {
  return std::make_unique<TableGrids>(opt);
}

}  // namespace perfbench
