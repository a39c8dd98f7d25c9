#include "runtime/sweep.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"
#include "util/stats.hpp"

namespace parbounds::runtime {

namespace {

// DETLINT(det.wall-clock): wall_ms telemetry only; never enters results
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

std::vector<Trial> run_all(const ExperimentRunner& runner,
                           const std::vector<SweepCell>& cells,
                           const std::vector<std::uint32_t>& cell_of,
                           std::uint64_t base_seed) {
  return runner.map<Trial>(cell_of.size(), [&](std::uint64_t trial) {
    return cells[cell_of[trial]].run(derive_seed(base_seed, trial));
  });
}

// Bitwise, not operator== — the guarantee is bit-identity.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const Trial& a, const Trial& b) {
  if (!same_bits(a.cost, b.cost) || a.values.size() != b.values.size())
    return false;
  for (std::size_t i = 0; i < a.values.size(); ++i)
    if (a.values[i].first != b.values[i].first ||
        !same_bits(a.values[i].second, b.values[i].second))
      return false;
  return true;
}

}  // namespace

double CellResult::value(const std::string& name) const {
  for (const auto& [n, per_trial] : values)
    if (n == name) return parbounds::mean(per_trial);
  throw std::out_of_range("cell '" + key + "' has no value '" + name + "'");
}

double speedup_vs_serial(const SweepResult& s) {
  if (s.serial_wall_ms <= 0.0 || s.wall_ms <= 0.0) return 1.0;
  return s.serial_wall_ms / s.wall_ms;
}

SweepResult run_sweep(const ExperimentRunner& runner, std::string title,
                      std::uint64_t base_seed, std::vector<SweepCell> cells,
                      bool serial_baseline) {
  SweepResult out;
  out.title = std::move(title);
  out.base_seed = base_seed;

  std::vector<std::uint32_t> cell_of;
  for (std::uint32_t c = 0; c < cells.size(); ++c)
    for (unsigned r = 0; r < cells[c].trials; ++r) cell_of.push_back(c);

  const auto t0 = Clock::now();
  const auto trials = run_all(runner, cells, cell_of, base_seed);
  out.wall_ms = ms_since(t0);

  if (serial_baseline) {
    // The baseline re-executes every trial; the metrics block counts
    // each trial once, as a --workers run does.
    const obs::TelemetryPause no_double_count;
    const ExperimentRunner serial({.jobs = 1});
    const auto t1 = Clock::now();
    const auto again = run_all(serial, cells, cell_of, base_seed);
    out.serial_wall_ms = ms_since(t1);
    for (std::size_t t = 0; t < trials.size(); ++t)
      if (!same_bits(trials[t], again[t])) out.deterministic = false;
  }

  out.cells = aggregate_cells(cells, trials);
  return out;
}

std::vector<CellResult> aggregate_cells(const std::vector<SweepCell>& cells,
                                        const std::vector<Trial>& trials) {
  std::vector<CellResult> out;
  out.reserve(cells.size());
  std::size_t next = 0;
  for (const auto& cell : cells) {
    CellResult cr;
    cr.key = cell.key;
    cr.lb = cell.lb;
    cr.ub = cell.ub;
    cr.costs.reserve(cell.trials);
    for (unsigned r = 0; r < cell.trials; ++r, ++next) {
      const Trial& t = trials[next];
      cr.costs.push_back(t.cost);
      if (r == 0)
        for (const auto& [name, v] : t.values) cr.values.push_back({name, {}});
      if (t.values.size() != cr.values.size())
        throw std::invalid_argument("cell '" + cell.key +
                                    "': trials report different values");
      for (std::size_t i = 0; i < t.values.size(); ++i) {
        if (t.values[i].first != cr.values[i].first)
          throw std::invalid_argument("cell '" + cell.key +
                                      "': trials report different values");
        cr.values[i].second.push_back(t.values[i].second);
      }
    }
    cr.mean = mean(cr.costs);
    cr.p50 = percentile(cr.costs, 50.0);
    cr.p99 = percentile(cr.costs, 99.0);
    out.push_back(std::move(cr));
  }
  return out;
}

}  // namespace parbounds::runtime
