#include "runtime/sweep.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/stats.hpp"

namespace parbounds::runtime {

namespace {

// DETLINT(det.wall-clock): wall_ms telemetry only; never enters results
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

}  // namespace

double CellResult::value(const std::string& name) const {
  for (const auto& [n, per_trial] : values)
    if (n == name) return parbounds::mean(per_trial);
  throw std::out_of_range("cell '" + key + "' has no value '" + name + "'");
}

SweepResult run_sweep(const ExperimentRunner& runner, std::string title,
                      std::uint64_t base_seed, std::vector<SweepCell> cells,
                      bool) {
  SweepResult out;
  out.title = std::move(title);
  out.base_seed = base_seed;

  std::vector<std::uint32_t> cell_of;
  for (std::uint32_t c = 0; c < cells.size(); ++c)
    for (unsigned r = 0; r < cells[c].trials; ++r) cell_of.push_back(c);

  const auto t0 = Clock::now();
  const auto trials = runner.map<Trial>(cell_of.size(), [&](std::uint64_t t) {
    return cells[cell_of[t]].run(derive_seed(base_seed, t));
  });
  out.wall_ms = ms_since(t0);

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
