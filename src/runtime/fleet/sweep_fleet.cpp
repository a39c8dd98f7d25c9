#include "runtime/fleet/sweep_fleet.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "runtime/fleet/snapshot_wire.hpp"

namespace parbounds::fleet {

// DETLINT(det.wall-clock): wall_ms goes to the ops file only; never a result
using Clock = std::chrono::steady_clock;

runtime::SweepResult run_sweep_fleet(FleetCoordinator& fleet,
                                     std::string title,
                                     std::uint64_t base_seed,
                                     std::vector<runtime::SweepCell> cells,
                                     obs::MetricsSnapshot* telemetry) {
  std::vector<std::uint64_t> trial0(cells.size(), 0);
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (!cells[c].spec.routable())
      throw std::runtime_error("cell '" + cells[c].key +
                               "' has no service spec; --workers needs "
                               "every cell to be registry-routable");
    if (cells[c].trials == 0)
      throw std::runtime_error("cell '" + cells[c].key +
                               "' has zero trials");
    trial0[c] = total;
    total += cells[c].trials;
  }

  std::vector<service::Request> reqs(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    service::Request& r = reqs[c];
    r.id = static_cast<std::uint64_t>(c);
    r.op = service::Op::Cell;
    r.spec = cells[c].spec;
    r.seed = base_seed;  // workers derive per-repetition seeds
    r.trial0 = trial0[c];
    r.trials = cells[c].trials;
  }

  const auto t0 = Clock::now();
  const std::vector<service::Response> resps =
      fleet.run_requests(std::move(reqs));
  const std::chrono::duration<double, std::milli> wall = Clock::now() - t0;

  std::vector<runtime::Trial> trials(total);
  bool have_snapshot = false;
  if (telemetry != nullptr) *telemetry = obs::MetricsSnapshot();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const service::Response& resp = resps[c];
    if (resp.status != service::Status::Ok)
      throw std::runtime_error("cell '" + cells[c].key + "': " + resp.error);
    if (resp.costs.size() != cells[c].trials)
      throw std::runtime_error(
          "cell '" + cells[c].key + "': expected " +
          std::to_string(cells[c].trials) + " costs, got " +
          std::to_string(resp.costs.size()));
    for (std::size_t r = 0; r < resp.costs.size(); ++r)
      trials[trial0[c] + r] = resp.costs[r];
    if (telemetry != nullptr) {
      if (resp.telemetry.empty())
        throw std::runtime_error("cell '" + cells[c].key +
                                 "': response carried no telemetry");
      obs::MetricsSnapshot snap;
      std::string err;
      if (!decode_snapshot(resp.telemetry, snap, err))
        throw std::runtime_error("cell '" + cells[c].key +
                                 "': bad telemetry wire: " + err);
      if (!have_snapshot) {
        *telemetry = std::move(snap);
        have_snapshot = true;
      } else {
        telemetry->merge_from(snap);
      }
    }
  }

  runtime::SweepResult out;
  out.title = std::move(title);
  out.base_seed = base_seed;
  out.cells = aggregate_cells(cells, trials);
  out.wall_ms = wall.count();
  return out;
}

}  // namespace parbounds::fleet
