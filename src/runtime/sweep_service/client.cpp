#include "runtime/sweep_service/client.hpp"

#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace parbounds::service {

namespace {

/// Outstanding-request window. Big enough to keep the dispatcher's
/// batches full, small enough that a tiny admission queue mostly admits.
constexpr std::size_t kWindow = 64;

}  // namespace

runtime::SweepResult run_sweep_via_service(
    SweepService& svc, std::string title, std::uint64_t base_seed,
    std::vector<runtime::SweepCell> cells) {
  std::vector<std::uint32_t> cell_of;
  for (std::uint32_t c = 0; c < cells.size(); ++c) {
    if (!cells[c].spec.routable())
      throw std::runtime_error("cell '" + cells[c].key +
                               "' has no service spec; --via-service needs "
                               "every cell to be registry-routable");
    for (unsigned r = 0; r < cells[c].trials; ++r) cell_of.push_back(c);
  }
  const std::uint64_t total = cell_of.size();

  std::vector<runtime::Trial> trials(total);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;
  std::vector<std::uint64_t> retries;  // shed trials, resubmitted by us
  std::string error;

  std::uint64_t next = 0;  // next never-submitted trial
  for (;;) {
    std::uint64_t trial = 0;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] {
        if (!retries.empty() || next < total) return outstanding < kWindow;
        return outstanding == 0;
      });
      if (!retries.empty()) {
        trial = retries.back();
        retries.pop_back();
      } else if (next < total) {
        trial = next++;
      } else {
        break;  // drained: nothing pending, nothing outstanding
      }
      ++outstanding;
    }

    Request req;
    req.id = trial;
    req.op = Op::Run;
    req.spec = cells[cell_of[trial]].spec;
    req.seed = runtime::derive_seed(base_seed, trial);
    // The callback may run synchronously (a shed) or on the dispatcher
    // thread; either way it only touches state under `mu`.
    svc.submit(std::move(req), [&, trial](Response resp) {
      const std::lock_guard<std::mutex> lock(mu);
      if (resp.status == Status::Retry) {
        retries.push_back(trial);
      } else if (resp.status == Status::Error) {
        if (error.empty())
          error = "cell '" + cells[cell_of[trial]].key + "': " + resp.error;
      } else if (!resp.has_cost) {
        if (error.empty())
          error = "cell '" + cells[cell_of[trial]].key +
                  "': run response carried no cost";
      } else {
        trials[trial] = resp.cost;
      }
      --outstanding;
      cv.notify_all();
    });
  }

  if (!error.empty()) throw std::runtime_error(error);

  runtime::SweepResult out;
  out.title = std::move(title);
  out.base_seed = base_seed;
  out.cells = aggregate_cells(cells, trials);
  return out;
}

}  // namespace parbounds::service
