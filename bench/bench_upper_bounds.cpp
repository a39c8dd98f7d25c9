// Section 8 upper-bound scaling checks: for every implemented algorithm,
// measured model cost divided by its claimed growth term should be flat
// across the n sweep (a two-sided check — this is what turns the tables'
// Theta entries into reproduced facts rather than one-sided inequalities).
// A least-squares slope of the ratio against log n is printed; |slope|
// near 0 means the implementation achieves the claimed growth.

#include <cstdio>
#include <functional>

#include "harness.hpp"
#include "util/stats.hpp"

namespace pb = parbounds;
namespace bb = parbounds::bounds;
namespace kernels = parbounds::kernels;
using parbounds::CostModel;
using parbounds::TextTable;
using namespace parbounds::bench;
using parbounds::runtime::SweepCell;

namespace {

struct Check {
  const char* name;
  std::function<double(std::uint64_t n)> measured;
  std::function<double(std::uint64_t n)> claimed;
};

void run_checks(const std::string& title, const std::vector<Check>& checks,
                const std::vector<std::uint64_t>& ns) {
  // One cell per (check, n) pair: the measured cost against the claimed
  // growth term as its ub; cells come back in declaration order so the
  // per-check fits below read the same at any --jobs.
  std::vector<SweepCell> cells;
  for (const auto& c : checks)
    for (const std::uint64_t n : ns)
      cells.push_back({.key = std::string(c.name) + " n=" + std::to_string(n),
                       .ub = c.claimed(n),
                       .run = [&c, n](std::uint64_t) { return c.measured(n); }});
  const auto& res = sweep(title, std::move(cells));

  TextTable t({"algorithm", "ratio@min-n", "ratio@max-n", "slope vs log n",
               "verdict"});
  for (std::size_t ci = 0; ci < checks.size(); ++ci) {
    const auto& c = checks[ci];
    std::vector<double> logn, ratio;
    for (std::size_t ni = 0; ni < ns.size(); ++ni) {
      logn.push_back(pb::safe_log2(static_cast<double>(ns[ni])));
      const auto& cell = res.cells[ci * ns.size() + ni];
      ratio.push_back(cell.mean / std::max(cell.ub, 1e-9));
    }
    const auto fit = pb::linear_fit(logn, ratio);
    const double rel_slope =
        fit.slope * (logn.back() - logn.front()) / std::max(ratio.front(),
                                                            1e-9);
    t.add_row({c.name, TextTable::num(ratio.front(), 2),
               TextTable::num(ratio.back(), 2),
               TextTable::num(fit.slope, 3),
               std::abs(rel_slope) < 0.75 ? "flat (claim holds)"
                                          : "drifting (see EXPERIMENTS)"});
  }
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_upper_bounds");
  std::printf("%s",
              pb::banner("SECTION 8 UPPER-BOUND SCALING — measured cost / "
                         "claimed growth term across the n sweep")
                  .c_str());

  const std::vector<std::uint64_t> big{1u << 10, 1u << 12, 1u << 14,
                                       1u << 16, 1u << 18};
  const std::vector<std::uint64_t> mid{1u << 10, 1u << 12, 1u << 14};
  const std::uint64_t g = 16, p = 256;

  std::printf("-- shared-memory algorithms (g = 16) --\n");
  run_checks(
      "parity upper bounds (g = 16)",
      {
          {"parity tree (s-QSM) vs g log n",
           [&](std::uint64_t n) {
             return kernels::parity_tree_cost(CostModel::SQsm, n, g, 2, kSeed);
           },
           [&](std::uint64_t n) { return bb::ub_parity_sqsm(n, g); }},
          {"parity circuit (QSM) vs g log n/loglog g",
           [&](std::uint64_t n) {
             return kernels::parity_circuit_cost(CostModel::Qsm, n, g, kSeed);
           },
           [&](std::uint64_t n) { return bb::ub_parity_qsm(n, g); }},
          {"parity circuit (QSM+cr) vs g log n/log g",
           [&](std::uint64_t n) {
             return kernels::parity_circuit_cost(CostModel::QsmCrFree, n,
                                                 g, kSeed);
           },
           [&](std::uint64_t n) { return bb::ub_parity_qsm_cr(n, g); }},
      },
      mid);

  run_checks(
      "OR, broadcast and LAC upper bounds (g = 16)",
      {
          {"OR fan-in g (QSM) vs (g/log g) log n",
           [&](std::uint64_t n) {
             return kernels::or_fanin_cost(CostModel::Qsm, n, g, 1, kSeed);
           },
           [&](std::uint64_t n) { return bb::ub_or_qsm(n, g); }},
          {"OR tree (s-QSM) vs g log n",
           [&](std::uint64_t n) {
             return kernels::or_fanin_cost(CostModel::SQsm, n, g, 1, kSeed);
           },
           [&](std::uint64_t n) { return bb::ub_or_sqsm(n, g); }},
          {"broadcast fan-out g (QSM) vs g log n/log g",
           [&](std::uint64_t n) {
             return kernels::broadcast_cost(CostModel::Qsm, n, g);
           },
           [&](std::uint64_t n) { return bb::ub_parity_qsm_cr(n, g); }},
          {"LAC dart (QSM) vs sqrt(g log n)+g loglog n (Sec 8 claim)",
           [&](std::uint64_t n) {
             return avg_cost([&](std::uint64_t s) {
               return kernels::lac_dart_cost(CostModel::Qsm, n, g, n / 8, s);
             });
           },
           [&](std::uint64_t n) { return bb::ub_lac_qsm(n, g); }},
          {"LAC dart (QSM) vs g log n (what simple darts achieve)",
           [&](std::uint64_t n) {
             return avg_cost([&](std::uint64_t s) {
               return kernels::lac_dart_cost(CostModel::Qsm, n, g, n / 8, s);
             });
           },
           [&](std::uint64_t n) {
             return g * pb::safe_log2(static_cast<double>(n));
           }},
      },
      big);

  std::printf("-- BSP algorithms (g = 2, L = 32, p = 256) --\n");
  run_checks(
      "BSP upper bounds (g = 2, L = 32, p = 256)",
      {
          {"parity (BSP) vs n/p + L log p/log(L/g)",
           [&](std::uint64_t n) {
             return kernels::parity_bsp_cost(n, p, 2, 32, kSeed);
           },
           [&](std::uint64_t n) {
             return static_cast<double>(n) / p + bb::ub_parity_bsp(p, 2, 32);
           }},
          {"OR (BSP) vs n/p + L log p/log(L/g)",
           [&](std::uint64_t n) {
             return kernels::or_bsp_cost(n, p, 2, 32, 1, kSeed);
           },
           [&](std::uint64_t n) {
             return static_cast<double>(n) / p + bb::ub_or_bsp(p, 2, 32);
           }},
          {"LAC (BSP) vs n/p + g h/p + L log p/log(L/g)",
           [&](std::uint64_t n) {
             return kernels::lac_bsp_cost(n, p, 2, 32, n / 8, kSeed);
           },
           [&](std::uint64_t n) {
             return static_cast<double>(n) / p +
                    2.0 * static_cast<double>(n / 8) / p +
                    bb::ub_or_bsp(p, 2, 32);
           }},
      },
      big);

  return session.finish();
}
