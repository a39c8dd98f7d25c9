// Reproduction of Table 1, subtable 1: "Time Lower Bounds for QSM".
//
// For every cell (problem x deterministic/randomized) this bench runs the
// matching Section 8 upper-bound algorithm on the QSM simulator, sweeps n
// and g, and prints the measured model time next to the lower-bound curve
// and the claimed upper-bound growth term. What reproduces the paper:
//   * measured/LB never drops below ~1 anywhere in the sweep;
//   * for the Theta entry (Parity with unit-time concurrent reads) the
//     measured/LB ratio is flat;
//   * the documented gaps (loglog n for OR, sqrt vs loglog for LAC) show
//     up as slowly growing measured/LB ratios.
//
// All cells fan out through the ExperimentRunner; see harness.hpp for
// the --jobs / --json flags.

#include <cstdio>

#include "harness.hpp"

namespace pb = parbounds;
namespace bb = parbounds::bounds;
using namespace parbounds::bench;
using parbounds::runtime::SweepCell;

namespace {

void print_parity_det() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {1u << 10, 1u << 12, 1u << 14})
    for (const std::uint64_t g : {4ull, 16ull, 64ull})
      cells.push_back({.key = key_ng(n, g),
                       .lb = bb::qsm_parity_det_time(n, g),
                       .ub = bb::ub_parity_qsm(n, g),
                       .spec = {"qsm", "parity_circuit",
                                {{"n", n}, {"g", g}}}});
  sweep_table("QSM / Parity, deterministic (circuit emulation; LB = Cor 3.1)",
              "n,g", std::move(cells));
}

void print_parity_cr() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {1u << 10, 1u << 12, 1u << 14})
    for (const std::uint64_t g : {4ull, 16ull, 64ull})
      cells.push_back({.key = key_ng(n, g),
                       .lb = bb::qsm_parity_det_time(n, g),
                       .ub = bb::ub_parity_qsm_cr(n, g),
                       .spec = {"qsm-crfree", "parity_circuit",
                                {{"n", n}, {"g", g}}}});
  sweep_table("QSM / Parity with unit-time concurrent reads "
              "(THETA entry: LB = Thm 3.1 = UB)",
              "n,g", std::move(cells));
}

void print_or() {
  std::vector<SweepCell> det;
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 18})
    for (const std::uint64_t g : {4ull, 16ull, 64ull})
      det.push_back({.key = key_ng(n, g),
                     .lb = bb::qsm_or_det_time(n, g),
                     .ub = bb::ub_or_qsm(n, g),
                     .spec = {"qsm", "or_fanin",
                              {{"n", n}, {"g", g}, {"ones", 1}}}});
  sweep_table("QSM / OR, deterministic (contention fan-in g; LB = Cor 7.2)",
              "n,g", std::move(det));

  std::vector<SweepCell> rand;
  for (const std::uint64_t n : {1u << 12, 1u << 16})
    for (const std::uint64_t g : {4ull, 16ull})
      for (const std::uint64_t ones : {std::uint64_t{0}, n / 2})
        rand.push_back({.key = key_ng(n, g) +
                               "," + (ones == 0 ? "zeros" : "dense"),
                        .trials = kReps,
                        .lb = bb::qsm_or_rand_time(n, g),
                        .ub = bb::ub_or_cr_rand(n, g),
                        .spec = {"qsm-crfree", "or_rand_cr",
                                 {{"n", n}, {"g", g}, {"ones", ones}}}});
  sweep_table("QSM / OR, randomized (sampling + flag under free concurrent "
              "reads; LB = Cor 7.1, g(log* n - log* g))",
              "n,g,density", std::move(rand));
}

void print_lac() {
  std::vector<SweepCell> det;
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 16})
    for (const std::uint64_t g : {4ull, 16ull, 64ull})
      det.push_back({.key = key_ng(n, g),
                     .lb = bb::qsm_lac_det_time(n, g),
                     /*UB: the prefix algorithm is O(g log n)*/
                     .ub = g * pb::safe_log2(static_cast<double>(n)),
                     .spec = {"qsm", "lac_prefix",
                              {{"n", n}, {"g", g}, {"h", n / 8}}}});
  sweep_table("QSM / LAC, deterministic (prefix sums; LB = Cor 6.4)", "n,g",
              std::move(det));

  std::vector<SweepCell> rand;
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 16})
    for (const std::uint64_t g : {4ull, 16ull, 64ull})
      rand.push_back({.key = key_ng(n, g),
                      .trials = kReps,
                      .lb = bb::qsm_lac_rand_time(n, g),
                      .ub = bb::ub_lac_qsm(n, g),
                      .spec = {"qsm", "lac_dart",
                               {{"n", n}, {"g", g}, {"h", n / 8}}}});
  sweep_table("QSM / LAC, randomized (dart throwing; LB = Cor 6.1, "
              "g loglog n / log g; UB claim = Sec 8)",
              "n,g", std::move(rand));
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_table1_qsm_time");
  std::printf("%s",
              pb::banner("TABLE 1 (subtable 1) REPRODUCTION — Time lower "
                         "bounds for QSM [MacKenzie-Ramachandran SPAA'98]")
                  .c_str());
  print_parity_det();
  print_parity_cr();
  print_or();
  print_lac();

  return session.finish();
}
