// Reproduction of Table 1, subtable 2: "Time Lower Bounds for s-QSM".
//
// On the s-QSM contention is charged g * kappa, so contention funnels buy
// nothing and the simple read trees are the right upper bounds:
//   * Parity: binary tree, O(g log n) — a THETA entry (LB = Cor 3.1);
//   * OR: binary tree O(g log n) vs LB g log n / loglog n (gap loglog n,
//     exactly as the paper notes in Section 8);
//   * LAC: prefix sums (det) and dart throwing (rand) vs Cor 6.4 / 6.1.
//
// All cells fan out through the ExperimentRunner (see harness.hpp for
// --jobs / --json).

#include <cstdio>

#include "harness.hpp"

namespace pb = parbounds;
namespace bb = parbounds::bounds;
using parbounds::TextTable;
using namespace parbounds::bench;
using parbounds::runtime::SweepCell;

namespace {

void print_parity() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {1u << 10, 1u << 13, 1u << 16})
    for (const std::uint64_t g : {2ull, 8ull, 32ull})
      cells.push_back({.key = key_ng(n, g),
                       .lb = bb::sqsm_parity_det_time(n, g),
                       .ub = bb::ub_parity_sqsm(n, g),
                       .spec = {"sqsm", "parity_tree",
                                {{"n", n}, {"g", g}, {"fanin", 2}}}});
  sweep_table("s-QSM / Parity, deterministic binary tree "
              "(THETA entry: LB = Cor 3.1 = UB = g log n)",
              "n,g", std::move(cells));
}

void print_or() {
  std::vector<SweepCell> det;
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 18})
    for (const std::uint64_t g : {2ull, 8ull, 32ull})
      det.push_back({.key = key_ng(n, g),
                     .lb = bb::sqsm_or_det_time(n, g),
                     .ub = bb::ub_or_sqsm(n, g),
                     .spec = {"sqsm", "or_fanin",
                              {{"n", n}, {"g", g}, {"ones", 1}}}});
  sweep_table("s-QSM / OR, deterministic tree (LB = Cor 7.2 = "
              "g log n / loglog n; gap = loglog n, Sec 8)",
              "n,g", std::move(det));

  std::vector<SweepCell> rand;
  for (const std::uint64_t n : {1u << 12, 1u << 16})
    for (const std::uint64_t g : {2ull, 8ull})
      rand.push_back({.key = key_ng(n, g),
                      .lb = bb::sqsm_or_rand_time(n, g),
                      .ub = bb::ub_or_sqsm(n, g),
                      .spec = {"sqsm", "or_fanin",
                               {{"n", n}, {"g", g}, {"ones", 1}}}});
  sweep_table("s-QSM / OR randomized LB = Cor 7.1 (g log* n) against the "
              "same algorithm",
              "n,g", std::move(rand));
}

void print_lac() {
  std::vector<SweepCell> det;
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 16})
    for (const std::uint64_t g : {2ull, 8ull, 32ull})
      det.push_back({.key = key_ng(n, g),
                     .lb = bb::sqsm_lac_det_time(n, g),
                     .ub = g * pb::safe_log2(static_cast<double>(n)),
                     .spec = {"sqsm", "lac_prefix",
                              {{"n", n}, {"g", g}, {"h", n / 8},
                               {"fanin", 2}}}});
  sweep_table("s-QSM / LAC, deterministic prefix sums "
              "(LB = Cor 6.4 = g sqrt(log n / loglog n))",
              "n,g", std::move(det));

  std::vector<SweepCell> rand;
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 16})
    for (const std::uint64_t g : {2ull, 8ull, 32ull})
      rand.push_back({.key = key_ng(n, g),
                      .trials = kReps,
                      .lb = bb::sqsm_lac_rand_time(n, g),
                      .ub = bb::ub_lac_sqsm(n, g),
                      .spec = {"sqsm", "lac_dart",
                               {{"n", n}, {"g", g}, {"h", n / 8}}}});
  sweep_table("s-QSM / LAC, randomized dart throwing (LB = Cor 6.1 = "
              "g loglog n; UB claim = g sqrt(log n))",
              "n,g", std::move(rand));
}

void print_broadcast() {
  std::printf("%s",
              pb::banner("context: Broadcasting [AGMR97], the tight bound "
                         "the paper cites — s-QSM fan-out-2 tree = g log n")
                  .c_str());
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {1u << 10, 1u << 14})
    for (const std::uint64_t g : {2ull, 8ull})
      cells.push_back({.key = key_ng(n, g),
                       .lb = g * pb::safe_log2(static_cast<double>(n)),
                       .spec = {"sqsm", "broadcast",
                                {{"n", n}, {"g", g}, {"fanin", 2}}}});
  const auto& res = sweep("s-QSM broadcast fan-out-2 tree vs g log n",
                          std::move(cells));
  TextTable t({"n,g", "measured", "g*log n", "ratio"});
  for (const auto& c : res.cells)
    t.add_row({c.key, TextTable::num(c.mean, 0), TextTable::num(c.lb, 1),
               TextTable::num(c.mean / c.lb, 2)});
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_table2_sqsm_time");
  std::printf("%s",
              pb::banner("TABLE 1 (subtable 2) REPRODUCTION — Time lower "
                         "bounds for s-QSM [MacKenzie-Ramachandran SPAA'98]")
                  .c_str());
  print_parity();
  print_or();
  print_lac();
  print_broadcast();

  return session.finish();
}
