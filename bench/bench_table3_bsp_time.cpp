// Reproduction of Table 1, subtable 3: "Time Lower Bounds for BSP with p
// Processors" (q = min(n, p)).
//
// The fan-in L/g message trees are the Section 8 upper bounds:
//   * Parity: THETA entry, LB = Cor 3.1 = L log q / log(L/g);
//   * OR: LB = Cor 7.2 (det) and Cor 7.1 (rand, log* form);
//   * LAC: deterministic prefix compaction vs Cor 6.4; Cor 6.1's
//     randomized curve is printed for reference (our BSP compactor is
//     deterministic; see EXPERIMENTS.md).
// Sweeps cover n, p and the (g, L) grid so the log(L/g) denominator and
// the q = min(n, p) saturation are both visible. All cells fan out
// through the ExperimentRunner (see harness.hpp for --jobs / --json).

#include <cstdio>

#include "harness.hpp"

namespace pb = parbounds;
namespace bb = parbounds::bounds;
using parbounds::TextTable;
using namespace parbounds::bench;
using parbounds::runtime::SweepCell;

namespace {

struct GL {
  std::uint64_t g, L;
};
constexpr GL kGrid[] = {{1, 8}, {2, 32}, {4, 128}};

std::string key_npgl(std::uint64_t n, std::uint64_t p, std::uint64_t g,
                     std::uint64_t L) {
  return "n=" + std::to_string(n) + ",p=" + std::to_string(p) +
         ",g=" + std::to_string(g) + ",L=" + std::to_string(L);
}

void print_parity() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {1u << 12, 1u << 16})
    for (const std::uint64_t p : {64ull, 1024ull})
      for (const auto [g, L] : kGrid)
        cells.push_back({.key = key_npgl(n, p, g, L),
                         .lb = bb::bsp_parity_det_time(n, g, L, p),
                         .ub = static_cast<double>(n) / p +
                               bb::ub_parity_bsp(p, g, L),
                         .spec = {"bsp", "parity_bsp",
                                  {{"n", n}, {"p", p}, {"g", g}, {"L", L}}}});
  sweep_table("BSP / Parity, deterministic fan-in L/g tree "
              "(THETA entry: LB = Cor 3.1 = UB)",
              "n,p,(g,L)", std::move(cells));
}

/// Run a sweep whose cells carry two lower bounds (lb = deterministic,
/// the ub slot = randomized) and print the measured cost against both.
void det_rand_table(const std::string& heading, const std::string& title,
                    std::vector<SweepCell> cells) {
  std::printf("%s", pb::banner(heading).c_str());
  const auto& res = sweep(title, std::move(cells));
  TextTable t({"n,p,(g,L)", "measured", "LB-det", "meas/LBd", "LB-rand",
               "meas/LBr"});
  for (const auto& c : res.cells) {
    // log* q - log*(L/g) can legitimately vanish (a vacuous bound).
    const std::string rand_ratio =
        c.ub < 1.0 ? "- (LB vacuous)" : TextTable::num(c.mean / c.ub, 2);
    t.add_row({c.key, TextTable::num(c.mean, 0), TextTable::num(c.lb, 1),
               TextTable::num(c.mean / std::max(c.lb, 1e-9), 2),
               TextTable::num(c.ub, 1), rand_ratio});
  }
  std::printf("%s\n", t.render().c_str());
}

void print_or() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {1u << 12, 1u << 16})
    for (const std::uint64_t p : {64ull, 1024ull})
      for (const auto [g, L] : kGrid)
        cells.push_back({.key = key_npgl(n, p, g, L),
                         .lb = bb::bsp_or_det_time(n, g, L, p),
                         .ub = bb::bsp_or_rand_time(n, g, L, p),
                         .spec = {"bsp", "or_bsp",
                                  {{"n", n}, {"p", p}, {"g", g}, {"L", L},
                                   {"ones", 1}}}});
  det_rand_table("BSP / OR (LB det = Cor 7.2; LB rand = Cor 7.1 = "
                 "L(log* q - log*(L/g)))",
                 "BSP / OR det+rand lower bounds", std::move(cells));
}

void print_lac() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {1u << 12, 1u << 16})
    for (const std::uint64_t p : {64ull, 1024ull})
      for (const auto [g, L] : kGrid)
        cells.push_back({.key = key_npgl(n, p, g, L),
                         .lb = bb::bsp_lac_det_time(n, g, L, p),
                         .ub = bb::bsp_lac_rand_time(n, g, L, p),
                         .spec = {"bsp", "lac_bsp",
                                  {{"n", n}, {"p", p}, {"g", g}, {"L", L},
                                   {"h", n / 8}}}});
  det_rand_table("BSP / LAC via prefix compaction (LB det = Cor 6.4; LB "
                 "rand = Cor 6.1 printed for reference)",
                 "BSP / LAC det+rand lower bounds", std::move(cells));
}

void print_q_saturation() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t p : {64ull, 256ull, 1024ull, 4096ull})
    cells.push_back({.key = std::to_string(p),
                     .lb = bb::bsp_parity_det_time(1024, 2, 32, p),
                     .spec = {"bsp", "parity_bsp",
                              {{"n", 1024}, {"p", p}, {"g", 2}, {"L", 32}}}});
  std::printf("%s",
              pb::banner("q = min(n, p) saturation: once p > n the parity "
                         "cost stops growing with p (LB is in log q)")
                  .c_str());
  const auto& res = sweep("BSP parity q saturation", std::move(cells));
  TextTable t({"p", "measured (n=1024, g=2, L=32)", "LB"});
  for (const auto& c : res.cells)
    t.add_row({c.key, TextTable::num(c.mean, 0), TextTable::num(c.lb, 1)});
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_table3_bsp_time");
  std::printf("%s",
              pb::banner("TABLE 1 (subtable 3) REPRODUCTION — Time lower "
                         "bounds for BSP [MacKenzie-Ramachandran SPAA'98]")
                  .c_str());
  print_parity();
  print_or();
  print_lac();
  print_q_saturation();

  return session.finish();
}
