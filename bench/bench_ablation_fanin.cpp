// Ablation: fan-in / fan-out selection in tree algorithms.
//
// The design choice DESIGN.md calls out: on the QSM the cheap direction
// is CONTENTION (kappa is charged without the g factor), so OR funnels
// and broadcast trees want fan-in/out k = g; read-based trees pay g per
// edge and want k = 2; round-structured algorithms want k = n/p. This
// bench sweeps k and shows each optimum where the paper's cost model
// predicts it. Each k is one sweep cell; phase, superstep and round
// counts ride along as named values (see harness.hpp for --jobs /
// --json).

#include <cstdio>

#include "harness.hpp"

namespace pb = parbounds;
using parbounds::TextTable;
using namespace parbounds::bench;
using parbounds::runtime::SweepCell;
using parbounds::runtime::Trial;

namespace {

void sweep_or_fanin() {
  const std::uint64_t n = 1 << 14, g = 32;
  std::vector<SweepCell> cells;
  for (const unsigned k : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 512u})
    cells.push_back({.key = std::to_string(k),
                     .run = [n, g, k](std::uint64_t) {
                       pb::QsmMachine m({.g = g});
                       // Same input for every k — the sweep compares
                       // fan-ins, not seeds.
                       pb::Rng rng(kSeed);
                       // Dense input: every holder writes, so the
                       // funnel's queue is really k deep and the
                       // max(g, kappa) trade-off is visible.
                       const auto input = pb::boolean_array(n, n, rng);
                       const pb::Addr in = m.alloc(n);
                       m.preload(in, input);
                       pb::or_contention(m, in, n, k);
                       return Trial(static_cast<double>(m.time()),
                                    {{"phases", static_cast<double>(
                                                    m.phases())}});
                     }});
  const auto& res = sweep("QSM OR contention fan-in", std::move(cells));

  std::printf("%s", pb::banner("OR on QSM: contention fan-in sweep "
                               "(optimum at k = g, here g = 32)")
                        .c_str());
  TextTable t({"fanin k", "measured cost", "phases"});
  for (const auto& c : res.cells)
    t.add_row({c.key, TextTable::num(c.mean, 0),
               TextTable::num(c.value("phases"), 0)});
  std::printf("%s\n", t.render().c_str());
}

void sweep_read_tree_fanin() {
  const std::uint64_t n = 1 << 14, g = 8;
  std::vector<SweepCell> cells;
  for (const unsigned k : {2u, 3u, 4u, 8u, 16u, 64u})
    cells.push_back({.key = std::to_string(k),
                     .spec = {"sqsm", "parity_tree",
                              {{"n", n}, {"g", g}, {"fanin", k}}}});
  std::printf("%s", pb::banner("Parity read tree on s-QSM: fan-in sweep "
                               "(every edge pays g; optimum at k = 2)")
                        .c_str());
  const auto& res = sweep("s-QSM parity read-tree fan-in", std::move(cells));
  TextTable t({"fanin k", "measured cost"});
  for (const auto& c : res.cells)
    t.add_row({c.key, TextTable::num(c.mean, 0)});
  std::printf("%s\n", t.render().c_str());
}

void sweep_broadcast_fanout() {
  const std::uint64_t n = 1 << 14, g = 32;
  std::vector<SweepCell> cells;
  for (const std::uint64_t k : {2ull, 4ull, 16ull, 32ull, 64ull, 256ull})
    cells.push_back({.key = std::to_string(k),
                     .spec = {"qsm", "broadcast",
                              {{"n", n}, {"g", g}, {"fanin", k}}}});
  std::printf("%s", pb::banner("Broadcast on QSM: fan-out sweep (optimum "
                               "at k = g = 32 — the [AGMR97] tight bound)")
                        .c_str());
  const auto& res = sweep("QSM broadcast fan-out", std::move(cells));
  TextTable t({"fanout k", "measured cost"});
  for (const auto& c : res.cells)
    t.add_row({c.key, TextTable::num(c.mean, 0)});
  std::printf("%s\n", t.render().c_str());
}

void sweep_bsp_fanin() {
  const std::uint64_t p = 1024, g = 2, L = 32;
  std::vector<SweepCell> cells;
  for (const std::uint64_t k : {2ull, 4ull, 16ull, 64ull, 256ull})
    cells.push_back({.key = std::to_string(k),
                     .run = [p, g, L, k](std::uint64_t) {
                       pb::Rng rng(kSeed);  // same input for every k
                       const auto input =
                           pb::bernoulli_array(1 << 14, 0.5, rng);
                       pb::BspMachine m({.p = p, .g = g, .L = L});
                       pb::bsp_reduce(m, input, pb::Combine::Xor, k);
                       return Trial(static_cast<double>(m.time()),
                                    {{"supersteps", static_cast<double>(
                                                        m.supersteps())}});
                     }});
  const auto& res = sweep("BSP parity tree fan-in", std::move(cells));

  std::printf("%s", pb::banner("Parity tree on BSP: fan-in sweep (optimum "
                               "at k = L/g = 16)")
                        .c_str());
  TextTable t({"fanin k", "measured cost", "supersteps"});
  for (const auto& c : res.cells)
    t.add_row({c.key, TextTable::num(c.mean, 0),
               TextTable::num(c.value("supersteps"), 0)});
  std::printf("%s\n", t.render().c_str());
}

/// Round-structured parity on the s-QSM: local scans over n/p blocks,
/// then a k-ary tree over the p partials; the audited round count is
/// the cost.
Trial round_structured_parity(std::uint64_t n, std::uint64_t p,
                              std::uint64_t g, std::uint64_t k) {
  pb::Rng rng(kSeed);  // same input for every k
  const auto input = pb::bernoulli_array(n, 0.5, rng);
  pb::QsmMachine m({.g = g, .model = pb::CostModel::SQsm});
  const pb::Addr in = m.alloc(n);
  m.preload(in, input);
  const pb::Addr partial = m.alloc(p);
  m.begin_phase();
  for (std::uint64_t q = 0; q < p; ++q)
    for (std::uint64_t i = q * (n / p); i < (q + 1) * (n / p); ++i)
      m.read(q, in + i);
  m.commit_phase();
  m.begin_phase();
  for (std::uint64_t q = 0; q < p; ++q) {
    pb::Word acc = 0;
    for (const pb::Word v : m.inbox(q)) acc ^= v;
    m.local(q, n / p);
    m.write(q, partial + q, acc);
  }
  m.commit_phase();
  pb::reduce_tree(m, partial, p, static_cast<unsigned>(k), pb::Combine::Xor);
  const auto audit = pb::audit_rounds_qsm(m.trace(), n, p, 4);
  return Trial(static_cast<double>(audit.rounds),
               {{"all_rounds", audit.all_rounds() ? 1.0 : 0.0}});
}

void sweep_rounds_fanin() {
  const std::uint64_t n = 1 << 14, p = 1 << 8, g = 2;
  std::vector<SweepCell> cells;
  for (const std::uint64_t k : {std::uint64_t{2}, std::uint64_t{8}, n / p,
                                4 * (n / p)})
    cells.push_back({.key = std::to_string(k),
                     .run = [n, p, g, k](std::uint64_t) {
                       return round_structured_parity(n, p, g, k);
                     }});
  const auto& res = sweep("s-QSM round-structured parity tree fan-in",
                          std::move(cells));

  std::printf("%s",
              pb::banner("Round-structured parity on s-QSM: tree fan-in "
                         "sweep under a fixed p (only k = n/p both meets "
                         "the round budget and minimises rounds)")
                  .c_str());
  TextTable t({"tree fanin k", "rounds", "all-rounds?"});
  for (const auto& c : res.cells)
    t.add_row({c.key, TextTable::num(c.mean, 0),
               c.value("all_rounds") != 0.0 ? "yes" : "NO (budget exceeded)"});
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_ablation_fanin");
  std::printf("%s", pb::banner("ABLATION — fan-in selection across models "
                               "(DESIGN.md ABL-FANIN)")
                        .c_str());
  sweep_or_fanin();
  sweep_read_tree_fanin();
  sweep_broadcast_fanout();
  sweep_bsp_fanin();
  sweep_rounds_fanin();

  return session.finish();
}
