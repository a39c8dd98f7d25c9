// PRAM vs general-purpose models — the paper's motivating gap.
//
// Section 1: the QRQW rule is "intermediate between the EREW and CRCW
// rules", and the whole point of the QSM/s-QSM/BSP bounds is that the
// classic CRCW costs (OR in O(1), parity in O(log n/loglog n)
// [Beame-Hastad-tight]) stop being achievable once contention and
// bandwidth are charged. This bench runs the SAME problems on the CRCW
// PRAM and on the Table 1 models and prints the separations:
//
//   OR      : Theta(1) CRCW  vs  Theta((g/log g) log n) QSM
//   Parity  : Theta(log n/loglog n) CRCW  vs  Theta(g log n) s-QSM
//   Max     : Theta(1) CRCW (n^2 procs)  vs  tree costs elsewhere
//
// plus the EREW end of the spectrum, where the engine itself rejects
// every queue-exploiting program.
//
// Every measured entry is a sweep cell, one per (n, machine), in table
// order (see harness.hpp for --jobs / --json).

#include <cstdio>

#include "algos/crcw_algos.hpp"
#include "harness.hpp"

namespace pb = parbounds;
namespace kernels = parbounds::kernels;
using parbounds::TextTable;
using namespace parbounds::bench;
using parbounds::runtime::SweepCell;
using parbounds::runtime::Trial;

namespace {

void print_or_separation() {
  constexpr std::uint64_t ns[] = {1u << 8, 1u << 12, 1u << 16};
  // Dense input, the same for every machine at a given n.
  const auto dense = [](std::uint64_t n) {
    pb::Rng rng(kSeed);
    return pb::boolean_array(n, n, rng);
  };
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : ns) {
    const std::string at = " n=" + std::to_string(n);
    cells.push_back({.key = "crcw" + at, .run = [=](std::uint64_t) {
                       pb::CrcwMachine pram;
                       const pb::Addr in = pram.alloc(n);
                       pram.preload(in, dense(n));
                       pb::crcw_or(pram, in, n);
                       return static_cast<double>(pram.time());
                     }});
    for (const std::uint64_t g : {1ull, 8ull})
      cells.push_back({.key = "qsm g=" + std::to_string(g) + at,
                       .run = [=](std::uint64_t) {
                         pb::QsmMachine m({.g = g});
                         const pb::Addr a = m.alloc(n);
                         m.preload(a, dense(n));
                         pb::or_fanin_qsm(m, a, n);
                         return static_cast<double>(m.time());
                       }});
    cells.push_back({.key = "s-qsm g=8" + at, .run = [=](std::uint64_t) {
                       pb::QsmMachine m({.g = 8, .model = pb::CostModel::SQsm});
                       const pb::Addr a = m.alloc(n);
                       m.preload(a, dense(n));
                       pb::or_tree(m, a, n, 2);
                       return static_cast<double>(m.time());
                     }});
  }
  const auto& res = sweep("OR: CRCW vs queued models", std::move(cells));

  std::printf("%s", pb::banner("OR: CRCW Theta(1) vs queued models "
                               "(dense input, the adversarial case)")
                        .c_str());
  TextTable t({"n", "CRCW steps", "QRQW (g=1)", "QSM g=8", "s-QSM g=8"});
  for (std::size_t i = 0; i < std::size(ns); ++i)
    t.add_row({std::to_string(ns[i]), TextTable::num(res.cells[4 * i].mean, 0),
               TextTable::num(res.cells[4 * i + 1].mean, 0),
               TextTable::num(res.cells[4 * i + 2].mean, 0),
               TextTable::num(res.cells[4 * i + 3].mean, 0)});
  std::printf("%s\n", t.render().c_str());
}

void print_parity_separation() {
  constexpr std::uint64_t ns[] = {1u << 8, 1u << 10, 1u << 12};
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : ns) {
    const std::string at = " n=" + std::to_string(n);
    cells.push_back({.key = "crcw steps" + at, .run = [n](std::uint64_t) {
                       pb::Rng rng(kSeed);
                       const auto input = pb::bernoulli_array(n, 0.5, rng);
                       pb::CrcwMachine pram;
                       const pb::Addr in = pram.alloc(n);
                       pram.preload(in, input);
                       pb::crcw_parity(pram, in, n, 8);
                       return static_cast<double>(pram.steps());
                     }});
    cells.push_back({.key = "qsm g=8" + at, .run = [n](std::uint64_t) {
                       return kernels::parity_circuit_cost(pb::CostModel::Qsm,
                                                           n, 8, kSeed);
                     }});
    cells.push_back({.key = "s-qsm g=8" + at, .run = [n](std::uint64_t) {
                       return kernels::parity_tree_cost(pb::CostModel::SQsm,
                                                        n, 8, 2, kSeed);
                     }});
  }
  const auto& res = sweep("Parity: CRCW vs queued models", std::move(cells));

  std::printf("%s", pb::banner("Parity: CRCW O(log n/loglog n) steps "
                               "[Beame-Hastad-tight] vs the queued models")
                        .c_str());
  TextTable t({"n", "CRCW steps", "log n/loglog n", "QSM g=8 time",
               "s-QSM g=8 time"});
  for (std::size_t i = 0; i < std::size(ns); ++i) {
    const double dn = static_cast<double>(ns[i]);
    t.add_row({std::to_string(ns[i]), TextTable::num(res.cells[3 * i].mean, 0),
               TextTable::num(pb::safe_log2(dn) / pb::safe_loglog2(dn), 1),
               TextTable::num(res.cells[3 * i + 1].mean, 0),
               TextTable::num(res.cells[3 * i + 2].mean, 0)});
  }
  std::printf("%s\n", t.render().c_str());
}

/// CRCW max of n random keys (steps as the cost), then dense bits from
/// the same stream through a fan-in-8 funnel on the EREW engine;
/// `verdict` receives the engine's verdict.
Trial max_and_erew(std::uint64_t n, std::string& verdict) {
  pb::Rng rng(kSeed + n);
  std::vector<pb::Word> keys(n);
  for (auto& v : keys) v = static_cast<pb::Word>(rng.next_below(1000));
  pb::CrcwMachine pram;
  const pb::Addr in = pram.alloc(n);
  pram.preload(in, keys);
  pb::crcw_max(pram, in, n);

  verdict = "accepted (?)";
  bool rejected = false;
  try {
    pb::QsmMachine erew({.g = 1, .model = pb::CostModel::Erew});
    const pb::Addr a = erew.alloc(n);
    const auto bits = pb::boolean_array(n, n, rng);
    erew.preload(a, bits);
    pb::or_contention(erew, a, n, 8);
  } catch (const pb::ModelViolation& e) {
    verdict = std::string("rejected: ") + e.what();
    rejected = true;
  }
  return Trial(static_cast<double>(pram.steps()),
               {{"erew_rejected", rejected ? 1.0 : 0.0}});
}

void print_max_and_erew() {
  constexpr std::uint64_t ns[] = {32ull, 64ull, 128ull};
  // The EREW verdict's message is table text only; the report carries
  // the CRCW step count and whether the EREW engine rejected the funnel.
  std::vector<std::string> verdicts(std::size(ns));
  std::vector<SweepCell> cells;
  for (std::size_t i = 0; i < std::size(ns); ++i)
    cells.push_back({.key = "n=" + std::to_string(ns[i]),
                     .run = [n = ns[i], &verdict = verdicts[i]](std::uint64_t) {
                       return max_and_erew(n, verdict);
                     }});
  const auto& res = sweep("Max: CRCW steps and EREW funnel verdict",
                          std::move(cells));

  std::printf("%s", pb::banner("Max: CRCW Theta(1) with n^2 processors; "
                               "EREW rejects every funnel outright")
                        .c_str());
  TextTable t({"n", "CRCW max steps", "EREW verdict on fan-in-8 funnel"});
  for (std::size_t i = 0; i < std::size(ns); ++i)
    t.add_row({std::to_string(ns[i]), TextTable::num(res.cells[i].mean, 0),
               verdicts[i]});
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_pram_comparison");
  std::printf("%s", pb::banner("PRAM COMPARISON — the EREW / QRQW / CRCW "
                               "spectrum around the paper's models")
                        .c_str());
  print_or_separation();
  print_parity_separation();
  print_max_and_erew();

  return session.finish();
}
