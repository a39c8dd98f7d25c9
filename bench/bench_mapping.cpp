// Claim 2.1 mapping overhead (DESIGN.md exp MAP).
//
// Real executions on the QSM / s-QSM / BSP are replayed phase-by-phase on
// the corresponding GSM instance; the claim says the GSM never pays more
// (up to big-step rounding: factor <= 2 for QSM/BSP, exactly <= 1 for
// s-QSM). The printed ratio is factor * T_GSM / T_original — always <= 2
// across algorithms, sizes and gaps, which is the executable content of
// "lower bounds proved on the GSM transfer to all three models".
//
// Each (algorithm, g) replay is one sweep cell: T_model is its cost and
// T_GSM, the Claim 2.1 factor and the ratio ride along as named values,
// so the table reads the same at any --jobs and lands in the --json
// report (see harness.hpp).

#include <cstdio>

#include "harness.hpp"

namespace pb = parbounds;
namespace bb = parbounds::bounds;
using parbounds::TextTable;
using parbounds::runtime::CellResult;
using parbounds::runtime::SweepCell;
using parbounds::runtime::Trial;
using namespace parbounds::bench;

namespace {

/// One algorithm whose real execution is replayed on the GSM.
struct Execution {
  const char* label;
  bool bsp;  ///< BSP rows also name their L = 8g
  std::function<pb::MappingReport(std::uint64_t g)> replay;
};

std::string key(const Execution& e, std::uint64_t g) {
  std::string k = std::string(e.label) + " g=" + std::to_string(g);
  if (e.bsp) k += ",L=" + std::to_string(8 * g);
  return k;
}

Trial mapped(const pb::MappingReport& rep) {
  return {static_cast<double>(rep.original_cost),
          {{"T_GSM", static_cast<double>(rep.gsm_cost)},
           {"factor", static_cast<double>(rep.factor)},
           {"ratio", rep.ratio}}};
}

void report(TextTable& t, const CellResult& c) {
  t.add_row({c.key, TextTable::num(c.mean, 0),
             TextTable::num(c.value("T_GSM"), 0),
             TextTable::num(c.value("factor"), 0),
             TextTable::num(c.value("ratio"), 3),
             c.value("ratio") <= 2.01 ? "holds" : "VIOLATED"});
}

/// s-QSM parity in rounds: the audited round count as the cost, and
/// whether every phase is a round on the source and on the GSM(1,1).
Trial parity_round_mapping(std::uint64_t n, std::uint64_t p) {
  pb::Rng rng(kSeed);
  const auto bits = pb::bernoulli_array(n, 0.5, rng);
  pb::QsmMachine m({.g = 4, .model = pb::CostModel::SQsm});
  const pb::Addr in = m.alloc(n);
  m.preload(in, bits);
  pb::parity_rounds(m, in, n, p);
  const auto src = pb::audit_rounds_qsm(m.trace(), n, p, 6);
  // On the GSM(1,1): every phase's big-step cost must fit the GSM round
  // budget mu*n/(lambda*p) = n/p.
  bool gsm_rounds_ok = true;
  for (const auto& ph : m.trace().phases)
    if (pb::gsm_phase_cost(ph.stats, 1, 1) > 6 * (n / p))
      gsm_rounds_ok = false;
  return {static_cast<double>(src.rounds),
          {{"all_rounds", src.all_rounds() ? 1.0 : 0.0},
           {"gsm_all_rounds", gsm_rounds_ok ? 1.0 : 0.0}}};
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_mapping");
  std::printf("%s", pb::banner("CLAIM 2.1 — replaying real executions on "
                               "the GSM (factor * T_GSM / T_model <= 2)")
                        .c_str());

  const std::uint64_t n = 1 << 12;
  const Execution executions[] = {
      {"QSM parity circuit", false,
       [n](std::uint64_t g) {
         pb::Rng rng(kSeed);
         const auto bits = pb::bernoulli_array(n, 0.5, rng);
         pb::QsmMachine m({.g = g});
         const pb::Addr in = m.alloc(n);
         m.preload(in, bits);
         pb::parity_circuit(m, in, n);
         return pb::check_claim21(m.trace());
       }},
      {"QSM OR fan-in", false,
       [n](std::uint64_t g) {
         pb::Rng rng(kSeed);
         const auto bits = pb::bernoulli_array(n, 0.5, rng);
         pb::QsmMachine m({.g = g});
         const pb::Addr in = m.alloc(n);
         m.preload(in, bits);
         pb::or_fanin_qsm(m, in, n);
         return pb::check_claim21(m.trace());
       }},
      {"s-QSM parity tree", false,
       [n](std::uint64_t g) {
         pb::Rng rng(kSeed);
         const auto bits = pb::bernoulli_array(n, 0.5, rng);
         pb::QsmMachine m({.g = g, .model = pb::CostModel::SQsm});
         const pb::Addr in = m.alloc(n);
         m.preload(in, bits);
         pb::parity_tree(m, in, n);
         return pb::check_claim21(m.trace());
       }},
      {"s-QSM LAC prefix", false,
       [n](std::uint64_t g) {
         pb::Rng rng(kSeed);
         const auto bits = pb::bernoulli_array(n, 0.5, rng);
         pb::QsmMachine m({.g = g, .model = pb::CostModel::SQsm});
         const pb::Addr in = m.alloc(n);
         m.preload(in, bits);
         pb::lac_prefix(m, in, n, 2);
         return pb::check_claim21(m.trace());
       }},
      {"BSP parity", true,
       [n](std::uint64_t g) {
         pb::Rng rng(kSeed);
         const auto bits = pb::bernoulli_array(n, 0.5, rng);
         pb::BspMachine m({.p = 256, .g = g, .L = 8 * g});
         pb::parity_bsp(m, bits);
         return pb::check_claim21(m.trace());
       }},
      {"BSP LAC", true,
       [n](std::uint64_t g) {
         pb::Rng rng(kSeed);
         const auto bits = pb::bernoulli_array(n, 0.5, rng);
         pb::BspMachine m({.p = 256, .g = g, .L = 8 * g});
         pb::lac_bsp(m, bits);
         return pb::check_claim21(m.trace());
       }},
  };

  // Cell order is g outer, execution inner.
  std::vector<SweepCell> cells;
  for (const std::uint64_t g : {2ull, 8ull, 32ull})
    for (const Execution& e : executions)
      cells.push_back({.key = key(e, g), .run = [&e, g](std::uint64_t) {
                         return mapped(e.replay(g));
                       }});
  const auto& replays = sweep("Claim 2.1 replays", std::move(cells));

  TextTable t({"execution", "T_model", "T_GSM", "factor", "ratio",
               "verdict"});
  for (const auto& c : replays.cells) report(t, c);
  std::printf("%s\n", t.render().c_str());

  const std::string rounds_title =
      "Round mapping (Claim 2.1 items 5-7): "
      "round-structured runs stay rounds on the "
      "target GSM instance";
  const std::uint64_t rn = 1 << 14, p = 256;
  const auto& rounds = sweep(
      rounds_title,
      {{.key = "s-QSM parity rounds p=256",
        .lb = bb::rounds_parity_sqsm(rn, p),
        .run = [=](std::uint64_t) { return parity_round_mapping(rn, p); }}});
  std::printf("%s", pb::banner(rounds_title).c_str());
  TextTable r({"execution", "rounds", "all-rounds on source",
               "all-rounds on GSM(1,1)"});
  for (const auto& c : rounds.cells)
    r.add_row({c.key, TextTable::num(c.mean, 0),
               c.value("all_rounds") != 0.0 ? "yes" : "NO",
               c.value("gsm_all_rounds") != 0.0 ? "yes" : "NO"});
  std::printf("%s\n", r.render().c_str());

  return session.finish();
}
