// The root of the lower-bound tree: the GSM theorems themselves, plus the
// QSM(g, d) column derived through Claim 2.2.
//
// (a) GSM: fan-in trees on GSM(alpha, beta, gamma) instances vs the
//     Theorem 3.1 / 7.2 (deterministic) and 3.2 / 7.1 (randomized)
//     curves; the gamma sweep shows the n/gamma scaling.
// (b) Degree ledger: the Theorem 3.1 recurrence evaluated exactly on a
//     small run — the envelope b_i, the realized degrees, and the phase
//     count the recurrence forces.
// (c) QSM(g, d): parity/OR on the generalized machine vs the Claim 2.2
//     instantiations of the GSM bounds, across the g/d grid including
//     both endpoints (d = 1: QSM column; d = g: s-QSM column).
//
// Every table is a sweep (see harness.hpp for --jobs / --json): the GSM
// and QSM(g,d) grids carry their parity lower bound as lb, the rounds
// table its Theorem 7.3 bound, and the degree ledger is one exact run
// whose per-phase records ride along as named values.

#include <cstdio>

#include "adversary/degree_argument.hpp"
#include "algos/gsm_algos.hpp"
#include "bounds/qsm_gd_bounds.hpp"
#include "harness.hpp"

namespace pb = parbounds;
namespace bb = parbounds::bounds;
using parbounds::TextTable;
using namespace parbounds::bench;
using parbounds::runtime::NamedValues;
using parbounds::runtime::SweepCell;
using parbounds::runtime::Trial;

namespace {

double gsm_tree_cost(std::uint64_t n, std::uint64_t alpha,
                     std::uint64_t beta, std::uint64_t gamma, unsigned fanin,
                     bool parity) {
  pb::GsmMachine m({.alpha = alpha, .beta = beta, .gamma = gamma});
  pb::Rng rng(kSeed);
  const auto input = pb::bernoulli_array(n, 0.5, rng);
  if (parity)
    pb::gsm_parity_tree(m, input, fanin);
  else
    pb::gsm_or_tree(m, input, fanin);
  return static_cast<double>(m.time());
}

void print_gsm() {
  std::printf("%s", pb::banner("GSM time bounds (the theorems everything "
                               "else is a corollary of)")
                        .c_str());
  struct P {
    std::uint64_t a, b, c;
  };
  constexpr std::uint64_t ns[] = {1u << 10, 1u << 14};
  constexpr P prms[] = {P{1, 1, 1}, P{1, 4, 1}, P{4, 1, 1}, P{1, 1, 8}};
  const auto key = [](std::uint64_t n, const P& prm) {
    return "n=" + std::to_string(n) + ",a=" + std::to_string(prm.a) +
           ",b=" + std::to_string(prm.b) + ",c=" + std::to_string(prm.c);
  };
  const auto params = [](const P& prm) {
    return bb::GsmParams{static_cast<double>(prm.a),
                         static_cast<double>(prm.b),
                         static_cast<double>(prm.c)};
  };
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : ns)
    for (const P& prm : prms)
      cells.push_back({.key = key(n, prm),
                       .lb = bb::gsm_parity_det_time(n, params(prm)),
                       .run = [n, prm](std::uint64_t) {
                         return gsm_tree_cost(n, prm.a, prm.b, prm.c, 2, true);
                       }});
  const auto& res = sweep("GSM parity fan-in-2 tree", std::move(cells));

  TextTable t({"n,alpha,beta,gamma", "measured (tree)", "parity det LB "
               "(Thm 3.1)", "OR det LB (Thm 7.2)", "parity rand LB "
               "(Thm 3.2)", "OR rand LB (Thm 7.1)"});
  for (std::size_t ni = 0; ni < std::size(ns); ++ni)
    for (std::size_t pi = 0; pi < std::size(prms); ++pi) {
      const std::uint64_t n = ns[ni];
      const bb::GsmParams gp = params(prms[pi]);
      const auto& c = res.cells[ni * std::size(prms) + pi];
      t.add_row({c.key, TextTable::num(c.mean, 0), TextTable::num(c.lb, 1),
                 TextTable::num(bb::gsm_or_det_time(n, gp), 1),
                 TextTable::num(bb::gsm_parity_rand_time(n, gp), 1),
                 TextTable::num(bb::gsm_or_rand_time(n, gp), 1)});
    }
  std::printf("%s\n", t.render().c_str());
}

/// The exact Theorem 3.1 ledger of a fan-in-2 parity tree (n = 10): the
/// actual phase count as the cost, the recurrence's verdict and every
/// phase's record as named values.
Trial degree_ledger() {
  pb::TraceAnalysis ta(
      [](pb::GsmMachine& m, std::span<const pb::Word> input) {
        pb::gsm_parity_tree(m, input, 2);
      },
      pb::GsmConfig{}, 10, pb::PartialInputMap::all_unset(10));
  const auto ledger = pb::verify_degree_recurrence(ta);
  NamedValues values = {
      {"final_max_degree", ledger.final_max_degree},
      {"phases_required", pb::phases_required_by_recurrence(ledger, 10.0)},
      {"ledger_phases", static_cast<double>(ledger.phases.size())}};
  for (std::size_t i = 0; i < ledger.phases.size(); ++i) {
    const auto& rec = ledger.phases[i];
    const std::string ph = "phase" + std::to_string(i + 1) + ".";
    values.push_back({ph + "tau", static_cast<double>(rec.tau)});
    values.push_back({ph + "tau_prime", static_cast<double>(rec.tau_prime)});
    values.push_back({ph + "envelope", rec.envelope});
    values.push_back({ph + "max_deg", rec.max_deg});
    values.push_back({ph + "ok", rec.ok ? 1.0 : 0.0});
  }
  return {static_cast<double>(ta.phases()), std::move(values)};
}

void print_degree_ledger() {
  std::printf("%s", pb::banner("Theorem 3.1 degree recurrence, exact "
                               "(parity fan-in-2 tree, n = 10, gamma = 1)")
                        .c_str());
  const auto& res = sweep(
      "Theorem 3.1 degree recurrence",
      {{.key = "parity tree n=10,gamma=1", .run = [](std::uint64_t) {
          return degree_ledger();
        }}});
  const auto& c = res.cells.front();
  const auto phase = [&c](unsigned i, const char* field) {
    return c.value("phase" + std::to_string(i) + "." + field);
  };
  TextTable t({"phase i", "tau_i", "tau'_i", "envelope b_i",
               "max deg(States)", "deg <= b_i"});
  const auto phases = static_cast<unsigned>(c.value("ledger_phases"));
  for (unsigned i = 1; i <= phases; ++i)
    t.add_row({std::to_string(i), TextTable::num(phase(i, "tau"), 0),
               TextTable::num(phase(i, "tau_prime"), 0),
               TextTable::num(phase(i, "envelope"), 0),
               TextTable::num(phase(i, "max_deg"), 0),
               phase(i, "ok") != 0.0 ? "yes" : "NO"});
  std::printf("%s", t.render().c_str());
  std::printf("final max cell degree: %u (= r = n/gamma, so the machine "
              "could only now hold Parity_r); recurrence forces >= %u "
              "phases, actual %u\n\n",
              static_cast<unsigned>(c.value("final_max_degree")),
              static_cast<unsigned>(c.value("phases_required")),
              static_cast<unsigned>(c.mean));
}

void print_qsm_gd() {
  std::printf("%s", pb::banner("QSM(g,d) via Claim 2.2 — parity across "
                               "the g/d grid (d=1 is the QSM column, d=g "
                               "the s-QSM column)")
                        .c_str());
  const std::uint64_t n = 1 << 12;
  struct GD {
    std::uint64_t g, d;
  };
  constexpr GD gds[] = {GD{8, 1}, GD{8, 2}, GD{8, 8}, GD{2, 8}, GD{1, 8}};
  std::vector<SweepCell> cells;
  for (const GD& gd : gds)
    cells.push_back(
        {.key = "n=" + std::to_string(n) + ",g=" + std::to_string(gd.g) +
                ",d=" + std::to_string(gd.d),
         .lb = bb::qsm_gd_parity_det_time(n, gd.g, gd.d),
         .run = [n, gd](std::uint64_t) {
           pb::QsmMachine m(
               {.g = gd.g, .d = gd.d, .model = pb::CostModel::QsmGd});
           pb::Rng rng(kSeed);
           const auto input = pb::bernoulli_array(n, 0.5, rng);
           const pb::Addr in = m.alloc(n);
           m.preload(in, input);
           pb::parity_tree(m, in, n, 2);
           return static_cast<double>(m.time());
         }});
  const auto& res = sweep("QSM(g,d) parity tree", std::move(cells));

  TextTable t({"n,g,d", "measured", "parity LB (Clm 2.2)", "meas/LB",
               "OR det LB", "LAC rand LB"});
  for (std::size_t i = 0; i < std::size(gds); ++i) {
    const GD gd = gds[i];
    const auto& c = res.cells[i];
    t.add_row({c.key, TextTable::num(c.mean, 0), TextTable::num(c.lb, 1),
               TextTable::num(c.mean / c.lb, 2),
               TextTable::num(bb::qsm_gd_or_det_time(n, gd.g, gd.d), 1),
               TextTable::num(bb::qsm_gd_lac_rand_time(n, gd.g, gd.d), 1)});
  }
  std::printf("%s\n", t.render().c_str());
}

void print_gsm_rounds() {
  std::printf("%s", pb::banner("GSM rounds (Section 2.3 budget mu*n/"
                               "(lambda*p)) and the GSM(h) relaxation of "
                               "Section 6.3")
                        .c_str());
  const std::uint64_t n = 1 << 12;
  constexpr std::uint64_t ps[] = {8ull, 64ull, 512ull};
  const bb::GsmParams gp{2, 1, 2};
  std::vector<SweepCell> cells;
  for (const std::uint64_t p : ps)
    cells.push_back(
        {.key = std::to_string(p),
         .lb = bb::gsm_or_rand_rounds(n, p, gp),
         .run = [n, p](std::uint64_t) {
           pb::GsmMachine m({.alpha = 2, .beta = 1, .gamma = 2});
           pb::Rng rng(kSeed);
           const auto input = pb::bernoulli_array(n, 0.5, rng);
           pb::gsm_reduce_rounds(m, input, p, /*parity=*/false);
           const auto audit =
               pb::audit_rounds_gsm(m.trace(), n, p, m.alpha(), m.beta(), 6);
           return Trial(static_cast<double>(audit.rounds),
                        {{"all_rounds", audit.all_rounds() ? 1.0 : 0.0}});
         }});
  const auto& res = sweep("GSM OR rounds", std::move(cells));

  TextTable t({"p (n=2^12, a=2,b=1,c=2)", "rounds", "all-rounds?",
               "OR rounds LB (Thm 7.3)"});
  for (const auto& c : res.cells)
    t.add_row({c.key, TextTable::num(c.mean, 0),
               c.value("all_rounds") != 0.0 ? "yes" : "NO",
               TextTable::num(c.lb, 2)});
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_gsm_qsmgd");
  std::printf("%s", pb::banner("GSM + QSM(g,d) REPRODUCTION — the "
                               "lower-bound model itself, and Claim 2.2")
                        .c_str());
  print_gsm();
  print_degree_ledger();
  print_qsm_gd();
  print_gsm_rounds();

  return session.finish();
}
