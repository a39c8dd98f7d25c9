// The Random Adversary machinery, measured (DESIGN.md exp ADV).
//
// (a) Section 5 adversary against real GSM algorithms on exact (small)
//     instances: inputs fixed per REFINE step, forced big-steps, and the
//     t-goodness invariants — all checked exactly, never violated.
// (b) Section 7 OR distribution: the d_i ladder, the success-probability
//     vs phase-budget trade-off of Theorem 7.1, and the log* horizon.
// (c) Envelope growth: the paper's d_t/k_t sequences evaluated so their
//     shapes (geometric vs tower) are visible.
//
// The exact adversary runs and the Theorem 7.1 success-probability
// trials are sweep cells (see harness.hpp for --jobs / --json); the
// ladder and envelope prints are closed-form and stay print-only.

#include <cstdio>

#include "adversary/adversary.hpp"
#include "adversary/goodness.hpp"
#include "adversary/or_adversary.hpp"
#include "harness.hpp"

namespace pb = parbounds;
using parbounds::TextTable;
using namespace parbounds::bench;
using parbounds::runtime::SweepCell;
using parbounds::runtime::Trial;

namespace {

pb::GsmAlgorithm or_tree_algo(unsigned fanin) {
  return [fanin](pb::GsmMachine& m, std::span<const pb::Word> input) {
    pb::gsm_or_tree(m, input, fanin);
  };
}

void adversary_vs_or_tree() {
  struct Combo {
    unsigned n, fanin;
  };
  constexpr Combo combos[] = {{6, 2}, {6, 3}, {8, 2},
                              {8, 3}, {10, 2}, {10, 3}};
  // The adversary is deterministic given its seed (kSeed + n), so each
  // (n, fanin) combination is one cell: big-steps forced as the cost,
  // the step count, inputs fixed and the goodness verdict as values.
  std::vector<SweepCell> cells;
  for (const Combo& combo : combos)
    cells.push_back(
        {.key = "n=" + std::to_string(combo.n) +
                ",fanin=" + std::to_string(combo.fanin),
         .run = [n = combo.n, fanin = combo.fanin](std::uint64_t) {
           pb::RandomAdversary adv(or_tree_algo(fanin), pb::GsmConfig{}, n,
                                   pb::BitDistribution::uniform(n), kSeed + n);
           pb::PartialInputMap f = pb::PartialInputMap::all_unset(n);
           unsigned steps = 0;
           bool good = true;
           std::uint64_t forced = 0, fixed = 0;
           for (unsigned phase = 1; phase <= 6; ++phase) {
             const auto step = adv.refine(phase, f);
             if (step.forced_rw == 0 && step.forced_contention == 0) break;
             f = step.f;
             forced += step.x;
             fixed += step.inputs_fixed;
             ++steps;
             const auto ta = adv.analyze(f);
             const auto rep = pb::check_t_good_s5(
                 ta, std::min(phase, ta.phases()), 1.0, 1.0, n, fixed);
             good = good && rep.ok;
           }
           return Trial(static_cast<double>(forced),
                        {{"steps", static_cast<double>(steps)},
                         {"inputs_fixed", static_cast<double>(fixed)},
                         {"t_good", good ? 1.0 : 0.0}});
         }});
  const auto& res = sweep("Section 5 adversary vs GSM OR trees",
                          std::move(cells));

  std::printf("%s", pb::banner("Section 5 adversary vs GSM OR trees: "
                               "forced work per phase, inputs fixed, "
                               "goodness verdict (exact, n <= 10)")
                        .c_str());
  TextTable t({"n", "fanin", "steps", "big-steps forced", "inputs fixed",
               "t-good all steps?"});
  for (std::size_t i = 0; i < std::size(combos); ++i) {
    const auto& c = res.cells[i];
    t.add_row({std::to_string(combos[i].n), std::to_string(combos[i].fanin),
               TextTable::num(c.value("steps"), 0), TextTable::num(c.mean, 0),
               TextTable::num(c.value("inputs_fixed"), 0),
               c.value("t_good") != 0.0 ? "yes" : "NO"});
  }
  std::printf("%s\n", t.render().c_str());
}

void or_distribution_ladder() {
  std::printf("%s", pb::banner("Section 7: the d_i ladder and log* "
                               "horizon of the OR distribution D")
                        .c_str());
  TextTable t({"n", "stages T=(1/4)log*", "d_0", "d_1", "d_2 (capped 1e18)"});
  for (const double n : {1e4, 1e8, 1e18}) {
    const auto d = pb::s7_d_sequence(n, 1, 1);
    t.add_row({TextTable::num(n, 0),
               std::to_string(pb::s7_T(n, 1, 1)),
               TextTable::num(d[0], 2), TextTable::num(d[1], 1),
               TextTable::num(d.size() > 2 ? d[2] : 0.0, 0)});
  }
  std::printf("%s\n", t.render().c_str());
}

void or_tradeoff() {
  std::printf("%s",
              pb::banner("Theorem 7.1 empirically: success probability of "
                         "a truncated OR tree against D (n = 256)")
                  .c_str());
  // One cell per budget, 1000 single-draw trials each: every trial draws
  // one input from D under its own derived seed and returns 0/1, so the
  // cell mean IS the success probability and the estimate is identical
  // for any --jobs (each draw's seed depends only on the trial id).
  const auto dist = std::make_shared<pb::OrDistribution>(256, 1, 1);
  constexpr unsigned budgets[] = {1u, 2u, 4u, 8u, 12u, 16u, 0u};
  std::vector<SweepCell> cells;
  for (const unsigned budget : budgets)
    cells.push_back({.key = budget == 0 ? "unbounded" : std::to_string(budget),
                     .trials = 1000,
                     .run = [dist, budget](std::uint64_t s) {
                       pb::Rng rng(s);
                       return pb::or_success_experiment(*dist, 2, budget, 1,
                                                        rng, {});
                     }});
  const auto& res = sweep("Theorem 7.1 OR success vs phase budget",
                          std::move(cells));
  TextTable t({"phase budget", "success probability (1000 trials)"});
  for (const auto& c : res.cells)
    t.add_row({c.key, TextTable::num(c.mean, 3)});
  std::printf("%s\n", t.render().c_str());
}

void envelope_shapes() {
  std::printf("%s", pb::banner("Envelope growth: Section 5 d_t (geometric "
                               "in t) vs k_t (double exponential), nu = 2, "
                               "mu = 2")
                        .c_str());
  TextTable t({"t", "d_t", "k_t (capped 1e18)", "r_t (n = 2^20)"});
  for (unsigned tt = 0; tt <= 5; ++tt)
    t.add_row({std::to_string(tt), TextTable::num(pb::s5_d(tt, 2, 2), 0),
               TextTable::num(pb::s5_k(tt, 2, 2), 0),
               TextTable::num(pb::s5_r(tt, 1 << 20), 0)});
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_adversary");
  std::printf("%s", pb::banner("RANDOM ADVERSARY MACHINERY — Sections 4, "
                               "5 and 7 executed and measured")
                        .c_str());
  adversary_vs_or_tree();
  or_distribution_ladder();
  or_tradeoff();
  envelope_shapes();

  return session.finish();
}
