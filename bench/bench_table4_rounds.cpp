// Reproduction of Table 1, subtable 4: "Number of Rounds for p-processor
// Algorithms (p <= n)".
//
// A round is a phase within the O(g n/p) budget (Section 2.3); every run
// below is audited to be all-rounds before its round count is reported.
// The THETA entries reproduce as flat measured/LB ratios:
//   * OR on the QSM: contention fan-in g n/p, Theta(log n / log(g n/p));
//   * OR / Parity on the s-QSM and BSP: fan-in n/p trees,
//     Theta(log n / log(n/p));
//   * LAC rounds: the paper's best round-structured algorithm is prefix
//     sums (Section 8), so measured tracks the parity curve while the LB
//     is the weaker sqrt form — the open gap is visible in the ratio.
//
// Every (problem, model, p) entry is one sweep cell whose cost is the
// audited round count and whose lb is the paper's rounds_* bound
// (bounds/model_bounds.hpp); the audit verdict rides along as the named
// values all_rounds (0/1) and worst_ratio, so warnings still print in
// row order at any --jobs.

#include <cstdio>
#include <span>

#include "harness.hpp"

namespace pb = parbounds;
namespace bb = parbounds::bounds;
using parbounds::TextTable;
using parbounds::runtime::CellResult;
using parbounds::runtime::SweepCell;
using parbounds::runtime::Trial;
using namespace parbounds::bench;

namespace {

constexpr std::uint64_t kN = 1 << 16;

Trial audited(const pb::RoundAudit& audit) {
  return {static_cast<double>(audit.rounds),
          {{"all_rounds", audit.all_rounds() ? 1.0 : 0.0},
           {"worst_ratio", audit.worst_ratio}}};
}

using QsmProgram = std::function<void(pb::QsmMachine&, pb::Addr)>;

/// Rounds of `run` on a fresh QSM holding a fixed 5-sparse input.
SweepCell qsm_rounds(std::string key, double lb, pb::CostModel model,
                     std::uint64_t g, std::uint64_t p, QsmProgram run) {
  return {.key = std::move(key),
          .lb = lb,
          .run = [=](std::uint64_t) {
            pb::QsmMachine m({.g = g, .model = model});
            pb::Rng rng(kSeed);
            const auto input = pb::boolean_array(kN, 5, rng);
            const pb::Addr in = m.alloc(kN);
            m.preload(in, input);
            run(m, in);
            return audited(pb::audit_rounds_qsm(m.trace(), kN, p, 6));
          }};
}

bool all_rounds(const CellResult& c) { return c.value("all_rounds") != 0.0; }

void warn_if_violated(const CellResult& c, const char* what) {
  if (!all_rounds(c))
    std::printf("  !! %s violated the round budget (ratio %.2f)\n", what,
                c.value("worst_ratio"));
}

std::string p_key(const char* what, std::uint64_t p) {
  return std::string(what) + " p=" + std::to_string(p);
}

/// One table row for a pair of cells at the same p: measured, lb and
/// ratio of each.
void add_pair_row(TextTable& t, std::uint64_t p, const CellResult& a,
                  const CellResult& b) {
  t.add_row({std::to_string(p), TextTable::num(a.mean, 0),
             TextTable::num(a.lb, 2), TextTable::num(a.mean / a.lb, 2),
             TextTable::num(b.mean, 0), TextTable::num(b.lb, 2),
             TextTable::num(b.mean / b.lb, 2)});
}

/// Sweep (QSM, s-QSM) cell pairs, one pair per p, and print them side
/// by side, warning for every run that left the round budget.
void print_model_pairs(const std::string& title, const char* qsm_meas,
                       const char* qsm_lb, const char* what_q,
                       const char* what_s, std::span<const std::uint64_t> ps,
                       std::vector<SweepCell> cells) {
  const auto& res = sweep(title, std::move(cells));
  std::printf("%s", pb::banner(title).c_str());
  TextTable t({"p (n=2^16)", qsm_meas, qsm_lb, "ratio", "s-QSM meas", "LB",
               "ratio"});
  for (std::size_t i = 0; i < ps.size(); ++i) {
    warn_if_violated(res.cells[2 * i], what_q);
    warn_if_violated(res.cells[2 * i + 1], what_s);
    add_pair_row(t, ps[i], res.cells[2 * i], res.cells[2 * i + 1]);
  }
  std::printf("%s\n", t.render().c_str());
}

void print_or_rounds() {
  constexpr std::uint64_t ps[] = {1ull << 4, 1ull << 7, 1ull << 10,
                                  1ull << 13};
  std::vector<SweepCell> cells;
  for (const std::uint64_t p : ps) {
    cells.push_back(qsm_rounds(p_key("or qsm g=8", p),
                               bb::rounds_or_qsm(kN, 8, p),
                               pb::CostModel::Qsm, 8, p,
                               [p](pb::QsmMachine& m, pb::Addr in) {
                                 pb::or_rounds(m, in, kN, p);
                               }));
    cells.push_back(qsm_rounds(p_key("or s-qsm g=8", p),
                               bb::rounds_or_sqsm(kN, p),
                               pb::CostModel::SQsm, 8, p,
                               [p](pb::QsmMachine& m, pb::Addr in) {
                                 pb::reduce_rounds(m, in, kN, p,
                                                   pb::Combine::Or);
                               }));
  }
  print_model_pairs("Rounds / OR — QSM Theta(log n/log(gn/p)), "
                    "s-QSM Theta(log n/log(n/p))  [Cor 7.3]",
                    "QSM g=8 meas", "LB", "or_rounds", "reduce_rounds", ps,
                    std::move(cells));
}

void print_parity_rounds() {
  constexpr std::uint64_t ps[] = {1ull << 4, 1ull << 7, 1ull << 10,
                                  1ull << 13};
  std::vector<SweepCell> cells;
  for (const std::uint64_t p : ps)
    cells.push_back(qsm_rounds(p_key("parity s-qsm g=4", p),
                               bb::rounds_parity_sqsm(kN, p),
                               pb::CostModel::SQsm, 4, p,
                               [p](pb::QsmMachine& m, pb::Addr in) {
                                 pb::parity_rounds(m, in, kN, p);
                               }));
  const std::string title =
      "Rounds / Parity — s-QSM Theta(log n/log(n/p)) "
      "[Thm 3.4 / Cor 3.4 for the QSM form]";
  const auto& res = sweep(title, std::move(cells));

  std::printf("%s", pb::banner(title).c_str());
  TextTable t({"p (n=2^16)", "s-QSM meas", "LB", "ratio", "QSM LB (Thm 3.4)"});
  for (std::size_t i = 0; i < std::size(ps); ++i) {
    const CellResult& c = res.cells[i];
    warn_if_violated(c, "parity_rounds");
    t.add_row({std::to_string(ps[i]), TextTable::num(c.mean, 0),
               TextTable::num(c.lb, 2), TextTable::num(c.mean / c.lb, 2),
               TextTable::num(bb::rounds_parity_qsm(kN, 4, ps[i]), 2)});
  }
  std::printf("%s\n", t.render().c_str());
}

void print_lac_rounds() {
  constexpr std::uint64_t ps[] = {1ull << 4, 1ull << 7, 1ull << 10};
  std::vector<SweepCell> cells;
  for (const std::uint64_t p : ps) {
    const QsmProgram run = [p](pb::QsmMachine& m, pb::Addr in) {
      pb::lac_rounds(m, in, kN, p);
    };
    cells.push_back(qsm_rounds(p_key("lac qsm g=8", p),
                               bb::rounds_lac_qsm(kN, 8, p),
                               pb::CostModel::Qsm, 8, p, run));
    cells.push_back(qsm_rounds(p_key("lac s-qsm g=8", p),
                               bb::rounds_lac_sqsm(kN, p),
                               pb::CostModel::SQsm, 8, p, run));
  }
  print_model_pairs("Rounds / LAC — LB sqrt(log n/log(n/p)) [Cor 6.3 "
                    "/ 6.6]; best known round algorithm is prefix "
                    "sums (Sec 8), hence the growing ratio",
                    "QSM meas", "LB (Thm 6.2)", "lac_rounds", "lac_rounds",
                    ps, std::move(cells));
}

void print_bsp_rounds() {
  constexpr std::uint64_t ps[] = {1ull << 4, 1ull << 7, 1ull << 10};
  std::vector<SweepCell> cells;
  for (const std::uint64_t p : ps) {
    const std::uint64_t np = kN / p;
    cells.push_back({.key = p_key("parity bsp", p),
                     .lb = bb::rounds_parity_bsp(kN, p),
                     .run = [p, np](std::uint64_t) {
                       pb::Rng rng(kSeed);
                       const auto bits = pb::bernoulli_array(kN, 0.5, rng);
                       pb::BspMachine m({.p = p, .g = 1, .L = 4});
                       pb::bsp_reduce(m, bits, pb::Combine::Xor, np);
                       return audited(
                           pb::audit_rounds_bsp(m.trace(), kN, p, 6));
                     }});
    cells.push_back({.key = p_key("lac bsp", p),
                     .lb = bb::rounds_lac_bsp(kN, p),
                     .run = [p, np](std::uint64_t) {
                       // The LAC instance follows the parity bits in
                       // one kSeed stream.
                       pb::Rng rng(kSeed);
                       (void)pb::bernoulli_array(kN, 0.5, rng);
                       const auto items = pb::lac_instance(kN, kN / 8, rng);
                       pb::BspMachine m({.p = p, .g = 1, .L = 4});
                       pb::lac_bsp(m, items, np);
                       return audited(
                           pb::audit_rounds_bsp(m.trace(), kN, p, 6));
                     }});
  }
  const std::string title =
      "Rounds / BSP — fan-in n/p supersteps: OR & "
      "Parity Theta(log n/log(n/p)); LAC via "
      "prefix exchange  [Cor 7.3, Cor 6.6]";
  const auto& res = sweep(title, std::move(cells));

  std::printf("%s", pb::banner(title).c_str());
  TextTable t({"p (n=2^16)", "parity meas", "LB", "ratio", "LAC meas",
               "LAC LB", "ratio"});
  for (std::size_t i = 0; i < std::size(ps); ++i) {
    const CellResult& par = res.cells[2 * i];
    const CellResult& lac = res.cells[2 * i + 1];
    if (!all_rounds(par) || !all_rounds(lac))
      std::printf("  !! BSP round budget violated (p=%llu)\n",
                  static_cast<unsigned long long>(ps[i]));
    add_pair_row(t, ps[i], par, lac);
  }
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_table4_rounds");
  std::printf("%s",
              pb::banner("TABLE 1 (subtable 4) REPRODUCTION — Rounds for "
                         "p-processor algorithms "
                         "[MacKenzie-Ramachandran SPAA'98]")
                  .c_str());
  print_or_rounds();
  print_parity_rounds();
  print_lac_rounds();
  print_bsp_rounds();

  return session.finish();
}
