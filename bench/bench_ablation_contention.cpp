// Ablation: what queue charging buys (DESIGN.md ABL-QUEUE).
//
// The same program is costed under four contention policies — QSM
// (kappa), s-QSM (g*kappa), QSM with unit-time concurrent reads, and a
// CRCW-like accounting that ignores contention — separating how much of
// each algorithm's cost is bandwidth (g * m_rw) versus queuing. This is
// the model spectrum of Section 2.1 made quantitative, and explains why
// the paper's three tables differ only in their contention terms.
//
// Each program is one sweep cell: it runs once and is replayed under all
// four policies from the recorded trace, so the comparison stays "same
// phases, different charging". The cell's cost is the QSM charge and
// every policy's charge rides along as a named value (see harness.hpp
// for --jobs / --json).

#include <cstdio>

#include "harness.hpp"

namespace pb = parbounds;
using parbounds::TextTable;
using namespace parbounds::bench;
using parbounds::runtime::CellResult;
using parbounds::runtime::Trial;

namespace {

constexpr pb::CostModel kModels[] = {
    pb::CostModel::Qsm, pb::CostModel::SQsm, pb::CostModel::QsmCrFree,
    pb::CostModel::CrcwLike};

double replay_cost(const pb::ExecutionTrace& t, pb::CostModel model,
                   std::uint64_t g) {
  // Same phases, different charging — exactly comparable.
  double total = 0;
  for (const auto& ph : t.phases)
    total += static_cast<double>(pb::phase_cost(model, g, ph.stats));
  return total;
}

/// The QSM charge as the cost, every policy's charge by model name.
Trial replay_all(const pb::ExecutionTrace& trace, std::uint64_t g) {
  Trial out(replay_cost(trace, kModels[0], g));  // kModels[0] is the QSM
  for (const pb::CostModel model : kModels)
    out.values.push_back(
        {pb::cost_model_name(model), replay_cost(trace, model, g)});
  return out;
}

void print_table(const char* title, const CellResult& c) {
  std::printf("%s", pb::banner(title).c_str());
  TextTable t({"cost model", "total cost", "vs QSM"});
  for (const pb::CostModel model : kModels) {
    const double cost = c.value(pb::cost_model_name(model));
    t.add_row({pb::cost_model_name(model), TextTable::num(cost, 0),
               TextTable::num(cost / std::max(c.mean, 1e-9), 2)});
  }
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_ablation_contention");
  std::printf("%s", pb::banner("ABLATION — contention charging across the "
                               "model spectrum (same program, four costs)")
                        .c_str());
  const std::uint64_t n = 1 << 14, g = 16;

  const std::function<Trial()> programs[] = {
      [&] {
        pb::QsmMachine m({.g = g});
        pb::Rng rng(kSeed);
        const auto input = pb::boolean_array(n, 3, rng);
        const pb::Addr in = m.alloc(n);
        m.preload(in, input);
        pb::or_fanin_qsm(m, in, n);
        return replay_all(m.trace(), g);
      },
      [&] {
        pb::QsmMachine m({.g = g});
        pb::Rng rng(kSeed);
        const auto input = pb::bernoulli_array(n, 0.5, rng);
        const pb::Addr in = m.alloc(n);
        m.preload(in, input);
        pb::parity_circuit(m, in, n);
        return replay_all(m.trace(), g);
      },
      [&] {
        pb::QsmMachine m(
            {.g = g, .writes = pb::WriteResolution::Random, .seed = kSeed});
        pb::Rng rng(kSeed);
        const auto input = pb::lac_instance(n, n / 8, rng);
        const pb::Addr in = m.alloc(n);
        m.preload(in, input);
        pb::Rng darts(kSeed + 1);
        pb::lac_dart(m, in, n, n / 8, darts);
        return replay_all(m.trace(), g);
      },
      [&] {
        pb::QsmMachine m({.g = g});
        const pb::Addr src = m.alloc(1);
        m.preload(src, pb::Word{1});
        const pb::Addr dst = m.alloc(n);
        pb::qsm_broadcast(m, src, dst, n);
        return replay_all(m.trace(), g);
      },
  };
  const char* titles[] = {
      "OR, contention fan-in g (queues are the whole point: "
      "s-QSM pays g*kappa for every funnel level)",
      "Parity, circuit emulation (read contention 2^(k-1): free "
      "concurrent reads would let k grow to g)",
      "LAC, dart throwing (low-contention by design: all four "
      "policies nearly coincide)",
      "Broadcast, fan-out g (read queues of width g per level)"};

  std::vector<parbounds::runtime::SweepCell> cells;
  for (std::size_t i = 0; i < std::size(programs); ++i) {
    const std::string title = titles[i];
    cells.push_back({.key = title.substr(0, title.find(',')),
                     .run = [&, i](std::uint64_t) { return programs[i](); }});
  }
  const auto& res = sweep("contention charging", std::move(cells));
  for (std::size_t i = 0; i < res.cells.size(); ++i)
    print_table(titles[i], res.cells[i]);

  return session.finish();
}
