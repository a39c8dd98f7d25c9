#include "core/spmd.hpp"

#include <gtest/gtest.h>

#include "algos/broadcast.hpp"
#include "algos/parity.hpp"
#include "workloads/generators.hpp"

namespace parbounds {
namespace {

// gtest names each case after the parameter's raw bytes, so the struct has
// no padding: padding bytes are indeterminate and would make the names vary
// from run to run.
struct SpmdCase {
  std::uint64_t n;
  std::uint64_t fanin;
  std::uint64_t g;
};

class SpmdParity : public ::testing::TestWithParam<SpmdCase> {};

TEST_P(SpmdParity, MatchesDriverResultAndCost) {
  const auto [n, wide_fanin, g] = GetParam();
  const auto fanin = static_cast<unsigned>(wide_fanin);
  Rng rng(n + fanin);
  const auto input = bernoulli_array(n, 0.5, rng);
  Word want = 0;
  for (const Word v : input) want ^= v;

  // SPMD: processors only ever see their own inboxes.
  QsmMachine spmd({.g = g, .model = CostModel::SQsm});
  Addr in = spmd.alloc(n);
  spmd.preload(in, input);
  const Addr out = spmd_parity_tree(spmd, in, n, fanin);
  EXPECT_EQ(spmd.peek(out), want);

  // Driver version of the same algorithm.
  QsmMachine drv({.g = g, .model = CostModel::SQsm});
  in = drv.alloc(n);
  drv.preload(in, input);
  EXPECT_EQ(parity_tree(drv, in, n, fanin), want);

  // Same phase structure, same model time.
  EXPECT_EQ(spmd.phases(), drv.phases());
  EXPECT_EQ(spmd.time(), drv.time());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmdParity,
    ::testing::Values(SpmdCase{2, 2, 1}, SpmdCase{64, 2, 4},
                      SpmdCase{100, 3, 2}, SpmdCase{256, 4, 8},
                      SpmdCase{1000, 8, 1}));

TEST(SpmdBroadcast, MatchesDriverResultAndCost) {
  for (const std::uint64_t n : {1ull, 7ull, 64ull, 500ull}) {
    QsmMachine spmd({.g = 8});
    Addr src = spmd.alloc(1);
    spmd.preload(src, Word{77});
    Addr dst = spmd.alloc(n);
    spmd_broadcast(spmd, src, dst, n, 8);
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(spmd.peek(dst + i), 77);

    QsmMachine drv({.g = 8});
    src = drv.alloc(1);
    drv.preload(src, Word{77});
    dst = drv.alloc(n);
    qsm_broadcast(drv, src, dst, n, 8);
    EXPECT_EQ(spmd.time(), drv.time()) << "n=" << n;
  }
}

TEST(Spmd, LocalityByConstruction) {
  // The honesty property the layer exists for: perturbing memory the
  // processors never read cannot change anything, because step() only
  // receives inboxes.
  Rng rng(3);
  const auto input = bernoulli_array(128, 0.5, rng);
  auto run = [&](Word junk) {
    QsmMachine m({.g = 2});
    const Addr in = m.alloc(128);
    m.preload(in, input);
    const Addr decoy = m.alloc(4);
    m.preload(decoy, junk);
    const Addr out = spmd_parity_tree(m, in, 128, 2);
    return std::pair<Word, std::uint64_t>(m.peek(out), m.time());
  };
  EXPECT_EQ(run(0), run(99999));
}

TEST(Spmd, RunnerRejectsNonHaltingPrograms) {
  struct Spinner : SpmdProcessor {
    SpmdAction step(unsigned, std::span<const Word>) override {
      SpmdAction a;
      a.local_ops = 1;  // forever busy, never halts
      return a;
    }
  };
  QsmMachine m({.g = 1});
  std::vector<std::unique_ptr<SpmdProcessor>> procs;
  procs.push_back(std::make_unique<Spinner>());
  EXPECT_THROW(run_spmd(m, procs, /*max_phases=*/32), ModelViolation);
}

TEST(Spmd, SilentLiveProcessorsRejected) {
  struct Mute : SpmdProcessor {
    SpmdAction step(unsigned, std::span<const Word>) override {
      return {};  // live but silent forever
    }
  };
  QsmMachine m({.g = 1});
  std::vector<std::unique_ptr<SpmdProcessor>> procs;
  procs.push_back(std::make_unique<Mute>());
  EXPECT_THROW(run_spmd(m, procs, 8), ModelViolation);
}

TEST(Spmd, EmptyProgramIsANoOp) {
  QsmMachine m({.g = 1});
  std::vector<std::unique_ptr<SpmdProcessor>> procs;
  EXPECT_EQ(run_spmd(m, procs), 0u);
  EXPECT_EQ(m.phases(), 0u);
}

}  // namespace
}  // namespace parbounds
