#include <gtest/gtest.h>

#include <numeric>

#include "algos/broadcast.hpp"
#include "algos/prefix.hpp"
#include "workloads/generators.hpp"

namespace parbounds {
namespace {

class BroadcastSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BroadcastSweep, AllCopiesCorrect) {
  const std::uint64_t n = GetParam();
  QsmMachine m({.g = 4});
  const Addr src = m.alloc(1);
  m.preload(src, Word{123});
  const Addr dst = m.alloc(n);
  qsm_broadcast(m, src, dst, n);
  for (std::uint64_t i = 0; i < n; ++i)
    ASSERT_EQ(m.peek(dst + i), 123) << "copy " << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, BroadcastSweep,
                         ::testing::Values(1, 2, 3, 16, 100, 1024));

TEST(Broadcast, GFanoutBeatsBinaryForLargeG) {
  // [1]'s Theta(g log n / log g): fan-out g wins over fan-out 2.
  const std::uint64_t n = 4096, g = 32;
  QsmMachine wide({.g = g});
  Addr s = wide.alloc(1);
  wide.preload(s, Word{1});
  Addr d = wide.alloc(n);
  qsm_broadcast(wide, s, d, n, g);

  QsmMachine narrow({.g = g});
  s = narrow.alloc(1);
  narrow.preload(s, Word{1});
  d = narrow.alloc(n);
  qsm_broadcast(narrow, s, d, n, 2);

  EXPECT_LT(wide.time(), narrow.time());
}

TEST(Broadcast, PhaseCostBounded) {
  const std::uint64_t g = 16;
  QsmMachine m({.g = g});
  const Addr s = m.alloc(1);
  m.preload(s, Word{9});
  const Addr d = m.alloc(2048);
  qsm_broadcast(m, s, d, 2048);  // fanin = g
  for (const auto& ph : m.trace().phases) EXPECT_LE(ph.cost, g);
}

TEST(BspBroadcast, EveryComponentReceives) {
  for (const std::uint64_t p : {1ull, 2ull, 7ull, 64ull}) {
    BspMachine m({.p = p, .g = 2, .L = 8});
    const auto copies = bsp_broadcast(m, 55);
    ASSERT_EQ(copies.size(), p);
    for (const Word c : copies) EXPECT_EQ(c, 55);
  }
}

TEST(BspBroadcast, SuperstepsCostL) {
  BspMachine m({.p = 256, .g = 2, .L = 16});
  bsp_broadcast(m, 1);
  for (const auto& ph : m.trace().phases) EXPECT_EQ(ph.cost, m.L());
}

// ----- prefix sums -----------------------------------------------------------

// gtest names each case after the parameter's raw bytes, so the struct has
// no padding: padding bytes are indeterminate and would make the names vary
// from run to run.
struct PrefixCase {
  std::uint64_t n;
  std::uint64_t fanin;
};

class PrefixSweep : public ::testing::TestWithParam<PrefixCase> {};

TEST_P(PrefixSweep, MatchesExclusiveScan) {
  const auto [n, fanin] = GetParam();
  QsmMachine m({.g = 2});
  Rng rng(n * 3 + fanin);
  std::vector<Word> input(n);
  for (auto& v : input) v = static_cast<Word>(rng.next_below(9));
  const Addr in = m.alloc(n);
  m.preload(in, input);

  const Addr out = qsm_prefix(m, in, n, static_cast<unsigned>(fanin));
  Word acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(m.peek(out + i), acc) << "i=" << i << " fanin=" << fanin;
    acc += input[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrefixSweep,
    ::testing::Values(PrefixCase{1, 2}, PrefixCase{2, 2}, PrefixCase{7, 2},
                      PrefixCase{64, 2}, PrefixCase{100, 3},
                      PrefixCase{129, 4}, PrefixCase{1000, 8},
                      PrefixCase{555, 16}));

TEST(Prefix, HigherFaninFewerPhasesMoreCostPerPhase) {
  const std::uint64_t n = 4096;
  QsmMachine lo({.g = 1});
  Addr in = lo.alloc(n);
  std::vector<Word> ones(n, 1);
  lo.preload(in, ones);
  qsm_prefix(lo, in, n, 2);

  QsmMachine hi({.g = 1});
  in = hi.alloc(n);
  hi.preload(in, ones);
  qsm_prefix(hi, in, n, 64);

  EXPECT_LT(hi.phases(), lo.phases());
}

}  // namespace
}  // namespace parbounds
