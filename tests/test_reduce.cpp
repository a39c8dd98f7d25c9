#include "algos/reduce.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "workloads/generators.hpp"

namespace parbounds {
namespace {

// gtest names each case after the parameter's raw bytes, so the tail that
// would otherwise be padding is an explicit zeroed field: padding bytes are
// indeterminate and would make the names vary from run to run.
struct ReduceCase {
  std::uint64_t n;
  unsigned fanin;
  Combine op;
  std::uint8_t zero_tail[3] = {};
};

class ReduceTree : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(ReduceTree, MatchesSequentialFold) {
  const auto& [n, fanin, op, zero_tail] = GetParam();
  QsmMachine m({.g = 2});
  Rng rng(n * 31 + fanin);
  std::vector<Word> input(n);
  for (auto& v : input) v = static_cast<Word>(rng.next_below(100));
  const Addr in = m.alloc(n);
  m.preload(in, input);

  const Word got = reduce_tree(m, in, n, fanin, op);
  Word want = combine_identity(op);
  for (const Word v : input) want = apply_combine(op, want, v);
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReduceTree,
    ::testing::Values(ReduceCase{1, 2, Combine::Sum},
                      ReduceCase{2, 2, Combine::Sum},
                      ReduceCase{100, 2, Combine::Sum},
                      ReduceCase{100, 3, Combine::Xor},
                      ReduceCase{257, 16, Combine::Max},
                      ReduceCase{1024, 4, Combine::Or},
                      ReduceCase{1000, 7, Combine::Sum},
                      ReduceCase{31, 32, Combine::Xor}));

TEST(ReduceTree, FaninValidation) {
  QsmMachine m({.g = 1});
  EXPECT_THROW(reduce_tree(m, 0, 4, 1, Combine::Sum), std::invalid_argument);
  EXPECT_THROW(or_contention(m, 0, 4, 0), std::invalid_argument);
}

TEST(ReduceTree, LevelCostIsGTimesFanin) {
  // One level of fan-in k costs max(g*k, .) + max(g, k): check the trace.
  QsmMachine m({.g = 4});
  const Addr in = m.alloc(8);
  const std::vector<Word> v{1, 1, 1, 1, 1, 1, 1, 1};
  m.preload(in, v);
  reduce_tree(m, in, 8, 8, Combine::Sum);
  ASSERT_EQ(m.phases(), 2u);  // single level
  EXPECT_EQ(m.trace().phases[0].cost, 32u);  // g * 8 reads
}

TEST(OrContention, ContentionChargedNotGTimes) {
  // Fan-in k write level on the QSM costs max(g, k), not g*k.
  QsmMachine m({.g = 4});
  const Addr in = m.alloc(8);
  const std::vector<Word> v{1, 1, 1, 1, 1, 1, 1, 1};
  m.preload(in, v);
  const Word got = or_contention(m, in, 8, 8);
  EXPECT_EQ(got, 1);
  ASSERT_EQ(m.phases(), 2u);
  EXPECT_EQ(m.trace().phases[0].cost, 4u);  // each proc 1 read
  EXPECT_EQ(m.trace().phases[1].cost, 8u);  // kappa_w = 8 > g
}

class OrContentionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrContentionSweep, CorrectOnAllDensities) {
  const std::uint64_t n = 512;
  QsmMachine m({.g = 8});
  Rng rng(GetParam());
  const std::uint64_t ones = GetParam() % (n + 1);
  const auto input = boolean_array(n, ones, rng);
  const Addr in = m.alloc(n);
  m.preload(in, input);
  EXPECT_EQ(or_contention(m, in, n, 8), ones > 0 ? 1 : 0);
}

INSTANTIATE_TEST_SUITE_P(Densities, OrContentionSweep,
                         ::testing::Values(0, 1, 2, 17, 256, 511, 512));

TEST(BspReduce, MatchesFoldAcrossFanins) {
  Rng rng(77);
  const auto input = bernoulli_array(1000, 0.5, rng);
  Word want = 0;
  for (const Word v : input) want ^= v;
  for (const std::uint64_t fanin : {0ull, 2ull, 4ull, 16ull}) {
    BspMachine m({.p = 16, .g = 2, .L = 16});
    EXPECT_EQ(bsp_reduce(m, input, Combine::Xor, fanin), want)
        << "fanin " << fanin;
  }
}

TEST(BspReduce, SuperstepCountTracksFanin) {
  // p = 64 leaves: fan-in 8 needs 2 tree levels; fan-in 2 needs 6.
  Rng rng(78);
  const auto input = bernoulli_array(256, 0.5, rng);
  BspMachine wide({.p = 64, .g = 1, .L = 8});
  bsp_reduce(wide, input, Combine::Or, 8);
  BspMachine narrow({.p = 64, .g = 1, .L = 8});
  bsp_reduce(narrow, input, Combine::Or, 2);
  EXPECT_LT(wide.supersteps(), narrow.supersteps());
}

TEST(ReduceRounds, InputSmallerThanProcsRejected) {
  QsmMachine m({.g = 1});
  EXPECT_THROW(reduce_rounds(m, 0, 4, 8, Combine::Sum),
               std::invalid_argument);
  EXPECT_THROW(or_rounds(m, 0, 4, 0), std::invalid_argument);
}

}  // namespace
}  // namespace parbounds
