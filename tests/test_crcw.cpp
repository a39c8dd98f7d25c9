#include "core/crcw.hpp"

#include <gtest/gtest.h>

#include "algos/crcw_algos.hpp"
#include "workloads/generators.hpp"

namespace parbounds {
namespace {

TEST(Crcw, UnitCostStepsRegardlessOfContention) {
  CrcwMachine m;
  const Addr a = m.alloc(1);
  m.begin_step();
  for (ProcId p = 0; p < 1000; ++p) m.read(p, a);
  const auto& ph = m.commit_step();
  EXPECT_EQ(ph.cost, 1u);
  EXPECT_EQ(ph.stats.kappa_r, 1000u);  // recorded, not charged
}

TEST(Crcw, ReadsSeePreStepValuesEvenWithSameStepWrites) {
  CrcwMachine m;
  const Addr a = m.alloc(1);
  m.preload(a, Word{7});
  m.begin_step();
  m.read(0, a);
  m.write(1, a, 9);  // CRCW allows the mix; the read sees 7
  m.commit_step();
  EXPECT_EQ(m.inbox(0)[0], 7);
  EXPECT_EQ(m.peek(a), 9);
}

TEST(Crcw, CommonRuleRejectsConflicts) {
  CrcwMachine m({.rule = CrcwWriteRule::Common});
  const Addr a = m.alloc(1);
  m.begin_step();
  m.write(0, a, 5);
  m.write(1, a, 5);  // agreeing writes are fine
  EXPECT_NO_THROW(m.commit_step());
  m.begin_step();
  m.write(0, a, 1);
  m.write(1, a, 2);
  EXPECT_THROW(m.commit_step(), ModelViolation);

  // A step of 2^16 writes that disagree at cells 300 and 41: the error
  // names the smallest, and exactly the cells below it are applied, in
  // ascending address order, before the throw.
  CrcwMachine big({.rule = CrcwWriteRule::Common});
  (void)big.alloc(2048);
  big.begin_step();
  for (ProcId p = 0; p < (1u << 14); ++p) {
    big.write(p, p % 40, 7);
    big.write(p, 300, static_cast<Word>(p % 2));  // disagree
    big.write(p, 41, static_cast<Word>(p % 3));   // disagree, smaller
    big.write(p, 1000 + p % 50, 9);
  }
  try {
    big.commit_step();
    ADD_FAILURE() << "expected a Common conflict";
  } catch (const ModelViolation& e) {
    EXPECT_STREQ(e.what(), "CRCW-Common: conflicting writes to cell 41");
  }
  for (Addr c = 0; c < 40; ++c) EXPECT_EQ(big.peek(c), 7) << c;
  for (const Addr c : {Addr{41}, Addr{300}, Addr{1000}, Addr{1049}})
    EXPECT_EQ(big.peek(c), 0) << c;
}

TEST(Crcw, PriorityRuleLowestProcWins) {
  CrcwMachine m({.rule = CrcwWriteRule::Priority});
  const Addr a = m.alloc(1);
  m.begin_step();
  m.write(5, a, 50);
  m.write(2, a, 20);
  m.write(9, a, 90);
  m.commit_step();
  EXPECT_EQ(m.peek(a), 20);
}

class CrcwAlgoSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrcwAlgoSweep, OrIsConstantTime) {
  const std::uint64_t ones = GetParam();
  CrcwMachine m;
  Rng rng(ones + 3);
  const auto input = boolean_array(256, ones % 257, rng);
  const Addr in = m.alloc(256);
  m.preload(in, input);
  EXPECT_EQ(crcw_or(m, in, 256), (ones % 257) > 0 ? 1 : 0);
  EXPECT_EQ(m.steps(), 2u);  // Theta(1) — impossible on any Table 1 model
  EXPECT_EQ(m.time(), 2u);
}

TEST_P(CrcwAlgoSweep, ParityCorrect) {
  const std::uint64_t seed = GetParam();
  CrcwMachine m;
  Rng rng(seed);
  const auto input = bernoulli_array(300, 0.5, rng);
  const Addr in = m.alloc(300);
  m.preload(in, input);
  Word want = 0;
  for (const Word v : input) want ^= v;
  EXPECT_EQ(crcw_parity(m, in, 300), want);
}

TEST_P(CrcwAlgoSweep, MaxCorrect) {
  const std::uint64_t seed = GetParam();
  CrcwMachine m;
  Rng rng(seed + 7);
  std::vector<Word> input(64);
  Word want = 0;
  for (auto& v : input) {
    v = static_cast<Word>(rng.next_below(1000));
    want = std::max(want, v);
  }
  const Addr in = m.alloc(64);
  m.preload(in, input);
  EXPECT_EQ(crcw_max(m, in, 64), want);
  EXPECT_EQ(m.steps(), 4u);  // Theta(1) with n^2 processors
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrcwAlgoSweep,
                         ::testing::Values(0, 1, 2, 17, 255, 256));

TEST(Crcw, ParityStepCountBeatsBlockTwo) {
  // Bigger blocks (free contention) shrink the level count — the
  // O(log n / loglog n) mechanism.
  Rng rng(5);
  const auto input = bernoulli_array(1 << 10, 0.5, rng);
  CrcwMachine wide;
  Addr in = wide.alloc(1 << 10);
  wide.preload(in, input);
  crcw_parity(wide, in, 1 << 10, 8);
  CrcwMachine narrow;
  in = narrow.alloc(1 << 10);
  narrow.preload(in, input);
  crcw_parity(narrow, in, 1 << 10, 2);
  EXPECT_LT(wide.steps(), narrow.steps());
}

TEST(Crcw, SeparationFromQueuedModels) {
  // The same OR program costs Theta(1) on the CRCW PRAM but pays the
  // queue on the QSM: the gap the paper's models exist to expose.
  const std::uint64_t n = 1024;
  Rng rng(9);
  const auto input = boolean_array(n, n, rng);  // all ones: worst queue

  CrcwMachine pram;
  Addr in = pram.alloc(n);
  pram.preload(in, input);
  crcw_or(pram, in, n);

  QsmMachine qsm({.g = 1});  // even at QRQW (g = 1)
  in = qsm.alloc(n);
  qsm.preload(in, input);
  // The direct CRCW program: all holders funnel into one cell at once.
  qsm.begin_phase();
  for (std::uint64_t i = 0; i < n; ++i) qsm.read(i, in + i);
  qsm.commit_phase();
  const Addr flag = qsm.alloc(1);
  qsm.begin_phase();
  for (std::uint64_t i = 0; i < n; ++i)
    if (qsm.inbox(i)[0] != 0) qsm.write(i, flag, 1);
  qsm.commit_phase();

  EXPECT_EQ(pram.time(), 2u);
  EXPECT_EQ(qsm.time(), 1u + n);  // kappa = n charged in full
}

}  // namespace
}  // namespace parbounds
