#include "core/gsm.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace parbounds {
namespace {

TEST(Gsm, StrongQueuingMergesAllWrites) {
  GsmMachine m({.alpha = 1, .beta = 1, .gamma = 1});
  const Addr a = m.alloc(1);
  m.begin_phase();
  m.write(0, a, 10);
  m.write(1, a, 20);
  m.write(2, a, 30);
  m.commit_phase();
  const auto cell = m.peek(a);
  ASSERT_EQ(cell.size(), 3u);  // nothing lost, unlike QSM arbitrary-write
  std::vector<Word> v(cell.begin(), cell.end());
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<Word>{10, 20, 30}));
}

TEST(Gsm, WritesAppendToExistingContents) {
  GsmMachine m{GsmConfig{}};
  const Addr a = m.alloc(1);
  const std::vector<Word> init{1, 2};
  m.preload(a, init);
  m.begin_phase();
  m.write(0, a, 3);
  m.commit_phase();
  EXPECT_EQ(m.peek(a).size(), 3u);
}

TEST(Gsm, ReadsDeliverWholeCell) {
  GsmMachine m{GsmConfig{}};
  const Addr a = m.alloc(1);
  const std::vector<Word> init{7, 8, 9};
  m.preload(a, init);
  m.begin_phase();
  m.read(0, a);
  m.commit_phase();
  const auto box = m.inbox(0);
  ASSERT_EQ(box.size(), 1u);
  EXPECT_EQ(box[0], init);
}

TEST(Gsm, BigStepAccounting) {
  // alpha = 2, beta = 3, mu = 3. A phase where one processor does 5
  // accesses (ceil(5/2) = 3) and one cell has contention 7
  // (ceil(7/3) = 3) takes b = 3 big-steps, cost mu * b = 9.
  GsmMachine m({.alpha = 2, .beta = 3, .gamma = 1});
  const Addr a = m.alloc(16);
  m.begin_phase();
  for (int i = 0; i < 5; ++i) m.read(0, a + i);
  for (ProcId p = 10; p < 17; ++p) m.write(p, a + 10, 1);
  const auto& ph = m.commit_phase();
  EXPECT_EQ(ph.stats.m_rw, 5u);
  EXPECT_EQ(ph.stats.kappa(), 7u);
  EXPECT_EQ(ph.cost, 9u);
  EXPECT_EQ(m.big_steps(), 3u);
}

TEST(Gsm, EmptyPhaseIsOneBigStep) {
  GsmMachine m({.alpha = 4, .beta = 2, .gamma = 1});
  m.begin_phase();
  m.commit_phase();
  EXPECT_EQ(m.big_steps(), 1u);
  EXPECT_EQ(m.time(), 4u);  // mu = max(4,2)
}

TEST(Gsm, QueueRuleStillApplies) {
  GsmMachine m{GsmConfig{}};
  const Addr a = m.alloc(1);
  m.begin_phase();
  m.read(0, a);
  m.write(1, a, 1);
  EXPECT_THROW(m.commit_phase(), ModelViolation);
}

TEST(Gsm, LoadInputsPacksGammaPerCell) {
  GsmMachine m({.alpha = 1, .beta = 1, .gamma = 3});
  const Addr base = m.alloc(4);
  const std::vector<Word> inputs{1, 2, 3, 4, 5, 6, 7};
  const auto cells = m.load_inputs(base, inputs);
  EXPECT_EQ(cells, 3u);
  EXPECT_EQ(m.peek(base).size(), 3u);
  EXPECT_EQ(m.peek(base + 1).size(), 3u);
  EXPECT_EQ(m.peek(base + 2).size(), 1u);
  EXPECT_EQ(m.peek(base + 2)[0], 7);
}

TEST(Gsm, InitialMemorySnapshotAtFirstPhase) {
  GsmMachine m{GsmConfig{}};
  const Addr a = m.alloc(1);
  const std::vector<Word> init{5};
  m.preload(a, init);
  m.begin_phase();
  m.write(1, a + 1, 9);
  m.commit_phase();
  const auto& initial = m.initial_memory();
  ASSERT_TRUE(initial.count(a));
  EXPECT_EQ(initial.at(a), init);
  EXPECT_FALSE(initial.count(a + 1));  // written after time 0
}

TEST(Gsm, WriteBlockCountsOnce) {
  GsmMachine m({.alpha = 1, .beta = 1, .gamma = 1});
  const Addr a = m.alloc(1);
  const std::vector<Word> payload{1, 2, 3, 4};
  m.begin_phase();
  m.write_block(0, a, payload);
  const auto& ph = m.commit_phase();
  EXPECT_EQ(ph.stats.m_rw, 1u);  // one request, arbitrary payload size
  EXPECT_EQ(m.peek(a).size(), 4u);
}

TEST(Gsm, WritesAndBlocksAppendInIssueOrder) {
  GsmMachine m({.alpha = 4, .beta = 4, .gamma = 1, .record_detail = true});
  const Addr a = m.alloc(2);
  m.begin_phase();
  m.write(0, a, 7);
  m.write_block(1, a, std::vector<Word>{1, 2});
  m.write(2, a, 9);
  m.commit_phase();
  EXPECT_EQ(std::vector<Word>(m.peek(a).begin(), m.peek(a).end()),
            (std::vector<Word>{7, 1, 2, 9}));
  // The next phase's words start afresh; an empty block adds nothing and
  // records value 0.
  m.begin_phase();
  m.write_block(0, a + 1, std::span<const Word>{});
  m.write(1, a + 1, 5);
  const auto& ph = m.commit_phase();
  EXPECT_EQ(std::vector<Word>(m.peek(a + 1).begin(), m.peek(a + 1).end()),
            (std::vector<Word>{5}));
  ASSERT_EQ(ph.events.size(), 2u);
  EXPECT_EQ(ph.events[0].value, 0);
  EXPECT_EQ(ph.events[1].value, 5);
}

TEST(Gsm, ParameterValidation) {
  EXPECT_THROW(GsmMachine({.alpha = 0}), std::invalid_argument);
  EXPECT_THROW(GsmMachine({.alpha = 1, .beta = 0}), std::invalid_argument);
  EXPECT_THROW(GsmMachine({.alpha = 1, .beta = 1, .gamma = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace parbounds
