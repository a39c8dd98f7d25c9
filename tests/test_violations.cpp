// Failure injection: deliberately broken drivers must be caught by the
// engines, and the auditors must flag non-compliant executions — the
// checks that keep every other measurement in this repository honest.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algos/reduce.hpp"
#include "core/bsp.hpp"
#include "core/gsm.hpp"
#include "core/qsm.hpp"
#include "core/rounds.hpp"
#include "workloads/generators.hpp"

namespace parbounds {
namespace {

// The violation text of one phase in which each of `procs` processors
// reads every cell of `reads` and writes every cell of `writes`.
template <class Machine>
std::string clash_text(std::uint64_t procs, const std::vector<Addr>& reads,
                       const std::vector<Addr>& writes) {
  Machine m;
  m.begin_phase();
  for (ProcId p = 0; p < procs; ++p) {
    for (const Addr a : reads) m.read(p, a);
    for (const Addr a : writes) m.write(p, a, static_cast<Word>(a % 7 + 1));
  }
  try {
    m.commit_phase();
  } catch (const ModelViolation& e) {
    return e.what();
  }
  return "(no violation)";
}

std::string qsm_clash(Addr a) {
  return "cell " + std::to_string(a) + " both read and written in one phase";
}

TEST(Violations, ReadWriteMixAtOneCell) {
  // A "pipelined" tree that reads a level and writes it in the same phase
  // — the classic QSM rule violation.
  QsmMachine m({.g = 1});
  const Addr a = m.alloc(4);
  m.begin_phase();
  m.read(0, a + 1);
  m.write(1, a + 1, 5);
  EXPECT_THROW(m.commit_phase(), ModelViolation);

  // Several clashes: the message names the smallest cell, whether the
  // cells are dense or spilled (at or above the address histogram's
  // dense limit), in phases of 2^11 and of 2^16 requests.
  constexpr Addr kSpill = detail::kAddrHistogramLimit;
  struct Case {
    std::vector<Addr> reads, writes;
    std::string qsm, gsm;
  };
  const std::string gsm = "GSM cell both read and written in one phase";
  const Case cases[] = {
      {{120, 37}, {120, 37}, qsm_clash(37), gsm},
      {{37, kSpill + 7}, {120, kSpill + 7}, qsm_clash(kSpill + 7), gsm},
      {{kSpill + 9, 37, kSpill + 3},
       {kSpill + 3, kSpill + 9},
       qsm_clash(kSpill + 3),
       gsm},
      {{kSpill + 9, 37}, {kSpill + 9, 37}, qsm_clash(37), gsm},
      {{37, kSpill}, {120, kSpill + 1}, "(no violation)", "(no violation)"},
  };
  for (const std::uint64_t procs : {512u, 1u << 14}) {
    for (const Case& c : cases) {
      EXPECT_EQ(clash_text<QsmMachine>(procs, c.reads, c.writes), c.qsm)
          << "procs=" << procs;
      EXPECT_EQ(clash_text<GsmMachine>(procs, c.reads, c.writes), c.gsm)
          << "procs=" << procs;
    }
  }
}

TEST(Violations, MachineUsableAfterFailedCommit) {
  QsmMachine m({.g = 1});
  const Addr a = m.alloc(2);
  m.begin_phase();
  m.read(0, a);
  m.write(1, a, 1);
  EXPECT_THROW(m.commit_phase(), ModelViolation);
  // The failed phase is discarded; a clean phase still works.
  m.begin_phase();
  m.read(0, a);
  EXPECT_NO_THROW(m.commit_phase());
  EXPECT_EQ(m.phases(), 1u);
}

TEST(Violations, UsingAValueInItsOwnPhaseIsImpossible) {
  // The engine delivers reads only at commit: inbox is EMPTY while the
  // phase is open, so a driver physically cannot act on same-phase data.
  QsmMachine m({.g = 1});
  const Addr a = m.alloc(1);
  m.preload(a, Word{9});
  m.begin_phase();
  m.read(0, a);
  EXPECT_TRUE(m.inbox(0).empty());
  m.commit_phase();
  EXPECT_EQ(m.inbox(0)[0], 9);
}

TEST(Violations, BspChecksEndpointsAndParameters) {
  EXPECT_THROW(BspMachine({.p = 0, .g = 1, .L = 1}), std::invalid_argument);
  EXPECT_THROW(BspMachine({.p = 2, .g = 2, .L = 1}), std::invalid_argument);
  BspMachine m({.p = 2, .g = 1, .L = 1});
  m.begin_superstep();
  EXPECT_THROW(m.send(0, 7, 1), ModelViolation);
  m.commit_superstep();
  EXPECT_THROW(m.commit_superstep(), ModelViolation);
}

TEST(Violations, RoundsAuditorFlagsNonRoundAlgorithms) {
  // A straight fan-in-2 tree with unlimited processors is NOT a
  // p-processor round computation for small p: its first phase is fine,
  // but it uses n processors (not audited) while its phase costs are far
  // below budget... so construct a genuinely over-budget phase instead:
  // one processor reads the entire input (m_rw = n -> cost g*n >> g*n/p).
  const std::uint64_t n = 1024, p = 32;
  QsmMachine m({.g = 2});
  const Addr in = m.alloc(n);
  m.begin_phase();
  for (std::uint64_t i = 0; i < n; ++i) m.read(0, in + i);
  m.commit_phase();
  const auto audit = audit_rounds_qsm(m.trace(), n, p, 4);
  EXPECT_FALSE(audit.all_rounds());
  EXPECT_EQ(audit.violations, 1u);
}

TEST(Violations, GsmRejectsMalformedPhases) {
  GsmMachine m{GsmConfig{}};
  EXPECT_THROW(m.read(0, 0), ModelViolation);
  EXPECT_THROW(m.commit_phase(), ModelViolation);
  m.begin_phase();
  EXPECT_THROW(m.begin_phase(), ModelViolation);
}

TEST(Violations, AlgorithmPreconditionsChecked) {
  QsmMachine m({.g = 1});
  EXPECT_THROW(reduce_rounds(m, 0, 16, 32, Combine::Sum),
               std::invalid_argument);  // p > n
  EXPECT_THROW(reduce_tree(m, 0, 16, 1, Combine::Sum),
               std::invalid_argument);  // fanin < 2
}

TEST(Violations, UnreadInputsCannotInfluenceATrace) {
  // Information honesty: perturbing a cell an algorithm never reads must
  // leave its phase trace identical (costs and result alike).
  const std::uint64_t n = 64;
  Rng rng(5);
  const auto input = bernoulli_array(n, 0.5, rng);

  auto run = [&](Word junk) {
    QsmMachine m({.g = 4});
    const Addr in = m.alloc(n);
    m.preload(in, input);
    const Addr unrelated = m.alloc(1);
    m.preload(unrelated, junk);
    const Word r = reduce_tree(m, in, n, 4, Combine::Xor);
    return std::pair<Word, std::uint64_t>(r, m.time());
  };
  const auto a = run(0);
  const auto b = run(12345);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace parbounds
