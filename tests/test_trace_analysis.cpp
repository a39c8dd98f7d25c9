#include "adversary/trace_analysis.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <stdexcept>

#include "adversary/adversary.hpp"
#include "adversary/or_adversary.hpp"
#include "algos/gsm_algos.hpp"

namespace parbounds {
namespace {

// A two-phase toy: processor 0 reads input cell 0 and copies it to an
// output cell; processor 1 reads input cell 1 and does nothing with it.
void copy_algo(GsmMachine& m, std::span<const Word> input) {
  const Addr in = m.alloc(input.size());
  for (std::size_t i = 0; i < input.size(); ++i)
    m.preload(in + i, std::vector<Word>{input[i]});
  const Addr out = m.alloc(1);
  m.begin_phase();
  m.read(0, in + 0);
  m.read(1, in + 1);
  m.commit_phase();
  m.begin_phase();
  const Word v = m.inbox(0)[0].empty() ? 0 : m.inbox(0)[0][0];
  m.write(0, out, v);
  m.commit_phase();
}

TEST(TraceAnalysis, KnowSetsAreMinimal) {
  TraceAnalysis ta([](GsmMachine& m, std::span<const Word> in) {
    copy_algo(m, in);
  },
                   GsmConfig{}, 3, PartialInputMap::all_unset(3));
  EXPECT_EQ(ta.free_count(), 3u);
  EXPECT_EQ(ta.phases(), 2u);

  // Processor 0 knows input 0 only; processor 1 knows input 1 only;
  // nobody ever learns input 2.
  const auto p0 = ta.entity_index({false, 0});
  const auto p1 = ta.entity_index({false, 1});
  EXPECT_EQ(ta.know(p0, 1), (std::vector<unsigned>{0}));
  EXPECT_EQ(ta.know(p1, 1), (std::vector<unsigned>{1}));
  EXPECT_EQ(ta.know(p0, 0), (std::vector<unsigned>{}));  // before any read

  EXPECT_EQ(ta.aff_proc_count(0, 1), 1u);
  EXPECT_EQ(ta.aff_proc_count(2, 2), 0u);
}

TEST(TraceAnalysis, StatesAndDegrees) {
  TraceAnalysis ta([](GsmMachine& m, std::span<const Word> in) {
    copy_algo(m, in);
  },
                   GsmConfig{}, 2, PartialInputMap::all_unset(2));
  const auto p0 = ta.entity_index({false, 0});
  EXPECT_EQ(ta.states_count(p0, 0), 1u);
  EXPECT_EQ(ta.states_count(p0, 1), 2u);  // saw 0 or saw 1
  EXPECT_EQ(ta.deg_states(p0, 1), 1u);    // chi is a single variable
}

TEST(TraceAnalysis, OutputCellOfOrTreeDependsOnEverything) {
  const unsigned n = 4;
  TraceAnalysis ta(
      [](GsmMachine& m, std::span<const Word> in) {
        gsm_or_tree(m, in, 2);
      },
      GsmConfig{}, n, PartialInputMap::all_unset(n));
  const unsigned T = ta.phases();

  // Find the cell whose Know set is all n inputs at the end — the output.
  bool found = false;
  for (std::size_t v = 0; v < ta.entities().size(); ++v) {
    if (!ta.entities()[v].is_cell) continue;
    if (ta.know(v, T).size() == n) {
      found = true;
      // OR's 0-certificate is everything, a 1-certificate is one bit.
      EXPECT_EQ(ta.cert_at(v, T, 0), n);
      EXPECT_EQ(ta.cert_at(v, T, 0b0001), 1u);
      EXPECT_EQ(ta.deg_states(v, T), n);  // deg(OR_n) = n
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceAnalysis, RwAndContentionCounts) {
  TraceAnalysis ta([](GsmMachine& m, std::span<const Word> in) {
    copy_algo(m, in);
  },
                   GsmConfig{}, 2, PartialInputMap::all_unset(2));
  const auto p0 = ta.entity_index({false, 0});
  EXPECT_EQ(ta.rw_count(p0, 1, 0), 1u);
  EXPECT_EQ(ta.max_rw(p0, 1), 1u);
  EXPECT_EQ(ta.max_rw(p0, 2), 1u);  // the write
  EXPECT_EQ(ta.big_steps(1, 0), 1u);
}

TEST(TraceAnalysis, PartialBaseRestrictsRefinements) {
  PartialInputMap base(3);
  base.set(0, 1);
  TraceAnalysis ta([](GsmMachine& m, std::span<const Word> in) {
    copy_algo(m, in);
  },
                   GsmConfig{}, 3, base);
  EXPECT_EQ(ta.free_count(), 2u);
  EXPECT_EQ(ta.refinements(), 4u);
  // Processor 0 reads the FIXED input: a single state, Know empty.
  const auto p0 = ta.entity_index({false, 0});
  EXPECT_EQ(ta.states_count(p0, 1), 1u);
  EXPECT_TRUE(ta.know(p0, 1).empty());
}

TEST(TraceAnalysis, EntityTablesAreBoundedAndExact) {
  TraceAnalysis ta([](GsmMachine& m, std::span<const Word> in) {
    copy_algo(m, in);
  },
                   GsmConfig{}, 2, PartialInputMap::all_unset(2));
  EXPECT_THROW((void)ta.entity_index({false, 2}), std::out_of_range);
  EXPECT_THROW((void)ta.entity_index({true, 1000}), std::out_of_range);

  const auto far_cell = [](GsmMachine& m, std::span<const Word> in) {
    m.preload(TraceAnalysis::kMaxId, in);
    m.begin_phase();
    m.read(0, TraceAnalysis::kMaxId);
    m.commit_phase();
  };
  EXPECT_THROW(TraceAnalysis(far_cell, GsmConfig{}, 1,
                             PartialInputMap::all_unset(1)),
               std::invalid_argument);
}

// ----- golden digest ---------------------------------------------------------

// FNV-1a over 64-bit words, byte by byte.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

GsmAlgorithm tree_algo(bool parity, unsigned fanin) {
  if (parity)
    return [fanin](GsmMachine& m, std::span<const Word> in) {
      gsm_parity_tree(m, in, fanin);
    };
  return [fanin](GsmMachine& m, std::span<const Word> in) {
    gsm_or_tree(m, in, fanin);
  };
}

void digest_analysis(const TraceAnalysis& ta, Fnv& d) {
  d.add(ta.free_count());
  d.add(ta.phases());
  d.add(ta.entities().size());
  d.add(ta.proc_count());
  for (const auto& e : ta.entities()) {
    d.add(e.is_cell ? 1 : 0);
    d.add(e.id);
  }
  const std::uint32_t R = ta.refinements();
  // Certificates are exponential in u per point: every point while the
  // cube is small, three fixed points beyond.
  std::vector<std::uint32_t> cert_points;
  if (ta.free_count() <= 5)
    for (std::uint32_t r = 0; r < R; ++r) cert_points.push_back(r);
  else
    cert_points = {0, R / 3, R - 1};
  for (unsigned t = 0; t <= ta.phases(); ++t) {
    for (std::uint32_t r = 0; r < R; ++r) d.add(ta.big_steps(t, r));
    for (std::size_t v = 0; v < ta.entities().size(); ++v) {
      for (std::uint32_t r = 0; r < R; ++r) {
        d.add(ta.trace_id(v, t, r));
        d.add(ta.rw_count(v, t, r));
        d.add(ta.contention(v, t, r));
      }
      d.add(ta.states_count(v, t));
      const auto k = ta.know(v, t);
      d.add(k.size());
      for (const unsigned j : k) d.add(j);
      d.add(ta.deg_states(v, t));
      for (const std::uint32_t r : cert_points) d.add(ta.cert_at(v, t, r));
    }
  }
}

// One digest over everything TraceAnalysis and GENERATE report, pinned
// to the value the std::map-based analysis produced. Trace ids are
// first-seen intern numbers, so the digest also pins the order in which
// traces are interned.
TEST(TraceAnalysis, GoldenDigest) {
  Fnv d;
  for (const bool parity : {true, false})
    for (unsigned fanin = 2; fanin <= 4; ++fanin)
      for (unsigned n = 3; n <= 10; ++n)
        for (const bool partial : {false, true}) {
          PartialInputMap base = PartialInputMap::all_unset(n);
          if (partial)
            for (unsigned i = 1; i < n; i += 3) base.set(i, (i / 3) & 1);
          digest_analysis(TraceAnalysis(tree_algo(parity, fanin),
                                        GsmConfig{}, n, base),
                          d);
        }
  for (unsigned n = 10; n <= 11; ++n)
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      RandomAdversary adv(tree_algo(false, 2 + seed % 2), GsmConfig{}, n,
                          BitDistribution::uniform(n), seed);
      const GenerateResult res = adv.generate(2);
      d.add(res.steps.size());
      for (const auto& s : res.steps) {
        for (unsigned i = 0; i < n; ++i)
          d.add(static_cast<std::uint64_t>(s.f.value(i) + 1));
        d.add(s.x);
        d.add(s.forced_rw);
        d.add(s.forced_contention);
        d.add(s.randomset_calls);
        d.add(s.inputs_fixed);
        d.add(s.success ? 1 : 0);
      }
      d.add(res.total_big_steps);
      d.add(res.total_inputs_fixed_early);
      d.add(res.final_map.as_mask());
    }
  EXPECT_EQ(d.h, 0x2313ae462876eb2eull);
}

// GENERATE analyses each partial map once: REFINE keeps the analysis of
// the map it last analysed instead of rebuilding it. Here GENERATE takes
// one REFINE step, and every analysis in it is of the all-unset map
// (the certificates of phase-0 states are empty, so RANDOMSET fixes
// nothing): one analysis of 2^10 runs. Rebuilding the analysis at each
// use (MaxProc loop, its re-evaluation, MaxCell loop, its
// re-evaluation) took 4 analyses, 4096 runs.
TEST(TraceAnalysis, GenerateReusesTheLastAnalysis) {
  auto runs = std::make_shared<std::uint64_t>(0);
  RandomAdversary adv(
      [runs](GsmMachine& m, std::span<const Word> in) {
        ++*runs;
        gsm_or_tree(m, in, 2);
      },
      GsmConfig{}, 10, BitDistribution::uniform(10), 1);
  const GenerateResult res = adv.generate(2);
  EXPECT_TRUE(res.final_map.complete());
  ASSERT_EQ(res.steps.size(), 1u);
  EXPECT_EQ(res.steps[0].inputs_fixed, 0u);
  EXPECT_EQ(*runs, 1024u);
}

// ----- subcube certificates ----------------------------------------------------

TEST(SubcubeCertificate, KnownColourings) {
  // Parity colouring: every point needs all coordinates fixed.
  const auto parity = [](std::uint32_t x) {
    return static_cast<std::uint32_t>(std::popcount(x) & 1);
  };
  for (std::uint32_t r = 0; r < 16; ++r)
    EXPECT_EQ(subcube_certificate(4, parity, r), 4u);

  // First-bit colouring: one coordinate suffices.
  const auto bit0 = [](std::uint32_t x) { return x & 1u; };
  EXPECT_EQ(subcube_certificate(4, bit0, 0), 1u);
  EXPECT_EQ(subcube_certificate_set(4, bit0, 0), 1u);  // set = {0}

  // Constant colouring: empty certificate.
  const auto c = [](std::uint32_t) { return 7u; };
  EXPECT_EQ(subcube_certificate(4, c, 9), 0u);
  EXPECT_EQ(subcube_certificate_set(4, c, 9), 0u);
}

}  // namespace
}  // namespace parbounds
