// Equivalence tests for the flat-arena shared-memory fast path
// (CellStore, core/storage.hpp), the flat per-phase inbox (FlatInbox)
// against a brute-force per-reader reference, and the commit's key
// histograms (KeyHistogram, core/phase_scan.hpp) against brute force.
// Engine configs expose `mem_dense_limit`: addresses below it take a
// direct vector index, addresses at or above it fall back to the sparse
// map, and a limit of 0 disables the arena entirely — the map-only
// reference configuration. Every observable (phase costs, stats,
// delivered inboxes, memory contents) must be bit-identical across those
// configurations; these tests drive mixed sparse/dense workloads that
// deliberately straddle a small limit and compare against the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algos/parity.hpp"
#include "core/crcw.hpp"
#include "core/gsm.hpp"
#include "core/phase_scan.hpp"
#include "core/qsm.hpp"
#include "core/storage.hpp"
#include "util/rng.hpp"

namespace parbounds {
namespace {

// Small enough that ordinary tests cross it, and squarely inside the
// address ranges the workloads below touch.
constexpr std::uint64_t kSmallLimit = 32;

// Probe set straddling kSmallLimit AND the default arena span: dense
// cells, both sides of the small boundary, and far-sparse cells.
const std::vector<Addr> kProbeAddrs = {
    0,  1,  7,  kSmallLimit - 1,
    kSmallLimit,
    kSmallLimit + 1,
    1000,
    CellStore<Word>::kDefaultDenseLimit - 1,
    CellStore<Word>::kDefaultDenseLimit,
    CellStore<Word>::kDefaultDenseLimit + 17,
    Addr{1} << 40,
};

TEST(CellStore, PresentAbsentAcrossTheBoundary) {
  CellStore<Word> store(kSmallLimit);
  for (const Addr a : kProbeAddrs) EXPECT_EQ(store.find(a), nullptr);

  store.slot(kSmallLimit - 1) = 10;  // last dense cell
  store.slot(kSmallLimit) = 20;     // first sparse cell
  store.slot(Addr{1} << 40) = 30;   // deep sparse cell

  EXPECT_TRUE(store.contains(kSmallLimit - 1));
  EXPECT_TRUE(store.contains(kSmallLimit));
  EXPECT_TRUE(store.contains(Addr{1} << 40));
  EXPECT_EQ(*store.find(kSmallLimit - 1), 10);
  EXPECT_EQ(*store.find(kSmallLimit), 20);
  EXPECT_EQ(*store.find(Addr{1} << 40), 30);

  // Neighbours of stored cells stay absent: growing the arena to reach
  // address 31 must not make 0..30 spuriously present.
  EXPECT_FALSE(store.contains(0));
  EXPECT_FALSE(store.contains(kSmallLimit - 2));
  EXPECT_FALSE(store.contains(kSmallLimit + 1));
}

TEST(CellStore, MapOnlyReferenceIgnoresTheArena) {
  CellStore<Word> store(0);
  store.slot(0) = 5;
  store.slot(3) = 7;
  EXPECT_EQ(*store.find(0), 5);
  EXPECT_EQ(*store.find(3), 7);
  EXPECT_FALSE(store.contains(1));
}

TEST(CellStore, ForEachVisitsExactlyMaterialisedCells) {
  CellStore<Word> store(kSmallLimit);
  store.slot(4) = 40;
  store.slot(2) = 20;
  store.slot(kSmallLimit + 9) = 90;

  std::vector<std::pair<Addr, Word>> seen;
  store.for_each([&](Addr a, Word v) { seen.push_back({a, v}); });
  ASSERT_EQ(seen.size(), 3u);
  // Dense cells first in ascending address order, then the sparse cell.
  EXPECT_EQ(seen[0], (std::pair<Addr, Word>{2, 20}));
  EXPECT_EQ(seen[1], (std::pair<Addr, Word>{4, 40}));
  EXPECT_EQ(seen[2], (std::pair<Addr, Word>{kSmallLimit + 9, 90}));
}

// Rebuild `inbox` from one phase's (reader, value) stream.
template <class Value>
void deliver(FlatInbox<Value>& inbox,
             const std::vector<std::pair<ProcId, Value>>& reads) {
  const auto reader = [&](std::uint64_t i) { return reads[i].first; };
  inbox.index(reads.size(), reader);
  inbox.fill(reader,
             [&](std::uint64_t i, Value& slot) { slot = reads[i].second; });
}

// Brute force: every reader's values, appended in issue order.
template <class Value>
std::map<ProcId, std::vector<Value>> by_reader(
    const std::vector<std::pair<ProcId, Value>>& reads) {
  std::map<ProcId, std::vector<Value>> want;
  for (const auto& [p, v] : reads) want[p].push_back(v);
  return want;
}

template <class Value>
void expect_inboxes(const FlatInbox<Value>& inbox,
                    const std::vector<std::pair<ProcId, Value>>& reads,
                    const std::vector<ProcId>& absent) {
  for (const auto& [p, values] : by_reader(reads)) {
    const auto got = inbox.of(p);
    EXPECT_EQ(std::vector<Value>(got.begin(), got.end()), values)
        << "reader " << p;
  }
  for (const ProcId p : absent) EXPECT_TRUE(inbox.of(p).empty()) << p;
}

TEST(FlatInbox, PerReaderIssueOrderInAnInterleavedStream) {
  const std::vector<std::pair<ProcId, Word>> reads = {
      {5, 50}, {2, 20}, {5, 51}, {9, 90}, {2, 21}, {5, 52}, {0, 1}, {9, 91}};
  FlatInbox<Word> inbox;
  deliver(inbox, reads);
  expect_inboxes(inbox, reads, {});
  const auto five = inbox.of(5);
  ASSERT_EQ(five.size(), 3u);
  EXPECT_EQ(five[0], 50);
  EXPECT_EQ(five[2], 52);
}

TEST(FlatInbox, AbsentReaderIsEmpty) {
  FlatInbox<Word> inbox;
  EXPECT_TRUE(inbox.of(0).empty());  // before any phase
  EXPECT_TRUE(inbox.of(ProcId{1} << 40).empty());
  const std::vector<std::pair<ProcId, Word>> reads = {{1, 10}, {3, 30}};
  deliver(inbox, reads);
  // Inside the index (0, 2), beyond the largest reader (4) and far out.
  expect_inboxes(inbox, reads, {0, 2, 4, 7, ProcId{1} << 40});
}

TEST(FlatInbox, NoStaleValuesAfterAPhaseWithNoReads) {
  FlatInbox<Word> inbox;
  const std::vector<std::pair<ProcId, Word>> first = {
      {0, 7}, {1, 8}, {ProcId{1} << 33, 9}};
  deliver(inbox, first);
  ASSERT_EQ(inbox.of(1).size(), 1u);
  deliver(inbox, std::vector<std::pair<ProcId, Word>>{});
  expect_inboxes(inbox, {}, {0, 1, ProcId{1} << 33});

  // A smaller phase after a larger one: the slot index keeps the old
  // entries, which must not resolve for readers that did not read.
  deliver(inbox, first);
  const std::vector<std::pair<ProcId, Word>> second = {{1, 11}};
  deliver(inbox, second);
  expect_inboxes(inbox, second, {0, ProcId{1} << 33});
}

// Ids beyond the slot index take the sorted path: 2^40 always, and
// kIndexPerRead * reads until an earlier, larger phase grew the index
// past it. Mixed with indexed ids, issued out of order, over phases of
// varying size.
TEST(FlatInbox, IdsBeyondTheSlotIndex) {
  Rng rng(7);
  FlatInbox<Word> inbox;
  for (int phase = 0; phase < 30; ++phase) {
    const std::uint64_t n = 1 + rng.next_below(200);
    std::vector<std::pair<ProcId, Word>> reads;
    for (std::uint64_t i = 0; i < n; ++i) {
      ProcId p = rng.next_below(2 * n);  // mostly indexed
      if (rng.next_below(3) == 0)
        p = FlatInbox<Word>::kIndexPerRead * n + rng.next_below(50);
      if (rng.next_below(5) == 0) p = (ProcId{1} << 40) + rng.next_below(4);
      reads.push_back({p, static_cast<Word>(rng.next_below(1000))});
    }
    deliver(inbox, reads);
    expect_inboxes(inbox, reads,
                   {FlatInbox<Word>::kIndexPerRead * n + 50,
                    (ProcId{1} << 40) + 4, ProcId{1} << 50});
  }

  // Spilled ids already in id order (the common, sort-free case).
  std::vector<std::pair<ProcId, Word>> sorted;
  for (ProcId p = 100; p < 110; ++p)
    for (Word v = 0; v < 3; ++v) sorted.push_back({p * 1000, v});
  deliver(inbox, sorted);
  expect_inboxes(inbox, sorted, {100, 100 * 1000 + 1, 110 * 1000});
}

TEST(FlatInbox, HoldsGsmCellContents) {
  using Cell = std::vector<Word>;
  FlatInbox<Cell> inbox;
  const std::vector<std::pair<ProcId, Cell>> reads = {
      {2, {1, 2, 3}}, {0, {}}, {2, {4}}, {ProcId{1} << 40, {5, 6}}};
  deliver(inbox, reads);
  expect_inboxes(inbox, reads, {1, 3});
  // A second, shorter phase reuses the slots: no words of the old
  // contents survive.
  const std::vector<std::pair<ProcId, Cell>> next = {{2, {9}}};
  deliver(inbox, next);
  expect_inboxes(inbox, next, {0, ProcId{1} << 40});
}

// ----- KeyHistogram: the commit's per-key-space counters --------------------

std::uint64_t brute_max_run(const std::vector<std::uint64_t>& keys) {
  std::map<std::uint64_t, std::uint64_t> count;
  std::uint64_t best = 0;
  for (const std::uint64_t k : keys) best = std::max(best, ++count[k]);
  return best;
}

std::optional<std::uint64_t> brute_min_common(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  const std::set<std::uint64_t> in_a(a.begin(), a.end());
  std::optional<std::uint64_t> best;
  for (const std::uint64_t k : b)
    if (in_a.count(k) != 0 && (!best || k < *best)) best = k;
  return best;
}

// A scan that grows both counter arrays to near the dense limit, then
// scans over a high key range [kLo, kLo + kSpan) with spilled keys out
// of order: the aggregates must match brute force — including clashes
// at either edge of the range, ranges that only touch, and a heavy key
// of the growing scan that sits inside the later range (its stale count
// must be gone).
TEST(KeyHistogram, AggregatesAfterAGrowingScanMatchBruteForce) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 20;
  constexpr std::uint64_t kLo = 600000;
  constexpr std::uint64_t kSpan = 20000;
  const auto scan = [](detail::KeyHistogram& h,
                       const std::vector<std::uint64_t>& keys) {
    h.scan(keys.size(), [&](std::uint64_t i) { return keys[i]; });
  };

  Rng rng(11);
  std::vector<std::uint64_t> grow;
  for (std::uint64_t i = 0; i < 5000; ++i) grow.push_back(kLimit - 1 - i * 7);
  for (int i = 0; i < 900; ++i) grow.push_back(kLo + 5);  // stale heavy key
  std::vector<std::uint64_t> reads;
  for (std::uint64_t i = 0; i < 70000; ++i)
    reads.push_back(kLo + rng.next_below(kSpan));
  for (int i = 0; i < 40; ++i) reads.push_back(kLo + 17);  // the max run
  reads.push_back(kLo);
  reads.push_back(kLo + kSpan - 1);
  for (int i = 0; i < 30; ++i)  // spilled keys, out of order
    reads.push_back(kLimit + 1000 - static_cast<std::uint64_t>(i % 5));

  struct WriteCase {
    std::uint64_t lo, hi;  // written range
  };
  const WriteCase cases[] = {
      {kLo + kSpan - 1, kLo + 2 * kSpan},  // clash at the reads' top edge
      {kLo - kSpan, kLo + 1},              // clash at the reads' bottom edge
      {kLo + kSpan, kLo + 2 * kSpan},      // ranges touch, no clash
      {kLo - kSpan, kLo},                  // ranges touch below, no clash
  };
  for (const WriteCase& wc : cases) {
    std::vector<std::uint64_t> writes;
    for (std::uint64_t k = wc.lo; k < wc.hi; k += 3) writes.push_back(k);
    writes.push_back(wc.hi - 1);
    writes.push_back(kLimit + 5);  // spilled, never read
    detail::KeyHistogram r(kLimit), w(kLimit);
    scan(r, grow);
    scan(w, grow);
    EXPECT_EQ(r.max_run(), brute_max_run(grow));
    EXPECT_EQ(detail::KeyHistogram::min_common(r, w), kLo + 5);

    scan(r, reads);
    scan(w, writes);
    const std::string what = "writes from " + std::to_string(wc.lo);
    EXPECT_EQ(r.max_run(), brute_max_run(reads)) << what;
    EXPECT_EQ(w.max_run(), brute_max_run(writes)) << what;
    EXPECT_EQ(detail::KeyHistogram::min_common(r, w),
              brute_min_common(reads, writes))
        << what;
  }

  // A clash among spilled keys only, and the longest run among them.
  detail::KeyHistogram r(kLimit), w(kLimit);
  scan(r, {kLimit + 9, 3, kLimit + 2, kLimit + 9, kLimit + 9});
  scan(w, {kLimit + 9, kLimit + 2, 4});
  EXPECT_EQ(r.max_run(), 3u);
  EXPECT_EQ(detail::KeyHistogram::min_common(r, w), kLimit + 2);
}

// ----- QsmCrFree parity_circuit: reader ids beyond 2^20 --------------------

// Per phase: (reader, value) pairs sorted by reader, in issue order
// within a reader.
using ExpectedInboxes = std::vector<std::vector<std::pair<ProcId, Word>>>;

// Checks QsmMachine::inbox after every phase against `expected`. A
// phase with no expectation yet first appends one, built by brute force
// from its detail events: the read events, valued from a shadow memory
// that replays the write events.
class InboxAudit : public AnalysisObserver {
 public:
  InboxAudit(const QsmMachine& m, ExpectedInboxes& expected,
             std::unordered_map<Addr, Word> memory)
      : m_(m), expected_(expected), shadow_(std::move(memory)) {}

  void on_phase_committed(const ExecutionTrace& t, std::size_t index) override {
    const PhaseTrace& ph = t.phases[index];
    if (expected_.size() == index) {
      std::vector<std::pair<ProcId, Word>> reads;
      for (const MemEvent& e : ph.events) {
        if (e.is_write) continue;
        const auto it = shadow_.find(e.addr);
        reads.push_back({e.proc, it == shadow_.end() ? 0 : it->second});
      }
      std::stable_sort(
          reads.begin(), reads.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const MemEvent& e : ph.events)
        if (e.is_write) shadow_[e.addr] = e.value;
      expected_.push_back(std::move(reads));
    }
    ASSERT_LT(index, expected_.size());
    const auto& want = expected_[index];
    for (std::size_t lo = 0; lo < want.size();) {
      const ProcId p = want[lo].first;
      std::size_t hi = lo;
      while (hi < want.size() && want[hi].first == p) ++hi;
      const auto got = m_.inbox(p);
      ASSERT_EQ(got.size(), hi - lo) << "phase " << index << " reader " << p;
      for (std::size_t i = lo; i < hi; ++i)
        ASSERT_EQ(got[i - lo], want[i].second)
            << "phase " << index << " reader " << p;
      lo = hi;
    }
    if (want.empty()) return;
    max_reader = std::max(max_reader, want.back().first);
    EXPECT_TRUE(m_.inbox(want.back().first + 1).empty());
    EXPECT_TRUE(m_.inbox(ProcId{1} << 40).empty());
  }

  ProcId max_reader = 0;

 private:
  const QsmMachine& m_;
  ExpectedInboxes& expected_;
  std::unordered_map<Addr, Word> shadow_;
};

// The circuit names its processors (block, assignment, position); at
// n = 2^12, g = 64 the first phase's readers reach ids above 4.5M, far
// beyond 2^20. A run with detail events builds and checks the
// expectation; a run without them, the way every bench runs, must
// deliver the same inboxes, phase by phase.
TEST(FlatInbox, QsmCrFreeParityCircuitMatchesBruteForce) {
  constexpr std::uint64_t n = std::uint64_t{1} << 12;
  Rng rng(3);
  std::vector<Word> input(n);
  Word parity = 0;
  for (Word& b : input) parity ^= b = static_cast<Word>(rng.next_below(2));

  ExpectedInboxes expected;
  const auto run = [&](bool detail) {
    QsmMachine m({.g = 64, .model = CostModel::QsmCrFree,
                  .record_detail = detail});
    const Addr in = m.alloc(n);
    m.preload(in, input);
    std::unordered_map<Addr, Word> memory;
    for (std::uint64_t i = 0; i < n; ++i)
      if (input[i] != 0) memory[in + i] = input[i];
    InboxAudit audit(m, expected, std::move(memory));
    m.set_observer(&audit);
    EXPECT_EQ(parity_circuit(m, in, n), parity);
    EXPECT_EQ(m.phases(), expected.size());
    return audit.max_reader;
  };

  EXPECT_GT(run(true), ProcId{1} << 20);
  EXPECT_GT(run(false), ProcId{1} << 20);
}

// ----- QSM arena-vs-map equivalence ---------------------------------------

struct QsmObservation {
  std::vector<std::uint64_t> costs;
  std::vector<PhaseStats> stats;
  std::vector<std::vector<Word>> inboxes;
  std::vector<Word> memory;
};

bool operator==(const PhaseStats& a, const PhaseStats& b) {
  return a.m_op == b.m_op && a.m_rw == b.m_rw && a.kappa_r == b.kappa_r &&
         a.kappa_w == b.kappa_w && a.reads == b.reads &&
         a.writes == b.writes && a.ops == b.ops;
}

// Scripted mixed workload: contended writes and reads spread over the
// probe set, several phases, recording every observable.
QsmObservation run_qsm(std::uint64_t dense_limit) {
  QsmMachine m({.g = 3, .mem_dense_limit = dense_limit});
  QsmObservation obs;
  const auto commit = [&] {
    const auto& ph = m.commit_phase();
    obs.costs.push_back(ph.cost);
    obs.stats.push_back(ph.stats);
    for (ProcId p = 0; p < 4; ++p) {
      const auto box = m.inbox(p);
      obs.inboxes.emplace_back(box.begin(), box.end());
    }
  };

  // Phase 1: one write per probe address, plus contention on cell 0.
  m.begin_phase();
  for (std::size_t i = 0; i < kProbeAddrs.size(); ++i)
    m.write(i % 4, kProbeAddrs[i], static_cast<Word>(100 + i));
  m.write(3, kProbeAddrs[0], 999);
  commit();

  // Phase 2: read everything back, write fresh cells near the boundary.
  m.begin_phase();
  for (std::size_t i = 0; i < kProbeAddrs.size(); ++i)
    m.read(i % 4, kProbeAddrs[i]);
  m.write(0, kSmallLimit + 2, 7);
  m.write(1, kSmallLimit - 2, 8);
  commit();

  // Phase 3: re-read an untouched cell (absent => default 0) and
  // overwrite across the boundary.
  m.begin_phase();
  m.read(2, kSmallLimit + 3);
  m.write(2, kSmallLimit - 1, -5);
  m.write(3, kSmallLimit, -6);
  commit();

  for (const Addr a : kProbeAddrs) obs.memory.push_back(m.peek(a));
  obs.memory.push_back(m.peek(kSmallLimit + 2));
  obs.memory.push_back(m.peek(kSmallLimit - 2));
  return obs;
}

void expect_same(const QsmObservation& got, const QsmObservation& want) {
  EXPECT_EQ(got.costs, want.costs);
  EXPECT_EQ(got.inboxes, want.inboxes);
  EXPECT_EQ(got.memory, want.memory);
  ASSERT_EQ(got.stats.size(), want.stats.size());
  for (std::size_t i = 0; i < got.stats.size(); ++i)
    EXPECT_TRUE(got.stats[i] == want.stats[i]) << "phase " << i;
}

TEST(StorageArena, QsmMatchesMapOnlyReference) {
  const auto reference = run_qsm(0);  // map-only
  expect_same(run_qsm(kSmallLimit), reference);
  expect_same(run_qsm(CellStore<Word>::kDefaultDenseLimit), reference);
}

// Randomized crossing of the arena/map boundary: every phase mixes
// addresses on both sides of kSmallLimit; memory is compared against
// the reference machine after every commit, not just at the end.
TEST(StorageArena, QsmFuzzAcrossTheBoundary) {
  Rng rng(42);
  QsmMachine arena({.g = 2, .mem_dense_limit = kSmallLimit});
  QsmMachine reference({.g = 2, .mem_dense_limit = 0});
  for (int phase = 0; phase < 40; ++phase) {
    arena.begin_phase();
    reference.begin_phase();
    const std::uint64_t count = 1 + rng.next_below(12);
    for (std::uint64_t i = 0; i < count; ++i) {
      const ProcId p = rng.next_below(6);
      // Writes straddle the limit: [16, 80). Reads stay below 16 so the
      // queue rule can't trip.
      if (rng.next_bool()) {
        const Addr a = 16 + rng.next_below(64);
        const Word v = static_cast<Word>(rng.next_below(1000));
        arena.write(p, a, v);
        reference.write(p, a, v);
      } else {
        const Addr a = rng.next_below(16);
        arena.read(p, a);
        reference.read(p, a);
      }
    }
    const auto& pa = arena.commit_phase();
    const auto& pr = reference.commit_phase();
    ASSERT_EQ(pa.cost, pr.cost) << "phase " << phase;
    for (Addr a = 0; a < 80; ++a)
      ASSERT_EQ(arena.peek(a), reference.peek(a))
          << "cell " << a << " after phase " << phase;
  }
  EXPECT_EQ(arena.time(), reference.time());
}

// ----- GSM arena-vs-map equivalence ---------------------------------------

TEST(StorageArena, GsmMatchesMapOnlyReference) {
  const auto run = [](std::uint64_t dense_limit) {
    GsmMachine m({.alpha = 2, .beta = 3, .mem_dense_limit = dense_limit});
    std::vector<std::uint64_t> costs;

    m.begin_phase();
    m.write(0, kSmallLimit - 1, 1);
    m.write(1, kSmallLimit - 1, 2);  // strong queuing: both words kept
    m.write(2, kSmallLimit, 3);
    m.write(3, Addr{1} << 40, 4);
    costs.push_back(m.commit_phase().cost);

    m.begin_phase();
    m.read(0, kSmallLimit - 1);
    m.read(1, kSmallLimit);
    m.read(2, Addr{1} << 40);
    m.read(3, 5);  // never written: empty cell
    costs.push_back(m.commit_phase().cost);

    std::vector<std::vector<Word>> inboxes;
    for (ProcId p = 0; p < 4; ++p)
      for (const auto& cell : m.inbox(p))
        inboxes.push_back(cell);
    const auto below = m.peek(kSmallLimit - 1);
    const auto at = m.peek(kSmallLimit);
    std::vector<Word> peeks(below.begin(), below.end());
    peeks.insert(peeks.end(), at.begin(), at.end());
    return std::tuple(costs, inboxes, peeks, m.big_steps(), m.time());
  };

  const auto reference = run(0);
  EXPECT_EQ(run(kSmallLimit), reference);
  EXPECT_EQ(run(CellStore<std::vector<Word>>::kDefaultDenseLimit), reference);
}

// ----- CRCW arena-vs-map equivalence --------------------------------------

TEST(StorageArena, CrcwMatchesMapOnlyReference) {
  const auto run = [](std::uint64_t dense_limit) {
    CrcwMachine m({.rule = CrcwWriteRule::Priority,
                   .mem_dense_limit = dense_limit});
    m.begin_step();
    m.write(2, kSmallLimit - 1, 22);
    m.write(1, kSmallLimit - 1, 11);  // Priority: proc 1 wins
    m.write(3, kSmallLimit + 4, 33);
    // CRCW allows reading a cell written in the same step: the read
    // sees the pre-step value, absent => 0.
    m.read(0, kSmallLimit - 1);
    m.commit_step();

    m.begin_step();
    m.read(0, kSmallLimit - 1);
    m.read(1, kSmallLimit + 4);
    m.commit_step();

    std::vector<Word> seen;
    for (ProcId p = 0; p < 4; ++p)
      for (const Word v : m.inbox(p)) seen.push_back(v);
    return std::tuple(seen, m.peek(kSmallLimit - 1), m.peek(kSmallLimit + 4),
                      m.time());
  };

  const auto reference = run(0);
  EXPECT_EQ(run(kSmallLimit), reference);
  EXPECT_EQ(std::get<1>(reference), 11);
  EXPECT_EQ(std::get<2>(reference), 33);
}

}  // namespace
}  // namespace parbounds
