// Randomized self-checks of the engines: generate random VALID phase
// programs and verify the machine's accounting against an independent
// recomputation from first principles. This guards the single most
// load-bearing component — every measured number in the repository flows
// through commit_phase.
//
// Two generators: small phases (at most 40 requests over a few ids), and
// large phases (2^16..2^17 requests) whose processor ids and addresses
// straddle the commit's dense limits, so the spill paths of the key
// histograms, the CellStore and the FlatInbox all run beside the dense
// ones.
//
// The trials fan out through the ExperimentRunner with a fixed worker
// count, so a TSan build of this file doubles as a thread-safety proof
// for concurrent engine instances (the machines share no state; see
// docs/RUNTIME.md). Each trial's seed is derived from a fixed base and
// its trial id, so the trial set is identical at any worker count.
// Workers return error strings instead of asserting — gtest macros are
// not thread-safe off the main thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/bsp.hpp"
#include "core/crcw.hpp"
#include "core/gsm.hpp"
#include "core/qsm.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"

namespace parbounds {
namespace {

// Fixed fuzz budget: trial ids 0..31 under each base seed, regardless
// of how many workers execute them.
constexpr std::uint64_t kFuzzTrials = 32;
constexpr unsigned kFuzzJobs = 4;

struct Op {
  bool is_write;
  ProcId proc;
  Addr addr;
  Word value;
};

// Build one random queue-legal phase: cells are pre-partitioned into a
// read side and a write side so the rule can't be tripped.
std::vector<Op> random_phase(Rng& rng, std::uint64_t procs,
                             std::uint64_t cells) {
  std::vector<Op> ops;
  const std::uint64_t count = 1 + rng.next_below(40);
  for (std::uint64_t i = 0; i < count; ++i) {
    Op op;
    op.is_write = rng.next_bool();
    op.proc = rng.next_below(procs);
    const std::uint64_t half = cells / 2;
    op.addr = op.is_write ? half + rng.next_below(half)
                          : rng.next_below(half);
    op.value = static_cast<Word>(rng.next_below(100)) + 1;
    ops.push_back(op);
  }
  return ops;
}

// `joint`: the engine charges a processor's reads and writes together
// (GSM, CRCW) rather than as separate maxima (QSM).
PhaseStats expected_stats(const std::vector<Op>& ops, bool joint = false) {
  PhaseStats st;
  std::unordered_map<ProcId, std::uint64_t> r, w;
  std::unordered_map<Addr, std::uint64_t> cr, cw;
  for (const auto& op : ops) {
    st.reads += op.is_write ? 0 : 1;
    st.writes += op.is_write ? 1 : 0;
    if (op.is_write) {
      ++(joint ? r : w)[op.proc];
      ++cw[op.addr];
    } else {
      ++r[op.proc];
      ++cr[op.addr];
    }
  }
  for (const auto& [p, c] : r) st.m_rw = std::max(st.m_rw, c);
  for (const auto& [p, c] : w) st.m_rw = std::max(st.m_rw, c);
  for (const auto& [a, c] : cr) st.kappa_r = std::max(st.kappa_r, c);
  for (const auto& [a, c] : cw) st.kappa_w = std::max(st.kappa_w, c);
  return st;
}

// Run `check` once per derived seed on a fixed-size worker pool and
// report every failing trial. The check returns "" when the trial is
// clean and a description otherwise.
void run_fuzz(std::uint64_t base,
              const std::function<std::string(std::uint64_t seed)>& check,
              std::uint64_t trials = kFuzzTrials, unsigned jobs = kFuzzJobs) {
  runtime::ExperimentRunner pool({.jobs = jobs});
  const auto faults = pool.map<std::string>(
      trials, [&](std::uint64_t trial) {
        return check(runtime::derive_seed(base, trial));
      });
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_TRUE(faults[i].empty()) << "trial " << i << ": " << faults[i];
}

template <class Machine>
void issue(Machine& m, const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    if (op.is_write)
      m.write(op.proc, op.addr, op.value);
    else
      m.read(op.proc, op.addr);
  }
}

std::string check_qsm_accounting(std::uint64_t seed) {
  Rng rng(seed);
  for (const auto model :
       {CostModel::Qsm, CostModel::SQsm, CostModel::QsmCrFree}) {
    QsmMachine m({.g = 1 + rng.next_below(16), .model = model});
    (void)m.alloc(64);
    std::uint64_t total = 0;
    for (int phase = 0; phase < 10; ++phase) {
      const auto ops = random_phase(rng, 16, 64);
      m.begin_phase();
      issue(m, ops);
      const auto& ph = m.commit_phase();
      const auto want = expected_stats(ops);
      if (ph.stats.m_rw != want.m_rw) return "m_rw mismatch";
      if (ph.stats.kappa_r != want.kappa_r) return "kappa_r mismatch";
      if (ph.stats.kappa_w != want.kappa_w) return "kappa_w mismatch";
      if (ph.cost != phase_cost(model, m.config().g, want))
        return "phase cost mismatch";
      total += ph.cost;
    }
    if (m.time() != total) return "total time mismatch";
  }
  return "";
}

std::string check_qsm_memory(std::uint64_t seed) {
  // LastQueued resolution makes the machine's memory deterministic:
  // replay the same ops into a plain map and compare.
  Rng rng(seed);
  QsmMachine m({.g = 1});
  (void)m.alloc(64);
  std::map<Addr, Word> shadow;
  for (int phase = 0; phase < 12; ++phase) {
    const auto ops = random_phase(rng, 8, 64);
    m.begin_phase();
    issue(m, ops);
    m.commit_phase();
    for (const auto& op : ops)
      if (op.is_write) shadow[op.addr] = op.value;
  }
  for (const auto& [a, v] : shadow)
    if (m.peek(a) != v) {
      std::ostringstream msg;
      msg << "memory mismatch at cell " << a;
      return msg.str();
    }
  return "";
}

std::string check_gsm_multiset(std::uint64_t seed) {
  Rng rng(seed);
  GsmMachine m({.alpha = 1 + rng.next_below(4), .beta = 1 + rng.next_below(4),
                .gamma = 1});
  (void)m.alloc(32);
  std::map<Addr, std::multiset<Word>> shadow;
  for (int phase = 0; phase < 8; ++phase) {
    const auto ops = random_phase(rng, 8, 32);
    m.begin_phase();
    issue(m, ops);
    m.commit_phase();
    for (const auto& op : ops)
      if (op.is_write) shadow[op.addr].insert(op.value);
  }
  for (const auto& [a, want] : shadow) {
    const auto cell = m.peek(a);
    const std::multiset<Word> got(cell.begin(), cell.end());
    if (got != want) {
      std::ostringstream msg;
      msg << "multiset mismatch at cell " << a;
      return msg.str();
    }
  }
  return "";
}

std::string check_bsp_inboxes(std::uint64_t seed) {
  Rng rng(seed);
  BspMachine m({.p = 8, .g = 2, .L = 4});
  for (int step = 0; step < 6; ++step) {
    std::map<ProcId, std::multiset<Word>> want;
    std::uint64_t max_s = 0, max_r = 0;
    std::map<ProcId, std::uint64_t> s_cnt, r_cnt;
    m.begin_superstep();
    const std::uint64_t count = 1 + rng.next_below(30);
    for (std::uint64_t i = 0; i < count; ++i) {
      const ProcId src = rng.next_below(8);
      const ProcId dst = rng.next_below(8);
      const Word v = static_cast<Word>(rng.next_below(50));
      m.send(src, dst, v);
      want[dst].insert(v);
      ++s_cnt[src];
      ++r_cnt[dst];
    }
    const auto& ph = m.commit_superstep();
    for (const auto& [p, c] : s_cnt) max_s = std::max(max_s, c);
    for (const auto& [p, c] : r_cnt) max_r = std::max(max_r, c);
    if (ph.h != std::max(max_s, max_r)) return "h-relation mismatch";
    for (ProcId p = 0; p < 8; ++p) {
      std::multiset<Word> got;
      for (const Message& msg : m.inbox(p)) got.insert(msg.value);
      if (got != want[p]) {
        std::ostringstream msg;
        msg << "inbox mismatch at proc " << p;
        return msg.str();
      }
    }
  }
  return "";
}

TEST(EngineFuzz, QsmAccountingMatchesRecomputation) {
  run_fuzz(1, check_qsm_accounting);
}

TEST(EngineFuzz, QsmMemoryMatchesSequentialModel) {
  run_fuzz(1000, check_qsm_memory);
}

TEST(EngineFuzz, GsmMergesExactlyTheMultiset) {
  run_fuzz(2000, check_gsm_multiset);
}

TEST(EngineFuzz, BspInboxesMatchSends) {
  run_fuzz(3000, check_bsp_inboxes);
}

std::string check_arena_map_equivalence(std::uint64_t seed) {
  // The flat-arena fast path (mem_dense_limit) must be unobservable:
  // run the same random program on a machine whose 64-cell address
  // range straddles a tiny arena (limit 32: reads dense, writes
  // sparse) and on the map-only reference, and compare everything.
  Rng rng(seed);
  QsmMachine arena({.g = 2, .mem_dense_limit = 32});
  QsmMachine reference({.g = 2, .mem_dense_limit = 0});
  for (int phase = 0; phase < 10; ++phase) {
    const auto ops = random_phase(rng, 8, 64);
    arena.begin_phase();
    reference.begin_phase();
    for (const auto& op : ops) {
      if (op.is_write) {
        arena.write(op.proc, op.addr, op.value);
        reference.write(op.proc, op.addr, op.value);
      } else {
        arena.read(op.proc, op.addr);
        reference.read(op.proc, op.addr);
      }
    }
    const auto& pa = arena.commit_phase();
    const auto& pr = reference.commit_phase();
    if (pa.cost != pr.cost) return "cost diverged from map reference";
    for (ProcId p = 0; p < 8; ++p) {
      const auto ba = arena.inbox(p);
      const auto br = reference.inbox(p);
      if (!std::equal(ba.begin(), ba.end(), br.begin(), br.end()))
        return "inbox diverged from map reference";
    }
    for (Addr a = 0; a < 64; ++a)
      if (arena.peek(a) != reference.peek(a)) {
        std::ostringstream msg;
        msg << "memory diverged from map reference at cell " << a;
        return msg.str();
      }
  }
  if (arena.time() != reference.time()) return "total time diverged";
  return "";
}

TEST(EngineFuzz, ArenaAndMapStorageAgree) {
  run_fuzz(4000, check_arena_map_equivalence);
}

// ----- large phases ---------------------------------------------------------

// Fixed budget: two trials of kLargePhases phases per engine.
constexpr std::uint64_t kLargeTrials = 2;
constexpr int kLargePhases = 3;
constexpr ProcId kProcEdge = detail::kProcHistogramLimit;
// Also the CellStore dense limit of every engine's default config.
constexpr Addr kAddrEdge = detail::kAddrHistogramLimit;
static_assert(kAddrEdge == CellStore<Word>::kDefaultDenseLimit);
// Widest id window around kProcEdge; BSP needs p above it.
constexpr std::uint64_t kMaxWidth = std::uint64_t{1} << 13;

// A processor id: a small one (inside the FlatInbox slot index) or one
// in [kProcEdge - width, kProcEdge + width), which lies beyond the slot
// index and on both sides of the processor histogram's dense limit.
ProcId large_proc(Rng& rng, std::uint64_t width) {
  if (rng.next_below(4) == 0) return rng.next_below(64);
  return kProcEdge - width + rng.next_below(2 * width);
}

// One queue-legal phase of 2^16..2^17 requests. Addresses are low cells
// or cells in [kAddrEdge - width, kAddrEdge + width); within a phase
// reads take one parity and writes the other, and the read parity is
// redrawn every phase, so a cell written in one phase is read in a
// later one. Both window widths are redrawn every phase too, so the
// touched key ranges grow, shrink and move between phases.
std::vector<Op> large_phase(Rng& rng) {
  const std::uint64_t count =
      (std::uint64_t{1} << 16) + rng.next_below(std::uint64_t{1} << 16);
  const std::uint64_t pw = std::uint64_t{1} << (4 + rng.next_below(10));
  const std::uint64_t aw = std::uint64_t{1} << (4 + rng.next_below(10));
  const std::uint64_t read_parity = rng.next_below(2);
  std::vector<Op> ops;
  ops.reserve(count + 2);
  for (std::uint64_t i = 0; i < count; ++i) {
    Op op;
    op.is_write = rng.next_bool();
    op.proc = large_proc(rng, pw);
    const Addr base = rng.next_below(4) == 0 ? 0 : kAddrEdge - aw;
    op.addr = base + 2 * rng.next_below(aw) +
              (op.is_write ? 1 - read_parity : read_parity);
    op.value = static_cast<Word>(rng.next_below(1000)) + 1;
    ops.push_back(op);
  }
  return ops;
}

// Make the phase break the queue rule at exactly one cell: kAddrEdge
// itself, or a cell some request of the phase writes.
void add_clash(Rng& rng, std::vector<Op>& ops) {
  Addr a = kAddrEdge;
  if (rng.next_bool()) {
    const auto from =
        ops.begin() + static_cast<std::ptrdiff_t>(rng.next_below(ops.size()));
    const auto w = std::find_if(from, ops.end(),
                                [](const Op& op) { return op.is_write; });
    if (w != ops.end()) a = w->addr;
  }
  ops.push_back({false, 3, a, 0});
  ops.push_back({true, 5, a, 7});
}

// Smallest cell both read and written, from the request list alone.
std::optional<Addr> smallest_clash(const std::vector<Op>& ops) {
  std::unordered_set<Addr> read;
  for (const Op& op : ops)
    if (!op.is_write) read.insert(op.addr);
  std::optional<Addr> clash;
  for (const Op& op : ops)
    if (op.is_write && read.count(op.addr) != 0 && (!clash || op.addr < *clash))
      clash = op.addr;
  return clash;
}

std::string stats_mismatch(const PhaseStats& got, const PhaseStats& want) {
  if (got.m_rw != want.m_rw) return "m_rw mismatch";
  if (got.kappa_r != want.kappa_r) return "kappa_r mismatch";
  if (got.kappa_w != want.kappa_w) return "kappa_w mismatch";
  return "";
}

// Every reader's delivered values, in issue order: the start-of-phase
// contents `value(addr)` of each cell it read.
template <class Value>
using Inboxes = std::unordered_map<ProcId, std::vector<Value>>;

template <class Value, class ValueFn>
Inboxes<Value> expected_inboxes(const std::vector<Op>& ops, ValueFn&& value) {
  Inboxes<Value> want;
  for (const Op& op : ops)
    if (!op.is_write) want[op.proc].push_back(value(op.addr));
  return want;
}

// "" when every reader of `want` got exactly its values and a reader
// that read nothing (an id no generator draws) got none.
template <class Machine, class Value>
std::string inbox_mismatch(const Machine& m, const Inboxes<Value>& want) {
  for (const auto& [p, values] : want) {
    const auto got = m.inbox(p);
    if (!std::equal(got.begin(), got.end(), values.begin(), values.end()))
      return "inbox mismatch at reader " + std::to_string(p);
  }
  if (!m.inbox(100).empty() || !m.inbox(kProcEdge + kMaxWidth).empty())
    return "inbox of a reader that read nothing is not empty";
  return "";
}

std::string check_large_qsm(Rng& rng) {
  const CostModel models[] = {CostModel::Qsm, CostModel::SQsm,
                              CostModel::QsmCrFree};
  const CostModel model = models[rng.next_below(3)];
  QsmMachine m({.g = 1 + rng.next_below(16), .model = model});
  std::unordered_map<Addr, Word> shadow;  // LastQueued: the last write per cell
  for (int phase = 0; phase < kLargePhases; ++phase) {
    auto ops = large_phase(rng);
    if (rng.next_below(3) == 0) add_clash(rng, ops);
    m.begin_phase();
    issue(m, ops);
    const std::optional<Addr> clash = smallest_clash(ops);
    const PhaseTrace* ph = nullptr;
    try {
      ph = &m.commit_phase();
    } catch (const ModelViolation& e) {
      if (clash && e.what() == "cell " + std::to_string(*clash) +
                                   " both read and written in one phase")
        continue;  // the phase is discarded, memory untouched
      return std::string("qsm: wrong violation: ") + e.what();
    }
    if (clash) return "qsm: missed the clash at cell " + std::to_string(*clash);
    const PhaseStats want = expected_stats(ops);
    if (auto e = stats_mismatch(ph->stats, want); !e.empty())
      return "qsm: " + e;
    if (ph->cost != phase_cost(model, m.config().g, want))
      return "qsm: phase cost mismatch";
    const auto inboxes = expected_inboxes<Word>(ops, [&](Addr a) {
      const auto it = shadow.find(a);
      return it == shadow.end() ? Word{0} : it->second;
    });
    if (auto e = inbox_mismatch(m, inboxes); !e.empty()) return "qsm: " + e;
    for (const Op& op : ops)
      if (op.is_write) shadow[op.addr] = op.value;
  }
  for (const auto& [a, v] : shadow)
    if (m.peek(a) != v)
      return "qsm: memory mismatch at cell " + std::to_string(a);
  return "";
}

std::string check_large_gsm(Rng& rng) {
  GsmMachine m({.alpha = 1 + rng.next_below(4), .beta = 1 + rng.next_below(4),
                .gamma = 1});
  // Strong queuing: a cell holds every value written to it, in order.
  std::unordered_map<Addr, std::vector<Word>> shadow;
  for (int phase = 0; phase < kLargePhases; ++phase) {
    auto ops = large_phase(rng);
    if (rng.next_below(3) == 0) add_clash(rng, ops);
    m.begin_phase();
    issue(m, ops);
    const std::optional<Addr> clash = smallest_clash(ops);
    const PhaseTrace* ph = nullptr;
    try {
      ph = &m.commit_phase();
    } catch (const ModelViolation& e) {
      if (clash && std::string(e.what()) ==
                       "GSM cell both read and written in one phase")
        continue;
      return std::string("gsm: wrong violation: ") + e.what();
    }
    if (clash) return "gsm: missed the clash at cell " + std::to_string(*clash);
    if (auto e = stats_mismatch(ph->stats, expected_stats(ops, true));
        !e.empty())
      return "gsm: " + e;
    const auto inboxes =
        expected_inboxes<std::vector<Word>>(ops, [&](Addr a) {
          const auto it = shadow.find(a);
          return it == shadow.end() ? std::vector<Word>{} : it->second;
        });
    if (auto e = inbox_mismatch(m, inboxes); !e.empty()) return "gsm: " + e;
    for (const Op& op : ops)
      if (op.is_write) shadow[op.addr].push_back(op.value);
  }
  for (const auto& [a, want] : shadow) {
    const auto got = m.peek(a);
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end()))
      return "gsm: memory mismatch at cell " + std::to_string(a);
  }
  return "";
}

std::string check_large_crcw(Rng& rng) {
  const CrcwWriteRule rule = static_cast<CrcwWriteRule>(rng.next_below(3));
  CrcwMachine m({.rule = rule});
  std::unordered_map<Addr, Word> shadow;
  for (int phase = 0; phase < kLargePhases; ++phase) {
    auto ops = large_phase(rng);
    if (rule == CrcwWriteRule::Common)  // agreeing writes only
      for (Op& op : ops) op.value = static_cast<Word>(op.addr % 1000) + 1;
    m.begin_step();
    issue(m, ops);
    const PhaseTrace& ph = m.commit_step();
    if (auto e = stats_mismatch(ph.stats, expected_stats(ops, true));
        !e.empty())
      return "crcw: " + e;
    const auto inboxes = expected_inboxes<Word>(ops, [&](Addr a) {
      const auto it = shadow.find(a);
      return it == shadow.end() ? Word{0} : it->second;
    });
    if (auto e = inbox_mismatch(m, inboxes); !e.empty()) return "crcw: " + e;
    // The winner per cell: last queued (Arbitrary, and Common, whose
    // writes agree), or the lowest processor, first queued among equals
    // (Priority).
    std::unordered_map<Addr, const Op*> winner;
    for (const Op& op : ops) {
      if (!op.is_write) continue;
      const Op*& w = winner[op.addr];
      if (w == nullptr || rule != CrcwWriteRule::Priority || op.proc < w->proc)
        w = &op;
    }
    for (const auto& [a, w] : winner) shadow[a] = w->value;
  }
  for (const auto& [a, v] : shadow)
    if (m.peek(a) != v)
      return "crcw: memory mismatch at cell " + std::to_string(a);
  return "";
}

std::string check_large_bsp(Rng& rng) {
  BspMachine m({.p = kProcEdge + kMaxWidth, .g = 2, .L = 4});
  for (int step = 0; step < kLargePhases; ++step) {
    const auto ops = large_phase(rng);  // proc = source, addr = draw only
    std::unordered_map<ProcId, std::uint64_t> sent, received;
    std::unordered_map<ProcId, std::vector<Word>> want;
    const std::uint64_t pw = std::uint64_t{1} << (4 + rng.next_below(10));
    m.begin_superstep();
    for (const Op& op : ops) {
      const ProcId dst = large_proc(rng, pw);
      m.send(op.proc, dst, op.value, static_cast<Word>(op.addr));
      ++sent[op.proc];
      ++received[dst];
      want[dst].push_back(op.value);
    }
    const PhaseTrace& ph = m.commit_superstep();
    std::uint64_t h = 0;
    for (const auto& [p, c] : sent) h = std::max(h, c);
    for (const auto& [p, c] : received) h = std::max(h, c);
    if (ph.h != h) return "bsp: h-relation mismatch";
    for (const auto& [p, values] : want) {
      const auto got = m.inbox(p);
      const auto same = [](const Message& msg, Word v) {
        return msg.value == v;
      };
      if (!std::equal(got.begin(), got.end(), values.begin(), values.end(),
                      same))
        return "bsp: inbox mismatch at proc " + std::to_string(p);
    }
    if (!m.inbox(100).empty()) return "bsp: inbox of an idle proc not empty";
  }
  return "";
}

// All four engines, one after another, on one trial's seed.
std::string check_large_phases(std::uint64_t seed) {
  Rng rng(seed);
  for (auto* check :
       {check_large_qsm, check_large_gsm, check_large_crcw, check_large_bsp})
    if (std::string fault = check(rng); !fault.empty()) return fault;
  return "";
}

TEST(EngineFuzz, LargePhasesMatchRecomputationInRunnerWorkers) {
  run_fuzz(5000, check_large_phases, kLargeTrials, 2);
}

TEST(EngineFuzz, LargePhasesMatchRecomputationOnTheMainThread) {
  // jobs = 1 runs the trials on this thread, where a multi-thread pool
  // fans out; the commit must not care.
  auto& pool = runtime::ParallelFor::pool();
  const unsigned saved = pool.threads();
  pool.set_threads(4);
  EXPECT_TRUE(pool.fans_out());
  run_fuzz(5000, check_large_phases, kLargeTrials, 1);
  pool.set_threads(saved);
}

}  // namespace
}  // namespace parbounds
