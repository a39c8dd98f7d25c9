#include "adversary/trace_analysis.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "boolfn/boolfn.hpp"
#include "runtime/parallel_for.hpp"

namespace parbounds {

namespace {

// Structural interning of trace values: one hash table keyed by the flat
// key. Ids are handed out in first-seen order, so they depend only on
// the sequence of intern calls.
class KeyInterner {
 public:
  std::uint32_t intern(const std::vector<std::int64_t>& key) {
    const auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(ids_.size());
    ids_.emplace(key, id);
    return id;
  }

 private:
  struct Hash {
    std::size_t operator()(const std::vector<std::int64_t>& key) const {
      std::uint64_t h = key.size() * 0x9e3779b97f4a7c15ull;
      for (const std::int64_t w : key) {
        h ^= static_cast<std::uint64_t>(w);
        h *= 0xbf58476d1ce4e5b9ull;
        h ^= h >> 31;
      }
      return h;
    }
  };
  std::unordered_map<std::vector<std::int64_t>, std::uint32_t, Hash> ids_;
};

// Numbers the distinct ids of a trace row densely, in first-seen order;
// writes each refinement's number to slot_of (when given) and returns
// how many there are.
std::uint32_t dense_slots(std::span<const std::uint32_t> row,
                          std::vector<std::uint32_t>* slot_of) {
  const std::size_t cap = std::bit_ceil(2 * row.size());
  const int shift = 64 - std::countr_zero(cap);
  // Entry: (id + 1) << 32 | slot; 0 is empty.
  std::vector<std::uint64_t> table(cap, 0);
  std::uint32_t slots = 0;
  for (std::size_t r = 0; r < row.size(); ++r) {
    const std::uint64_t tag = std::uint64_t{row[r]} + 1;
    std::size_t i = (row[r] * 0x9e3779b97f4a7c15ull) >> shift;
    while (table[i] != 0 && table[i] >> 32 != tag) i = (i + 1) & (cap - 1);
    if (table[i] == 0) table[i] = tag << 32 | slots++;
    if (slot_of != nullptr)
      (*slot_of)[r] = static_cast<std::uint32_t>(table[i]);
  }
  return slots;
}

}  // namespace

// One run of the algorithm: every phase's events back to back, and the
// initial cells in ascending address order, their words back to back.
struct TraceAnalysis::Run {
  std::vector<MemEvent> events;
  std::vector<std::uint32_t> phase_begin{0};  // phase t: [begin[t-1], begin[t])
  std::vector<std::uint64_t> cost;            // [t-1]
  std::vector<Addr> init_addr;
  std::vector<std::uint32_t> init_begin{0};   // cell i: [begin[i], begin[i+1])
  std::vector<Word> init_words;

  unsigned phases() const { return static_cast<unsigned>(cost.size()); }
};

TraceAnalysis::TraceAnalysis(GsmAlgorithm algo, GsmConfig cfg,
                             unsigned n_inputs, const PartialInputMap& base)
    : free_vars_(base.unset_indices()) {
  if (free_count() > 14)
    throw std::invalid_argument("TraceAnalysis limited to 14 free inputs");
  cfg.record_detail = true;

  // ----- run every refinement ------------------------------------------------
  std::vector<Word> input(n_inputs, 0);
  for (unsigned i = 0; i < n_inputs; ++i)
    if (base.is_set(i)) input[i] = base.value(i);
  std::vector<Run> runs;
  runs.reserve(refinements());
  for (std::uint32_t r = 0; r < refinements(); ++r) {
    for (unsigned j = 0; j < free_count(); ++j)
      input[free_vars_[j]] = (r >> j) & 1u;
    runs.push_back(capture(algo, cfg, input));
    phases_ = std::max(phases_, runs.back().phases());
  }

  discover_entities(runs);
  const std::size_t per_entity = std::size_t{phases_ + 1} * refinements();
  trace_.resize(entities_.size() * per_entity);
  rw_.resize(proc_count_ * per_entity);
  contention_.resize((entities_.size() - proc_count_) * per_entity);
  big_steps_.resize(per_entity);
  replay(runs, std::max(cfg.alpha, cfg.beta));
}

TraceAnalysis::Run TraceAnalysis::capture(const GsmAlgorithm& algo,
                                          const GsmConfig& cfg,
                                          std::span<const Word> input) {
  GsmMachine m(cfg);
  algo(m, input);

  Run run;
  std::size_t events = 0;
  for (const PhaseTrace& ph : m.trace().phases) events += ph.events.size();
  run.events.reserve(events);
  for (const PhaseTrace& ph : m.trace().phases) {
    run.events.insert(run.events.end(), ph.events.begin(), ph.events.end());
    run.phase_begin.push_back(static_cast<std::uint32_t>(run.events.size()));
    run.cost.push_back(ph.cost);
  }
  std::vector<std::pair<Addr, const std::vector<Word>*>> initial;
  for (const auto& [a, words] : m.initial_memory())
    initial.emplace_back(a, &words);
  std::sort(initial.begin(), initial.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [a, words] : initial) {
    run.init_addr.push_back(a);
    run.init_words.insert(run.init_words.end(), words->begin(), words->end());
    run.init_begin.push_back(
        static_cast<std::uint32_t>(run.init_words.size()));
  }
  return run;
}

// Entities in (is_cell, id) order: every processor that issued a request
// and every cell that was requested or held initial contents, in any run.
void TraceAnalysis::discover_entities(const std::vector<Run>& runs) {
  // Mark every id seen, then number them in ascending order.
  const auto mark = [](std::vector<std::uint32_t>& index, std::uint64_t id) {
    if (id >= kMaxId)
      throw std::invalid_argument(
          "TraceAnalysis: processor ids and cell addresses must be below "
          "2^22");
    if (id >= index.size()) index.resize(id + 1, kNoEntity);
    index[id] = 0;
  };
  for (const Run& run : runs) {
    for (const Addr a : run.init_addr) mark(cell_index_, a);
    for (const MemEvent& ev : run.events) {
      mark(proc_index_, ev.proc);
      mark(cell_index_, ev.addr);
    }
  }
  const auto number = [this](std::vector<std::uint32_t>& index, bool cell) {
    for (std::uint64_t id = 0; id < index.size(); ++id) {
      if (index[id] == kNoEntity) continue;
      index[id] = static_cast<std::uint32_t>(entities_.size());
      entities_.push_back({cell, id});
    }
  };
  number(proc_index_, false);
  proc_count_ = entities_.size();
  number(cell_index_, true);
}

// Replays every run to intern trace ids. Within a run, t = 0 interns one
// trace per entity; each phase then extends the trace of every processor
// that read (by the (cell, cell trace at phase start) pairs it read, in
// issue order) and of every cell written (by the sorted written words:
// strong queuing merges everything, so order within a phase is
// immaterial), processors first, each kind in ascending id order.
//
// Runs go in blocks of up to 16: a block's results are staged as
// [v][t][r % 16] and then copied out one row segment at a time. Writing
// each run straight into [v][t][r] would touch one entry per row at a
// power-of-two stride, and those entries alias the same cache sets.
void TraceAnalysis::replay(const std::vector<Run>& runs, std::uint64_t mu) {
  const std::size_t V = entities_.size();
  const unsigned T = phases_;
  const std::uint32_t R = refinements();
  const std::uint32_t block = std::min<std::uint32_t>(R, 16);
  const std::size_t rows = V * (T + 1);
  const std::size_t proc_rows = proc_count_ * (T + 1);
  // Staged per block: trace id, and reads+writes (processor rows) or
  // contention (cell rows); big-steps per phase.
  std::vector<std::uint32_t> ids(rows * block), load(rows * block);
  std::vector<std::uint64_t> steps((T + 1) * std::size_t{block});

  KeyInterner interner;
  std::vector<std::uint32_t> cur(V);  // trace id per entity, this run
  // Per phase: requests issued by a processor, reads issued by a
  // processor or received by a cell, writes received by a cell.
  std::vector<std::uint32_t> ops(V), reads(V), writes(V);
  // The phase's key payload, grouped by entity: [begin[v], begin[v+1]).
  std::vector<std::uint32_t> begin(V + 1, 0), fill;
  std::vector<std::int64_t> payload, key;

  for (std::uint32_t r = 0; r < R; ++r) {
    const Run& run = runs[r];
    const std::uint32_t b = r % block;
    const auto stage = [&](std::size_t v, unsigned t, std::uint32_t l) {
      const std::size_t at = (v * (T + 1) + t) * block + b;
      ids[at] = cur[v];
      load[at] = l;
    };

    // t = 0: a processor knows its id, a cell holds its initial words.
    std::size_t init = 0;
    for (std::size_t v = 0; v < V; ++v) {
      const Entity& e = entities_[v];
      key.assign({e.is_cell ? 1 : 0, static_cast<std::int64_t>(e.id)});
      if (e.is_cell && init < run.init_addr.size() &&
          run.init_addr[init] == e.id) {
        key.insert(key.end(), run.init_words.begin() + run.init_begin[init],
                   run.init_words.begin() + run.init_begin[init + 1]);
        ++init;
      }
      cur[v] = interner.intern(key);
      stage(v, 0, 0);
    }
    steps[b] = 0;

    for (unsigned t = 1; t <= T; ++t) {
      if (t > run.phases()) {
        for (std::size_t v = 0; v < V; ++v) stage(v, t, 0);
        steps[t * block + b] = 0;
        continue;
      }
      steps[t * block + b] = run.cost[t - 1] / std::max<std::uint64_t>(1, mu);
      const std::span<const MemEvent> events(
          run.events.data() + run.phase_begin[t - 1],
          run.events.data() + run.phase_begin[t]);

      std::fill(ops.begin(), ops.end(), 0);
      std::fill(reads.begin(), reads.end(), 0);
      std::fill(writes.begin(), writes.end(), 0);
      for (const MemEvent& ev : events) {
        const std::uint32_t p = proc_index_[ev.proc];
        const std::uint32_t c = cell_index_[ev.addr];
        ++ops[p];
        if (ev.is_write) {
          ++writes[c];
        } else {
          ++reads[p];
          ++reads[c];
        }
      }
      for (std::size_t v = 0; v < V; ++v)
        begin[v + 1] = begin[v] + (v < proc_count_ ? 2 * reads[v] : writes[v]);
      payload.resize(begin[V]);
      fill = begin;
      for (const MemEvent& ev : events) {
        const std::uint32_t c = cell_index_[ev.addr];
        if (ev.is_write) {
          payload[fill[c]++] = ev.value;
        } else {
          std::uint32_t& at = fill[proc_index_[ev.proc]];
          payload[at++] = static_cast<std::int64_t>(ev.addr);
          payload[at++] = cur[c];
        }
      }

      for (std::size_t v = 0; v < V; ++v) {
        const bool cell = v >= proc_count_;
        if (begin[v] != begin[v + 1]) {
          const auto lo = payload.begin() + begin[v];
          const auto hi = payload.begin() + begin[v + 1];
          if (cell) std::sort(lo, hi);
          key.assign(1, cur[v]);
          key.insert(key.end(), lo, hi);
          cur[v] = interner.intern(key);
        }
        stage(v, t, cell ? std::max(reads[v], writes[v]) : ops[v]);
      }
    }

    if (b + 1 < block) continue;
    const std::uint32_t r0 = r + 1 - block;
    for (std::size_t i = 0; i < rows; ++i) {
      const auto from = static_cast<std::ptrdiff_t>(i * block);
      const auto to = i < proc_rows
                          ? rw_.begin() + i * R + r0
                          : contention_.begin() + (i - proc_rows) * R + r0;
      std::copy_n(ids.begin() + from, block, trace_.begin() + i * R + r0);
      std::copy_n(load.begin() + from, block, to);
    }
    for (unsigned t = 0; t <= T; ++t)
      std::copy_n(steps.begin() + t * block, block,
                  big_steps_.begin() + t * R + r0);
  }
}

std::size_t TraceAnalysis::entity_index(const Entity& e) const {
  const auto& index = e.is_cell ? cell_index_ : proc_index_;
  if (e.id >= index.size() || index[e.id] == kNoEntity)
    throw std::out_of_range("unknown entity");
  return index[e.id];
}

std::uint32_t TraceAnalysis::trace_id(std::size_t v, unsigned t,
                                      std::uint32_t r) const {
  return trace_[row(v, t) + r];
}

std::uint32_t TraceAnalysis::states_count(std::size_t v, unsigned t) const {
  return dense_slots(trace_row(v, t), nullptr);
}

std::vector<unsigned> TraceAnalysis::know(std::size_t v, unsigned t) const {
  std::vector<unsigned> out;
  const auto row = trace_row(v, t);
  for (unsigned j = 0; j < free_count(); ++j) {
    const std::uint32_t bit = std::uint32_t{1} << j;
    for (std::uint32_t r = 0; r < refinements(); ++r) {
      if ((r & bit) != 0) continue;
      if (row[r] != row[r | bit]) {
        out.push_back(j);
        break;
      }
    }
  }
  return out;
}

unsigned TraceAnalysis::deg_states(std::size_t v, unsigned t) const {
  // The trace classes come from ONE pass over the refinement row. A class
  // of odd size has an odd, hence nonzero, coefficient on the full
  // monomial (its signed truth-table sum), so its degree is u, the most
  // any class can have. Otherwise the last class's chi is 1 minus the sum
  // of the others', so its degree is at most theirs and it is not built.
  // The degree() calls are the hot part; they run on the
  // runtime-dispatched SIMD word kernels (see
  // src/boolfn/simd_kernels.hpp), bit-identical at every dispatch level.
  const auto row = trace_row(v, t);
  const unsigned u = free_count();
  std::vector<std::uint32_t> slot(row.size());
  const std::uint32_t classes = dense_slots(row, &slot);
  std::vector<std::uint32_t> size(classes, 0);
  for (const std::uint32_t s : slot) ++size[s];
  for (const std::uint32_t n : size)
    if (n % 2 == 1) return u;
  std::vector<BoolFn> chi(classes - 1, BoolFn(u));
  for (std::uint32_t r = 0; r < refinements(); ++r)
    if (slot[r] + 1 < classes) chi[slot[r]].set(r, true);
  unsigned best = 0;
  for (const BoolFn& fn : chi) best = std::max(best, degree(fn));
  return best;
}

unsigned TraceAnalysis::cert_at(std::size_t v, unsigned t,
                                std::uint32_t r) const {
  const auto row = trace_row(v, t);
  return subcube_certificate(
      free_count(), [&](std::uint32_t x) { return row[x]; }, r);
}

unsigned TraceAnalysis::cert_max(std::size_t v, unsigned t) const {
  unsigned best = 0;
  for (std::uint32_t r = 0; r < refinements(); ++r)
    best = std::max(best, cert_at(v, t, r));
  return best;
}

// The per-entity membership tests are independent, so both Aff counts
// fan the entity range out over the pool; per-shard tallies are summed
// (commutative), so the counts are identical at any thread count.
unsigned TraceAnalysis::aff_count(unsigned j, unsigned t,
                                  bool cells) const {
  constexpr unsigned kMaxShards = 8;
  std::array<unsigned, kMaxShards> part{};
  const unsigned shards =
      runtime::ParallelFor::shard_count(entities_.size(), 16, kMaxShards);
  runtime::ParallelFor::pool().for_shards(
      entities_.size(), shards,
      [&](unsigned s, std::uint64_t lo, std::uint64_t hi) {
        unsigned c = 0;
        for (std::size_t v = lo; v < hi; ++v) {
          if (entities_[v].is_cell != cells) continue;
          const auto k = know(v, t);
          if (std::find(k.begin(), k.end(), j) != k.end()) ++c;
        }
        part[s] = c;
      });
  unsigned c = 0;
  for (const unsigned p : part) c += p;
  return c;
}

unsigned TraceAnalysis::aff_proc_count(unsigned j, unsigned t) const {
  return aff_count(j, t, /*cells=*/false);
}

unsigned TraceAnalysis::aff_cell_count(unsigned j, unsigned t) const {
  return aff_count(j, t, /*cells=*/true);
}

std::uint64_t TraceAnalysis::rw_count(std::size_t v, unsigned t,
                                      std::uint32_t r) const {
  return v < proc_count_ ? rw_[row(v, t) + r] : 0;
}

std::uint64_t TraceAnalysis::max_rw(std::size_t v, unsigned t) const {
  if (v >= proc_count_) return 0;
  const auto first = rw_.begin() + static_cast<std::ptrdiff_t>(row(v, t));
  return *std::max_element(first, first + refinements());
}

std::uint64_t TraceAnalysis::contention(std::size_t v, unsigned t,
                                        std::uint32_t r) const {
  return v < proc_count_ ? 0 : contention_[cell_row(v, t) + r];
}

std::uint64_t TraceAnalysis::max_contention(std::size_t v, unsigned t) const {
  if (v < proc_count_) return 0;
  const auto first =
      contention_.begin() + static_cast<std::ptrdiff_t>(cell_row(v, t));
  return *std::max_element(first, first + refinements());
}

std::uint64_t TraceAnalysis::big_steps(unsigned t, std::uint32_t r) const {
  return big_steps_[std::size_t{t} * refinements() + r];
}

std::uint32_t subcube_certificate_set(
    unsigned u, const std::function<std::uint32_t(std::uint32_t)>& colour,
    std::uint32_t r) {
  if (u > 13) throw std::invalid_argument("subcube_certificate: u <= 13");
  const std::uint32_t full = (u == 0) ? 0 : ((std::uint32_t{1} << u) - 1);
  const std::uint32_t target = colour(r);
  // Try fixing sets S in increasing size; the subcube is {x : x&S == r&S}.
  for (unsigned k = 0; k <= u; ++k) {
    for (std::uint32_t S = 0; S <= full; ++S) {
      if (static_cast<unsigned>(std::popcount(S)) != k) continue;
      bool constant = true;
      for (std::uint32_t x = 0; x <= full && constant; ++x)
        if ((x & S) == (r & S) && colour(x) != target) constant = false;
      if (constant) return S;
      if (S == full) break;  // guard the S <= full wrap at u == 32
    }
  }
  return full;
}

unsigned subcube_certificate(
    unsigned u,
    const std::function<std::uint32_t(std::uint32_t)>& colour,
    std::uint32_t r) {
  return static_cast<unsigned>(
      std::popcount(subcube_certificate_set(u, colour, r)));
}

}  // namespace parbounds
