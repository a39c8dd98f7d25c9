#pragma once
// Exact trace analysis of a deterministic GSM algorithm over all
// refinements of a partial input map (Section 5.1 made executable).
//
// For small input counts (u = number of unset inputs <= ~14) the analyzer
// runs the algorithm once per refinement, interns canonical trace ids for
// every processor and cell after every phase, and computes exactly the
// quantities the lower-bound proofs reason about:
//
//   States(v, t, e)   — number of distinct traces (states_count)
//   deg(States(...))  — max degree of a trace class's characteristic
//                       function over the unset inputs (deg_states)
//   Know(v, t, e)     — the minimal determining input set (know)
//   AffProc / AffCell — how many processors/cells an input affects
//   Cert(v, t, f)     — certificate size of a trace at a full refinement
//
// Trace definitions follow the paper: a processor's trace is its id plus,
// per phase, the (cell, contents) pairs it read; a cell's trace is its
// contents (initial contents plus everything merged in by strong-queuing
// writes). Canonicalisation is structural, so two refinements get equal
// ids iff their traces are equal.
//
// Each run is captured as one flat event array; entities are found
// through dense id -> index tables, and trace values are interned in one
// hash table, so ids are first-seen numbers in replay order (runs in
// mask order; within a phase, processors then cells, each ascending).
// Results are held in flat [v][t][r] arrays.
//
// Restrictions: analyzed algorithms must use single-word GSM writes (the
// event log records one Word per write), which all in-repo algorithms
// do; processor ids and cell addresses must lie below kMaxId.

#include <cstdint>
#include <functional>
#include <span>
#include <tuple>
#include <vector>

#include "adversary/input_map.hpp"
#include "core/gsm.hpp"

namespace parbounds {

/// A deterministic algorithm under analysis: stages its input into the
/// machine (preload/load_inputs) and runs to completion.
using GsmAlgorithm =
    std::function<void(GsmMachine&, std::span<const Word> input)>;

class TraceAnalysis {
 public:
  struct Entity {
    bool is_cell = false;
    std::uint64_t id = 0;  ///< processor id or cell address
    bool operator<(const Entity& o) const {
      return std::tie(is_cell, id) < std::tie(o.is_cell, o.id);
    }
    bool operator==(const Entity& o) const = default;
  };

  /// Bound on processor ids and cell addresses: the id -> index tables
  /// are dense over [0, kMaxId). A larger id makes the constructor throw
  /// std::invalid_argument.
  static constexpr std::uint64_t kMaxId = std::uint64_t{1} << 22;

  TraceAnalysis(GsmAlgorithm algo, GsmConfig cfg, unsigned n_inputs,
                const PartialInputMap& base);

  unsigned free_count() const {
    return static_cast<unsigned>(free_vars_.size());
  }
  /// Original input indices of the free (unset) variables, in the order
  /// refinement-mask bits refer to them.
  const std::vector<unsigned>& free_vars() const { return free_vars_; }
  std::uint32_t refinements() const { return std::uint32_t{1} << free_count(); }

  unsigned phases() const { return phases_; }
  const std::vector<Entity>& entities() const { return entities_; }
  std::size_t entity_index(const Entity& e) const;
  std::size_t proc_count() const { return proc_count_; }

  /// Trace class id of entity `v` after phase t (t = 0 is the initial
  /// state) under refinement mask r.
  std::uint32_t trace_id(std::size_t v, unsigned t, std::uint32_t r) const;

  std::uint32_t states_count(std::size_t v, unsigned t) const;
  std::vector<unsigned> know(std::size_t v, unsigned t) const;
  unsigned deg_states(std::size_t v, unsigned t) const;
  unsigned cert_at(std::size_t v, unsigned t, std::uint32_t r) const;
  unsigned cert_max(std::size_t v, unsigned t) const;

  /// How many processor (resp. cell) entities have free var j in their
  /// Know set after phase t.
  unsigned aff_proc_count(unsigned j, unsigned t) const;
  unsigned aff_cell_count(unsigned j, unsigned t) const;

  /// Reads+writes issued by processor entity v in phase t (1-based) under
  /// refinement r; 0 for cells.
  std::uint64_t rw_count(std::size_t v, unsigned t, std::uint32_t r) const;
  std::uint64_t max_rw(std::size_t v, unsigned t) const;
  /// Contention (max of readers, writers) at cell entity v in phase t.
  std::uint64_t contention(std::size_t v, unsigned t, std::uint32_t r) const;
  std::uint64_t max_contention(std::size_t v, unsigned t) const;

  /// Big-steps consumed by phase t under refinement r (0 if that run had
  /// fewer phases).
  std::uint64_t big_steps(unsigned t, std::uint32_t r) const;

 private:
  struct Run;  // one captured algorithm run
  static Run capture(const GsmAlgorithm& algo, const GsmConfig& cfg,
                     std::span<const Word> input);
  void discover_entities(const std::vector<Run>& runs);
  void replay(const std::vector<Run>& runs, std::uint64_t mu);
  unsigned aff_count(unsigned j, unsigned t, bool cells) const;
  /// Offset of row (v, t) in the [v][t][r] tables, and of cell v's row
  /// in contention_.
  std::size_t row(std::size_t v, unsigned t) const {
    return (v * (phases_ + 1) + t) * refinements();
  }
  std::size_t cell_row(std::size_t v, unsigned t) const {
    return row(v - proc_count_, t);
  }
  std::span<const std::uint32_t> trace_row(std::size_t v, unsigned t) const {
    return {trace_.data() + row(v, t), refinements()};
  }

  std::vector<unsigned> free_vars_;
  unsigned phases_ = 0;
  std::size_t proc_count_ = 0;

  std::vector<Entity> entities_;
  // Entity index by processor id and by cell address; kNoEntity if unseen.
  static constexpr std::uint32_t kNoEntity = ~std::uint32_t{0};
  std::vector<std::uint32_t> proc_index_;
  std::vector<std::uint32_t> cell_index_;

  // Interned trace ids [v][t][r]; reads+writes [v][t][r] over the
  // processors (v < proc_count_); contention [v - proc_count_][t][r]
  // over the cells; big-steps [t][r].
  std::vector<std::uint32_t> trace_;
  std::vector<std::uint32_t> rw_;
  std::vector<std::uint32_t> contention_;
  std::vector<std::uint64_t> big_steps_;
};

/// Generalised certificate machinery: minimal number of coordinates that
/// must be fixed (to their values in r) so that `colour` is constant on
/// the subcube. colour : {0,1}^u -> uint32. Exact; u <= 13.
unsigned subcube_certificate(unsigned u,
                             const std::function<std::uint32_t(std::uint32_t)>&
                                 colour,
                             std::uint32_t r);

/// Same search, but returns the (first smallest, lexicographically least)
/// certificate SET as a bitmask over the u coordinates — what the
/// Section 5 REFINE procedure calls Cert(v, t, h).
std::uint32_t subcube_certificate_set(
    unsigned u, const std::function<std::uint32_t(std::uint32_t)>& colour,
    std::uint32_t r);

}  // namespace parbounds
