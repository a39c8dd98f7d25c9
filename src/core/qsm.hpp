#pragma once
// The Queuing Shared Memory machine (QSM / s-QSM / QRQW), Section 2.1.
//
// The machine is driven imperatively, one bulk-synchronous phase at a time:
//
//   QsmMachine m({.g = 4});
//   m.begin_phase();
//   m.read(p, a);            // processor p requests the contents of cell a
//   m.write(p, b, v);        // processor p writes v to cell b
//   m.local(p, c);           // processor p performs c local RAM operations
//   m.commit_phase();        // validate, charge cost, apply writes
//   ... m.inbox(p) ...       // values read by p, visible from NOW on
//
// Semantics enforced by the engine (all from Section 2.1):
//  * The value returned by a read is the cell's contents at the *start* of
//    the phase, and is delivered only at commit — a driver physically
//    cannot use it within the same phase.
//  * Concurrent reads or writes (but not both) to one location per phase;
//    a read+write mix at a location throws ModelViolation.
//  * Multiple writers to one location: an arbitrary write succeeds. The
//    engine resolves either LastQueued (deterministic) or Random (seeded).
//  * Phase cost = max(m_op, g*m_rw, kappa) under CostModel::Qsm, with the
//    s-QSM / concurrent-read variants in core/cost.hpp.
//
// Shared memory is sparse (unbounded address space, cells default to 0);
// `alloc` hands out disjoint regions so drivers never collide.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cost.hpp"
#include "core/observer.hpp"
#include "core/phase_scan.hpp"
#include "core/storage.hpp"
#include "core/trace.hpp"
#include "util/rng.hpp"

namespace parbounds {

/// Thrown when a driver violates the memory-access rules of the model.
class ModelViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

enum class WriteResolution : std::uint8_t { LastQueued, Random };

struct QsmConfig {
  std::uint64_t g = 1;                       ///< gap parameter
  std::uint64_t d = 1;                       ///< memory gap (QsmGd only)
  CostModel model = CostModel::Qsm;          ///< cost policy
  WriteResolution writes = WriteResolution::LastQueued;
  std::uint64_t seed = 1;                    ///< for Random write resolution
  bool record_detail = false;                ///< store MemEvents per phase
  /// Addresses below this live in the flat memory arena; higher ones in
  /// the sparse fallback map. 0 disables the arena (map-only reference
  /// path, used by the equivalence tests).
  std::uint64_t mem_dense_limit = CellStore<Word>::kDefaultDenseLimit;
};

class QsmMachine {
 public:
  explicit QsmMachine(QsmConfig cfg = {});

  // ----- memory layout ------------------------------------------------
  /// Reserve a region of `n` fresh cells; returns its base address.
  Addr alloc(std::uint64_t n);

  /// Bulk-store values (no cost charged: models assume the input is
  /// already resident in shared memory at time 0).
  void preload(Addr base, std::span<const Word> values);
  void preload(Addr addr, Word value);

  // ----- phase protocol -------------------------------------------------
  void begin_phase();
  void read(ProcId p, Addr a);
  void write(ProcId p, Addr a, Word v);
  void local(ProcId p, std::uint64_t ops = 1);
  /// Validate the phase, charge its cost, apply writes, deliver reads.
  const PhaseTrace& commit_phase();

  /// Values delivered to processor p by its reads in the last committed
  /// phase, in the order the reads were issued.
  std::span<const Word> inbox(ProcId p) const;

  // ----- accounting -----------------------------------------------------
  std::uint64_t time() const { return time_; }
  std::uint64_t phases() const { return trace_.phases.size(); }
  const ExecutionTrace& trace() const { return trace_; }
  const QsmConfig& config() const { return cfg_; }

  /// Out-of-band inspection for tests and result extraction (not charged).
  Word peek(Addr a) const;

  /// Optional analysis hook, invoked after every commit_phase. Pass
  /// nullptr to detach. The observer must outlive the machine's use.
  void set_observer(AnalysisObserver* obs) { observer_ = obs; }

 private:
  struct ReadReq {
    ProcId proc;
    Addr addr;
  };
  struct WriteReq {
    ProcId proc;
    Addr addr;
    Word value;
  };

  QsmConfig cfg_;
  Rng rng_;
  CellStore<Word> mem_;
  Addr next_base_ = 0;
  bool in_phase_ = false;
  std::uint64_t time_ = 0;
  ExecutionTrace trace_;
  AnalysisObserver* observer_ = nullptr;

  std::vector<ReadReq> reads_;
  std::vector<WriteReq> writes_;
  std::vector<std::pair<ProcId, std::uint64_t>> locals_;
  FlatInbox<Word> inboxes_;

  // Reusable accounting scratch for commit_phase (counters and buffer
  // capacity persist across phases; a steady-state commit performs no
  // allocation).
  detail::KeyHistogram proc_{detail::kProcHistogramLimit};
  detail::KeyHistogram raddr_{detail::kAddrHistogramLimit};
  detail::KeyHistogram waddr_{detail::kAddrHistogramLimit};
  std::vector<std::pair<Addr, std::uint32_t>> wgroup_scratch_;
};

}  // namespace parbounds
