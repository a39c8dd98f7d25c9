#pragma once
// The end of a phase commit, shared by the engines: weighted local-op
// accounting, parallel read delivery into word inboxes, and publishing
// the committed phase to the trace and its observers. Each engine keeps
// only its cost rule, its write-resolution or delivery semantics and
// its detail-event recording.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/observer.hpp"
#include "core/phase_scan.hpp"
#include "core/storage.hpp"
#include "core/trace.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "runtime/parallel_for.hpp"

namespace parbounds::detail {

/// Weighted local-op accounting: m_op is the largest per-processor sum
/// of the (processor, ops) requests, ops their total. Sorts `locals` in
/// place.
inline void charge_local_ops(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& locals,
    PhaseStats& st) {
  const RunSum agg = sort_max_run_sum(locals);
  st.m_op = agg.max_run;
  st.ops = agg.total;
}

/// Deliver every read the start-of-phase contents of its cell (0 when
/// unset), appended to the reader's inbox in issue order. `readers` is
/// the scan that counted the reads' processor ids. With `parallel` and
/// every reader dense, shards partition *processors* into ranges: each
/// shard walks the whole read stream but appends only to its own
/// range's boxes, so each box still receives its values in issue order
/// and the delivered state equals the serial loop. `events`, when
/// non-null, records the reads (the serial loop only runs then).
template <class Read>
void deliver_word_reads(const std::vector<Read>& reads,
                        const CellStore<Word>& mem,
                        InboxTable<std::vector<Word>>& inboxes,
                        const PhaseScan& readers, bool parallel,
                        std::vector<MemEvent>* events) {
  inboxes.begin_phase();
  if (parallel && events == nullptr && readers.all_dense() &&
      inboxes.reserve_dense(readers.dense_extent())) {
    runtime::ParallelFor::pool().for_shards(
        readers.dense_extent(), kCommitShards,
        [&](unsigned s, std::uint64_t plo, std::uint64_t phi) {
          obs::Span span(obs::process_tracer(), "commit.shard", s);
          for (const Read& r : reads) {
            if (r.proc < plo || r.proc >= phi) continue;
            const Word* cell = mem.find(r.addr);
            inboxes.box(r.proc).push_back(cell ? *cell : 0);
          }
        });
    return;
  }
  for (const Read& r : reads) {
    const Word* cell = mem.find(r.addr);
    const Word v = (cell == nullptr) ? 0 : *cell;
    inboxes.box(r.proc).push_back(v);
    if (events != nullptr) events->push_back({r.proc, r.addr, v, false});
  }
}

/// Append a committed phase to `trace`, then fire the machine's observer
/// and the process telemetry hook. Returns the stored phase.
inline const PhaseTrace& publish_phase(ExecutionTrace& trace, PhaseTrace&& ph,
                                       AnalysisObserver* observer) {
  trace.phases.push_back(std::move(ph));
  const std::size_t index = trace.phases.size() - 1;
  if (observer != nullptr) observer->on_phase_committed(trace, index);
  obs::phase_hook(trace, index);
  return trace.phases.back();
}

}  // namespace parbounds::detail
