#pragma once
// The end of a phase commit, shared by the engines: weighted local-op
// accounting, read delivery into a flat word inbox, and publishing
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
#include "obs/telemetry.hpp"

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
/// unset) into `inbox`, grouped by reader in issue order. `events`, when
/// non-null, records the reads in issue order.
template <class Read>
void deliver_word_reads(const std::vector<Read>& reads,
                        const CellStore<Word>& mem, FlatInbox<Word>& inbox,
                        std::vector<MemEvent>* events) {
  const auto value = [&](std::uint64_t i) {
    const Word* cell = mem.find(reads[i].addr);
    return cell == nullptr ? Word{0} : *cell;
  };
  const auto reader = [&](std::uint64_t i) { return reads[i].proc; };
  inbox.index(reads.size(), reader);
  inbox.fill(reader, [&](std::uint64_t i, Word& slot) { slot = value(i); });
  if (events != nullptr)
    for (std::uint64_t i = 0; i < reads.size(); ++i)
      events->push_back({reads[i].proc, reads[i].addr, value(i), false});
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
