#pragma once
// TelemetryObserver — per-phase model-cost metrics, plus the
// process-global hook the engines fire through.
//
// TelemetryObserver implements AnalysisObserver (the same seam parlint
// uses for inline analysis) and folds every committed phase into a
// MetricsRegistry: per machine kind it keeps counters (phases, cost,
// ops, reads, writes, gap-scaled traffic), high-water gauges (kappa_r,
// kappa_w, m_rw — the queue depths of Section 2.1), and pow2 histograms
// (phase cost, kappa). Everything it records derives from model
// quantities, so the resulting snapshot is bit-identical at any --jobs
// (docs/OBSERVABILITY.md).
//
// The per-machine set_observer slot stays available to parlint; process
// telemetry rides a separate global hook. Engines call phase_hook()
// after each commit: one atomic load and a predicted-not-taken branch
// when nothing is installed — the null-sink fast path the overhead
// guard (bench_obs_overhead) holds to <= 1.05x.

#include <atomic>
#include <cstddef>

#include "core/observer.hpp"
#include "core/trace.hpp"
#include "obs/metrics.hpp"

namespace parbounds::obs {

/// Short token per ExecutionTrace kind ("qsm", "sqsm", "bsp", "gsm",
/// "qsm_gd") — metric-name prefix and trace category. Note the CRCW
/// engine records Kind::Qsm, so its phases land in the "qsm" family.
const char* trace_kind_token(ExecutionTrace::Kind k);

class TelemetryObserver final : public AnalysisObserver {
 public:
  /// Registers all metric families up front (freezing-safe: nothing is
  /// added to `reg` after construction).
  explicit TelemetryObserver(MetricsRegistry& reg);

  void on_phase_committed(const ExecutionTrace& t,
                          std::size_t index) override;

 private:
  struct Family {
    MetricsRegistry::Id phases, cost, ops, reads, writes, traffic;
    MetricsRegistry::Id kappa_r_max, kappa_w_max, m_rw_max;
    MetricsRegistry::Id phase_cost_hist, kappa_hist;
  };

  MetricsRegistry* reg_;
  Family fams_[5];  // indexed by ExecutionTrace::Kind
};

namespace detail {
extern std::atomic<AnalysisObserver*> g_process_telemetry;
}  // namespace detail

/// Install (or, with nullptr, detach) the process-wide telemetry sink.
/// Install after the observer is fully constructed and detach before it
/// dies; engines on other threads may fire the hook at any moment.
void install_process_telemetry(AnalysisObserver* o);

/// The engines' per-commit hook. Detached cost: one relaxed-ish atomic
/// load plus an untaken branch.
inline void phase_hook(const ExecutionTrace& t, std::size_t index) {
  AnalysisObserver* o =
      detail::g_process_telemetry.load(std::memory_order_acquire);
  if (o != nullptr) [[unlikely]]
    o->on_phase_committed(t, index);
}

}  // namespace parbounds::obs
