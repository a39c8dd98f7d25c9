#include "obs/telemetry.hpp"

#include <string>

namespace parbounds::obs {

namespace detail {
std::atomic<AnalysisObserver*> g_process_telemetry{nullptr};
}  // namespace detail

const char* trace_kind_token(ExecutionTrace::Kind k) {
  switch (k) {
    case ExecutionTrace::Kind::Qsm: return "qsm";
    case ExecutionTrace::Kind::SQsm: return "sqsm";
    case ExecutionTrace::Kind::Bsp: return "bsp";
    case ExecutionTrace::Kind::Gsm: return "gsm";
    case ExecutionTrace::Kind::QsmGd: return "qsm_gd";
  }
  return "?";
}

TelemetryObserver::TelemetryObserver(MetricsRegistry& reg) : reg_(&reg) {
  constexpr ExecutionTrace::Kind kKinds[] = {
      ExecutionTrace::Kind::Qsm, ExecutionTrace::Kind::SQsm,
      ExecutionTrace::Kind::Bsp, ExecutionTrace::Kind::Gsm,
      ExecutionTrace::Kind::QsmGd};
  for (const ExecutionTrace::Kind k : kKinds) {
    const std::string p = trace_kind_token(k);
    Family& f = fams_[static_cast<std::size_t>(k)];
    f.phases = reg.counter(p + ".phases");
    f.cost = reg.counter(p + ".cost");
    f.ops = reg.counter(p + ".ops");
    f.reads = reg.counter(p + ".reads");
    f.writes = reg.counter(p + ".writes");
    f.traffic = reg.counter(p + ".traffic");
    f.kappa_r_max = reg.gauge(p + ".kappa_r_max");
    f.kappa_w_max = reg.gauge(p + ".kappa_w_max");
    f.m_rw_max = reg.gauge(p + ".m_rw_max");
    f.phase_cost_hist =
        reg.histogram(p + ".phase_cost", MetricsRegistry::pow2_bounds(0, 24));
    f.kappa_hist =
        reg.histogram(p + ".kappa", MetricsRegistry::pow2_bounds(0, 16));
  }
}

void TelemetryObserver::on_phase_committed(const ExecutionTrace& t,
                                           std::size_t index) {
  const auto kind = static_cast<std::size_t>(t.kind);
  if (kind >= 5 || index >= t.phases.size()) return;
  const Family& f = fams_[kind];
  const PhaseTrace& ph = t.phases[index];
  const PhaseStats& s = ph.stats;

  reg_->add(f.phases);
  reg_->add(f.cost, ph.cost);
  reg_->add(f.ops, s.ops);
  reg_->add(f.reads, s.reads);
  reg_->add(f.writes, s.writes);
  // Gap-scaled traffic: for BSP the routed h-relation, otherwise every
  // read/write crosses the gap once.
  const std::uint64_t traffic = (t.kind == ExecutionTrace::Kind::Bsp)
                                    ? t.g * ph.h
                                    : t.g * (s.reads + s.writes);
  reg_->add(f.traffic, traffic);

  reg_->record_max(f.kappa_r_max, s.kappa_r);
  reg_->record_max(f.kappa_w_max, s.kappa_w);
  reg_->record_max(f.m_rw_max, s.m_rw);

  reg_->observe(f.phase_cost_hist, ph.cost);
  reg_->observe(f.kappa_hist, s.kappa());
}

void install_process_telemetry(AnalysisObserver* o) {
  detail::g_process_telemetry.store(o, std::memory_order_release);
}

}  // namespace parbounds::obs
