#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace obs = parbounds::obs;

const char* span_name(const std::string& name) {
  static std::mutex mu;
  static std::deque<std::string> names;  // deque: element addresses are stable
  const std::lock_guard<std::mutex> lock(mu);
  for (const auto& n : names)
    if (n == name) return n.c_str();
  names.push_back(name);
  return names.back().c_str();
}

SpanTable span_table(const obs::Tracer& tracer) {
  struct Open {
    const obs::SpanEvent* begin;
    std::uint64_t child_ns;
  };
  SpanTable table;
  for (const auto& buf : tracer.buffers()) {
    std::vector<Open> stack;
    for (std::size_t i = 0; i < buf.count; ++i) {
      const obs::SpanEvent& e = buf.events[i];
      if (e.phase == 'B') {
        stack.push_back({&e, 0});
        continue;
      }
      if (stack.empty()) continue;
      const Open open = stack.back();
      stack.pop_back();
      const std::uint64_t d = e.ts_ns - open.begin->ts_ns;
      SpanStat& s = table[open.begin->name];
      ++s.count;
      s.total_s += static_cast<double>(d) * 1e-9;
      s.self_s += static_cast<double>(d - std::min(d, open.child_ns)) * 1e-9;
      s.max_s = std::max(s.max_s, static_cast<double>(d) * 1e-9);
      if (!stack.empty()) stack.back().child_ns += d;
    }
  }
  return table;
}

std::string span_table_text(const SpanTable& table) {
  std::vector<std::pair<std::string, SpanStat>> rows(table.begin(),
                                                     table.end());
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_s > b.second.total_s;
  });
  std::string out =
      "span                                    count      total_s       "
      "self_s        max_s\n";
  for (const auto& [name, s] : rows) {
    char line[256];
    std::snprintf(line, sizeof line, "%-36s %9llu %12.6f %12.6f %12.6f\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_s, s.self_s, s.max_s);
    out += line;
  }
  return out;
}

SpanStat span_sum(const SpanTable& table, const std::string& prefix) {
  SpanStat sum;
  for (const auto& [name, s] : table) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    sum.count += s.count;
    sum.total_s += s.total_s;
    sum.self_s += s.self_s;
    sum.max_s = std::max(sum.max_s, s.max_s);
  }
  return sum;
}

const std::vector<LayerMetric>& layer_catalogue() {
  static const std::vector<LayerMetric> kCatalogue = [] {
    std::vector<LayerMetric> c = {
        {"runtime.trials", "count"},
        {"runtime.trial_busy_s", "s"},
        {"runtime.straggler_s", "s"},
        {"runtime.idle_s", "s"},
    };
    for (const char* w :
         {"parity_circuit", "parity_tree", "or_fanin", "or_rand_cr",
          "lac_prefix", "lac_dart", "broadcast", "parity_bsp", "or_bsp",
          "lac_bsp"}) {
      c.push_back({span_name(std::string("algos.") + w + ".calls"), "count"});
      c.push_back({span_name(std::string("algos.") + w + ".busy_s"), "s"});
    }
    for (const char* k : {"qsm", "sqsm", "bsp", "gsm"}) {
      c.push_back({span_name(std::string("core.") + k + ".phases"), "count"});
      c.push_back({span_name(std::string("core.") + k + ".requests"), "count"});
      c.push_back(
          {span_name(std::string("core.") + k + ".ns_per_request"), "ns"});
    }
    const std::vector<LayerMetric> rest = {
        {"core.commit.shards", "count"},
        {"core.commit.shard_s", "s"},
        {"boolfn.degree.calls", "count"},
        {"boolfn.degree.busy_s", "s"},
        {"boolfn.degree.ns_per_entry", "ns"},
        {"adversary.trace_analysis.calls", "count"},
        {"adversary.trace_analysis.busy_s", "s"},
        {"adversary.trace_analysis.refinements", "count"},
        {"adversary.recurrence.busy_s", "s"},
        {"adversary.generate.calls", "count"},
        {"adversary.generate.busy_s", "s"},
        {"adversary.generate.randomset_calls", "count"},
        {"sweep_service.cache.hit", "count"},
        {"sweep_service.cache.miss", "count"},
        {"sweep_service.cache.evict", "count"},
        {"sweep_service.cache.corrupt", "count"},
        {"sweep_service.cache.hit_ratio", "ratio"},
        {"sweep_service.exec", "count"},
        {"sweep_service.queue.shed", "count"},
        {"sweep_service.queue.depth", "count"},
        {"sweep_service.hit_p50_ms", "ms"},
        {"sweep_service.miss_p50_ms", "ms"},
        {"sweep_service.admit_s", "s"},
        {"sweep_service.run_s", "s"},
        {"sweep_service.commit_s", "s"},
        {"sweep_service.start_s", "s"},
        {"fleet.spawn_s", "s"},
        {"fleet.run_s", "s"},
        {"fleet.us_per_cell", "us"},
        {"fleet.bytes_tx", "bytes"},
        {"fleet.bytes_rx", "bytes"},
        {"fleet.frames_tx", "count"},
        {"fleet.frames_rx", "count"},
        {"fleet.bytes_per_cell", "bytes"},
        {"fleet.window.depth", "count"},
        {"fleet.compute_share", "ratio"},
        {"fleet.worker.retry", "count"},
        {"fleet.worker.exit", "count"},
        {"fleet.worker.reassign", "count"},
        {"obs.trace_overhead", "ratio"},
        {"obs.spans_dropped", "count"},
    };
    c.insert(c.end(), rest.begin(), rest.end());
    return c;
  }();
  return kCatalogue;
}

LayerMetrics::LayerMetrics() {
  for (const LayerMetric& m : layer_catalogue()) values_.push_back({m, 0.0});
}

void LayerMetrics::set(const std::string& name, double value) {
  for (auto& [m, v] : values_) {
    if (name == m.name) {
      v = value;
      return;
    }
  }
  throw std::logic_error("perfbench: per-layer metric '" + name +
                         "' is not in the catalogue");
}

double LayerMetrics::get(const std::string& name) const {
  for (const auto& [m, v] : values_)
    if (name == m.name) return v;
  throw std::logic_error("perfbench: per-layer metric '" + name +
                         "' is not in the catalogue");
}

std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  return m == nullptr ? 0 : m->value;
}

const char* kernel_span(const std::string& engine,
                        const std::string& workload) {
  // qsm-crfree, erew and crcw-like are cost policies of the QSM engine.
  const char* kind = engine == "bsp" ? "bsp" : engine == "sqsm" ? "sqsm" : "qsm";
  return span_name("algos." + workload + "[" + kind + "]");
}

void set_kernel_layers(const TracedRun& run, LayerMetrics& out) {
  const double passes = run.passes;
  std::map<std::string, double> kind_busy;
  for (const auto& [name, s] : *run.spans) {
    const auto open = name.find('[');
    if (name.rfind("algos.", 0) != 0 || open == std::string::npos) continue;
    const std::string w = "algos." + name.substr(6, open - 6);
    out.set(w + ".calls", out.get(w + ".calls") + s.count / passes);
    out.set(w + ".busy_s", out.get(w + ".busy_s") + s.total_s / passes);
    kind_busy[name.substr(open + 1, name.size() - open - 2)] += s.total_s;
  }
  for (const std::string k : {"qsm", "sqsm", "bsp"}) {
    const double requests =
        static_cast<double>(counter(run.telemetry, k + ".reads") +
                            counter(run.telemetry, k + ".writes"));
    out.set("core." + k + ".phases",
            static_cast<double>(counter(run.telemetry, k + ".phases")) / passes);
    out.set("core." + k + ".requests", requests / passes);
    out.set("core." + k + ".ns_per_request",
            requests > 0 ? kind_busy[k] * 1e9 / requests : 0.0);
  }
  std::uint64_t shards = 0;
  for (const std::string k : {"qsm", "sqsm", "bsp", "gsm", "qsm_gd"})
    shards += counter(run.telemetry, k + ".commit.shards");
  out.set("core.commit.shards", static_cast<double>(shards) / passes);
  out.set("core.commit.shard_s",
          span_sum(*run.spans, "commit.shard").total_s / passes);
}

void set_runtime_layers(const TracedRun& run, unsigned jobs,
                        LayerMetrics& out) {
  const double passes = run.passes;
  const SpanStat trials = span_sum(*run.spans, "runner.trial");
  out.set("runtime.trials", static_cast<double>(trials.count) / passes);
  out.set("runtime.trial_busy_s", trials.total_s / passes);
  out.set("runtime.straggler_s", trials.max_s);
  out.set("runtime.idle_s", (jobs * run.wall_s - trials.total_s) / passes);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail_percentile(std::size_t n) {
  if (n <= 20) return 50.0;
  const double p = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n)));
  return std::max(50.0, std::min(99.0, p));
}

namespace {

/// VmHWM of one process in KiB (0 when unreadable).
std::uint64_t vm_hwm_kib(const std::string& pid) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      std::uint64_t kib = 0;
      in >> kib;
      return kib;
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mb() {
  rusage self{};
  rusage kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  // Live children (fleet workers) are summed; reaped ones only expose the
  // largest, which is what RUSAGE_CHILDREN reports.
  std::uint64_t live_kib = 0;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream f(task.path() / "children");
    std::string pid;
    while (f >> pid) live_kib += vm_hwm_kib(pid);
  }
  const auto kib = static_cast<std::uint64_t>(self.ru_maxrss) +
                   std::max<std::uint64_t>(
                       live_kib, static_cast<std::uint64_t>(kids.ru_maxrss));
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace perfbench
