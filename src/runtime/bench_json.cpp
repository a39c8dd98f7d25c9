#include "runtime/bench_json.hpp"

#include <cstdio>
#include <thread>

#include "runtime/simd_level.hpp"

#ifndef PARBOUNDS_BUILD_TYPE
#define PARBOUNDS_BUILD_TYPE "unknown"
#endif

namespace parbounds::runtime {

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_array(std::string& out, const std::vector<double>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += num(xs[i]);
  }
  out += ']';
}

void append_cell(std::string& out, const CellResult& c) {
  out += "{\"key\":\"" + json_escape(c.key) + "\"";
  out += ",\"trials\":" + std::to_string(c.costs.size());
  out += ",\"lb\":" + num(c.lb);
  out += ",\"ub\":" + num(c.ub);
  out += ",\"mean\":" + num(c.mean);
  out += ",\"p50\":" + num(c.p50);
  out += ",\"p99\":" + num(c.p99);
  out += ",\"costs\":";
  append_array(out, c.costs);
  if (!c.values.empty()) {
    // Named per-trial values, only for cells that report them, so
    // cost-only reports keep their bytes.
    out += ",\"values\":{";
    for (std::size_t i = 0; i < c.values.size(); ++i) {
      if (i > 0) out += ',';
      out += "\"" + json_escape(c.values[i].first) + "\":";
      append_array(out, c.values[i].second);
    }
    out += '}';
  }
  out += '}';
}

void append_sweep(std::string& out, const SweepResult& s) {
  out += "{\"title\":\"" + json_escape(s.title) + "\"";
  out += ",\"base_seed\":" + std::to_string(s.base_seed);
  out += ",\"cells\":[";
  for (std::size_t i = 0; i < s.cells.size(); ++i) {
    if (i > 0) out += ',';
    append_cell(out, s.cells[i]);
  }
  out += "]}";
}

}  // namespace

std::string host_json() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string out;
  out += "{\"hardware_concurrency\":" +
         // DETLINT(det.hw-concurrency): provenance record in bench JSON only
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"build_type\":\"" + json_escape(PARBOUNDS_BUILD_TYPE) + "\"";
  out += ",\"compiler\":\"" + json_escape(compiler) + "\"";
  // Which kernel tier produced the wall numbers, and what the cpu could
  // have run — an ops-file speedup is meaningless without both
  // (docs/PERF.md, "SIMD kernel dispatch").
  out += ",\"dispatch\":\"";
  out += simd_level_name(active_simd_level());
  out += "\",\"cpu_features\":\"" + json_escape(cpu_feature_flags()) + "\"}";
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string to_json(const BenchReport& report, bool) {
  std::string out;
  out += "{\"schema\":\"parbounds-bench-v2\"";
  out += ",\"bench\":\"" + json_escape(report.bench) + "\"";
  out += ",\"seed\":" + std::to_string(report.seed);
  if (!report.metrics_json.empty()) out += ",\"metrics\":" + report.metrics_json;
  out += ",\"sweeps\":[";
  for (std::size_t i = 0; i < report.sweeps.size(); ++i) {
    if (i > 0) out += ',';
    append_sweep(out, report.sweeps[i]);
  }
  out += "]}\n";
  return out;
}

std::string ops_json(const BenchReport& report) {
  std::string out;
  out += "{\"schema\":\"parbounds-ops-v1\"";
  out += ",\"bench\":\"" + json_escape(report.bench) + "\"";
  out += ",\"jobs\":" + std::to_string(report.jobs);
  out += ",\"threads\":" + std::to_string(report.threads);
  out += ",\"workers\":" + std::to_string(report.workers);
  out += ",\"host\":" + host_json();
  double wall = 0.0;
  for (const auto& s : report.sweeps) wall += s.wall_ms;
  out += ",\"wall_ms\":" + num(wall);
  out += ",\"sweeps\":[";
  for (std::size_t i = 0; i < report.sweeps.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"title\":\"" + json_escape(report.sweeps[i].title) + "\"";
    out += ",\"wall_ms\":" + num(report.sweeps[i].wall_ms) + "}";
  }
  out += "],\"ratios\":{";
  for (std::size_t i = 0; i < report.ratios.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += json_escape(report.ratios[i].first);
    out += "\":" + num(report.ratios[i].second);
  }
  out += "}}\n";
  return out;
}

std::string ops_path(const std::string& json_path) {
  std::string stem = json_path;
  if (stem.ends_with(".json")) stem.resize(stem.size() - 5);
  return stem + ".ops.json";
}

}  // namespace parbounds::runtime
