#include "runtime/harness_flags.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

namespace parbounds::runtime {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

namespace {

/// Every flag the harness accepts, in did-you-mean preference order.
const char* const kFlags[] = {"--jobs",      "--threads",   "--json",
                              "--trace",     "--cache-dir", "--cache-bytes",
                              "--workers",   "--fleet-window"};

/// Reject a token no branch of the parser recognised, naming the flag
/// it most likely meant: the first flag that contains the token's name
/// (`--worker`, `--window`), else the nearest by edit distance.
void reject_unknown(const std::string& arg, HarnessFlags& out) {
  const std::string name = arg.substr(0, arg.find('='));
  const std::string bare =
      name.substr(std::min(name.find_first_not_of('-'), name.size()));
  const char* best = nullptr;
  for (const char* flag : kFlags)
    if (!bare.empty() && std::string(flag).find(bare) != std::string::npos) {
      best = flag;
      break;
    }
  if (best == nullptr) {
    std::size_t best_dist = std::string::npos;
    for (const char* flag : kFlags) {
      const std::size_t d = edit_distance("--" + bare, flag);
      if (d < best_dist) {
        best = flag;
        best_dist = d;
      }
    }
  }
  out.error = true;
  out.error_message =
      "unknown argument '" + name + "'; did you mean '" + best + "'?";
}

/// Parse a positive integer flag value into `dst`. None of these flags
/// has an "auto" spelling — the default is spelled by omitting the
/// flag — so a literal 0 is always a mistake; `why` says what to do.
template <class T>
void set_positive(const std::string& flag, const char* text, const char* why,
                  T& dst, HarnessFlags& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || v == 0) {
    out.error = true;
    out.error_message = flag + " " + text + ": " + why;
    return;
  }
  dst = static_cast<T>(v);
}

/// Resolve the optional path after a bare --json/--trace at argv[i].
/// Consumes argv[i + 1] when it is a plain path; keeps the default when
/// the next token is another `--flag`; flags an error on a single-dash
/// token, which the old parser silently swallowed as "no path".
void optional_path(const std::string& flag, int& i, int argc, char** argv,
                   std::string& path, HarnessFlags& out) {
  if (i + 1 >= argc) return;
  const std::string next = argv[i + 1];
  if (next.empty() || next[0] != '-') {
    path = argv[++i];
    return;
  }
  if (next.size() >= 2 && next[1] == '-') return;  // another flag
  out.error = true;
  out.error_message = flag + " " + next +
                      ": ambiguous path beginning with '-'; use " + flag +
                      "=" + next + " to force it";
}

}  // namespace

HarnessFlags parse_harness_flags(int& argc, char** argv,
                                 const std::string& default_json_path,
                                 const std::string& default_trace_path) {
  HarnessFlags out;
  // Flags that take a value, spelled `--flag V` or `--flag=V`.
  const std::pair<const char*, std::function<void(const char*)>> valued[] = {
      {"--jobs",
       [&](const char* v) {
         out.jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
       }},
      {"--threads",
       [&](const char* v) {
         set_positive("--threads", v,
                      "pool size must be a positive integer "
                      "(omit --threads to follow --jobs)",
                      out.threads, out);
         out.threads_set = !out.error;
       }},
      {"--cache-dir", [&](const char* v) { out.cache_dir = v; }},
      {"--cache-bytes",
       [&](const char* v) {
         set_positive("--cache-bytes", v,
                      "size bound must be a positive byte count",
                      out.cache_bytes, out);
       }},
      {"--workers",
       [&](const char* v) {
         set_positive("--workers", v,
                      "fleet width must be a positive integer "
                      "(omit --workers for in-process execution)",
                      out.workers, out);
       }},
      {"--fleet-window",
       [&](const char* v) {
         set_positive("--fleet-window", v,
                      "credit window must be a positive integer "
                      "(omit --fleet-window for the default of 8)",
                      out.fleet_window, out);
       }},
  };
  for (int i = 1; i < argc && !out.error; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    if (name == "--json" || name == "--trace") {
      const bool json = name == "--json";
      std::string& path = json ? out.json_path : out.trace_path;
      if (eq != std::string::npos) {
        path = arg.substr(eq + 1);
      } else {
        path = json ? default_json_path : default_trace_path;
        optional_path(name, i, argc, argv, path, out);
      }
    } else {
      const auto* flag =
          std::find_if(std::begin(valued), std::end(valued),
                       [&](const auto& f) { return name == f.first; });
      if (flag == std::end(valued)) {
        reject_unknown(arg, out);
      } else if (eq != std::string::npos) {
        flag->second(argv[i] + eq + 1);
      } else if (i + 1 < argc) {
        flag->second(argv[++i]);
      } else {
        out.error = true;
        out.error_message = name + " requires a value";
      }
    }
  }
  if (!out.error && out.workers == 0) {
    // Each of these configures the fleet; without one it would be
    // silently ignored.
    const char* orphan = out.fleet_window > 0     ? "--fleet-window"
                         : !out.cache_dir.empty() ? "--cache-dir"
                         : out.cache_bytes > 0    ? "--cache-bytes"
                                                  : nullptr;
    if (orphan != nullptr) {
      out.error = true;
      out.error_message = std::string(orphan) +
                          " without --workers: it configures the fleet "
                          "worker processes (add --workers N)";
    }
  }
  argc = 1;  // every token was consumed (or the parse failed)
  return out;
}

}  // namespace parbounds::runtime
