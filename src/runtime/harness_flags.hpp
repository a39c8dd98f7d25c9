#pragma once
// Harness flag parsing, extracted from bench/harness.hpp so it is unit
// testable (test_bench_json covers it).
//
// Every bench binary accepts:
//
//   --jobs N        worker threads (0 = hardware concurrency); N must
//                   be a non-negative integer that fits `unsigned`
//   --threads N     intra-trial pool size (ParallelFor); defaults to
//                   the resolved --jobs value. N must be >= 1: unlike
//                   --jobs there is no "auto" spelling, so --threads 0
//                   is rejected rather than silently remapped.
//   --json [PATH]   parbounds-bench-v2 report, plus its ops file at
//                   PATH with .json replaced by .ops.json; bare --json
//                   uses the caller's default path
//   --trace [PATH]  Chrome trace-event span export; bare --trace uses
//                   the caller's default path
//   --workers N     execute sweeps across N fleet worker PROCESSES
//                   (docs/SERVICE.md#fleet); the merged report stays
//                   byte-identical to an in-process run. N must be
//                   >= 1: there is no "auto" fleet width, so
//                   --workers 0 is rejected rather than remapped.
//   --cache-dir P   the fleet's shared content-addressed cell cache
//                   directory (default: no cache)
//   --cache-bytes N that cache's size bound (default: library default)
//
// The last two only mean something with --workers: either of them
// without it is a typed error, as is a zero --cache-bytes.
//
// Every token must be one of these flags or the value of one: anything
// else — a typo, a positional token — is rejected with a did-you-mean
// hint naming the flag that contains the token's name (`--worker`,
// `--cache`) or else the nearest one by edit distance. A silently
// dropped flag would run the sweep some other way (in-process instead
// of on the fleet, without the cache) and look like it worked. A bare
// --json/--trace followed by another `--flag` takes the default path;
// a following token that begins with a single '-' (e.g. `--json
// -out.json`) is rejected with a pointer at the unambiguous
// `--json=-out.json` spelling.

#include <cstdint>
#include <string>
#include <string_view>

namespace parbounds::runtime {

struct HarnessFlags {
  unsigned jobs = 0;        ///< 0 = hardware concurrency
  unsigned threads = 0;     ///< intra-trial pool size; 0 = follow jobs
  bool threads_set = false; ///< --threads given explicitly
  std::string json_path;    ///< empty = no JSON report
  std::string trace_path;   ///< empty = no span trace
  std::string cache_dir;    ///< fleet cell cache dir; empty = no cache
  std::uint64_t cache_bytes = 0;  ///< fleet cache bound; 0 = default
  unsigned workers = 0;     ///< fleet worker processes; 0 = fleet off
  bool error = false;
  std::string error_message;

  /// The intra-trial pool size after applying the default: an explicit
  /// --threads wins, otherwise the resolved --jobs value.
  unsigned resolved_threads(unsigned resolved_jobs) const {
    return threads_set ? threads : resolved_jobs;
  }
};

/// Parse the harness flags in argv and strip them (argc becomes 1). On
/// error, `error` is set and `error_message` names the offending token
/// (callers should exit).
HarnessFlags parse_harness_flags(int& argc, char** argv,
                                 const std::string& default_json_path,
                                 const std::string& default_trace_path);

/// Parse all of `text` as a non-negative decimal integer no larger than
/// `max`: digits only, so a sign, a space, a trailing unit or an empty
/// value is rejected instead of read as some other number. Returns false
/// (and leaves `out` alone) on any such input.
bool parse_count(std::string_view text, std::uint64_t max, std::uint64_t& out);

/// Strip every `FLAG=X` token from argv and return the last X, or
/// `fallback` when there is none; a bench calls this for each of its gate
/// floors (`--min-*-speedup`, `--max-overhead`) before the harness parses
/// what is left. All of X must be a finite positive decimal number: a
/// bare FLAG, or an X such as `abc`, `1.5x`, `0` or `inf`, prints a
/// message naming the flag and exits 2, like a malformed harness flag.
double take_floor_flag(int& argc, char** argv, std::string_view flag,
                       double fallback);

/// Plain Levenshtein distance — small strings, tiny table. Shared by
/// every did-you-mean rejection (unknown harness flags here,
/// PARBOUNDS_SIMD values in simd_level.cpp).
std::size_t edit_distance(const std::string& a, const std::string& b);

}  // namespace parbounds::runtime
