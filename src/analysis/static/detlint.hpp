#pragma once
// detlint: source-level determinism lint for the parbounds tree.
//
// Every number this reproduction reports rests on source discipline
// the engines cannot check at runtime: shard boundaries must be pure
// functions of n, merges must be commutative exact-integer ops, and
// wall-clock/RNG must never leak into committed state or the metrics
// block (commit timing lives in spans only — docs/PERF.md).
// parlint (analysis/parlint.hpp) certifies execution traces after the
// fact; detlint closes the gap *before* execution by scanning the
// sources themselves. The rules are lexical (analysis/static/
// source_scan.hpp), reuse parlint's Finding/Report types, and feed the
// same JSONL and SARIF exporters.
//
// Rule catalogue (stable ids; docs/ANALYSIS.md "Static tier"):
//
//   det.wall-clock     chrono clock reads outside the telemetry layer
//                      (src/obs/) and the bench harnesses
//   det.rng            nondeterministic RNG (rand/random_device/...)
//                      outside the src/util seed plumbing
//   det.hw-concurrency machine-shape reads (hardware_concurrency &c.)
//                      that could leak into shard boundaries
//   det.unordered-iter iteration over unordered_{map,set} — order is
//                      unspecified, so anything it feeds must be
//                      order-independent or sorted (annotate why)
//   det.float-accum    float/double inside commit/merge/shard
//                      functions — merged quantities must be exact
//                      integers combined commutatively
//   det.atomic-order   atomic load/store/RMW without an explicit
//                      memory_order in any scanned file
//   det.bad-suppression    malformed DETLINT(...) note
//   det.unused-suppression (warning) note that absorbed no finding
//
// Suppression syntax: `// DETLINT(rule.id): reason` on the finding's
// line or the line directly above. The reason is mandatory; unknown
// rule ids and unused notes are themselves findings, so annotations
// cannot rot silently. Grandfathered findings live in a checked-in
// baseline (.detlint-baseline) of `rule path count` lines.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/finding.hpp"
#include "analysis/static/source_scan.hpp"

namespace parbounds::analysis::det {

struct DetRule {
  std::string id;
  Severity severity;
  std::string summary;
};

/// The rule registry, in a fixed order. Ids are stable.
const std::vector<DetRule>& rule_registry();
bool known_rule(std::string_view id);

/// Run every rule over one scanned file: raw findings are collected,
/// DETLINT suppressions absorb their matches (and are marked used),
/// then bad/unused-suppression findings are appended. Output is
/// sorted by (line, rule, message) so reports are byte-deterministic.
Report lint_file(ScannedFile& f);

/// Grandfathered findings: each entry allows up to `count` findings of
/// `rule` in `path`. Parsed from `rule path count` lines; '#' starts a
/// comment.
struct Baseline {
  std::map<std::pair<std::string, std::string>, std::uint64_t> allow;
  std::vector<std::string> errors;  ///< malformed lines, with line numbers

  static Baseline parse(std::string_view text);
};

struct BaselineOutcome {
  std::size_t absorbed = 0;         ///< findings removed by the baseline
  std::vector<std::string> stale;   ///< entries whose allowance went unused
};

/// Remove up to the allowed count of findings per (rule, file) from
/// `r`, preserving order, and report unused allowances so the baseline
/// can only shrink over time.
BaselineOutcome apply_baseline(Report& r, const Baseline& b);

}  // namespace parbounds::analysis::det
