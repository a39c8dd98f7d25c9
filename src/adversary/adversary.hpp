#pragma once
// The Random Adversary (Sections 4 and 5), executable.
//
// RandomAdversary walks a deterministic GSM algorithm phase by phase. At
// each phase it analyzes the algorithm over all refinements of the
// current partial input map (TraceAnalysis) and executes the Section 5
// REFINE procedure:
//
//   lines (4)-(10):  repeatedly pick MaxProc — the processor with the
//                    largest possible read/write count this phase — take
//                    the lexicographically least refinement h achieving
//                    it, RANDOMSET the inputs of Cert(p, t, h), and stop
//                    once the drawn values match h (the processor is then
//                    FORCED to perform that many accesses);
//   lines (12)-(21): the same for MaxCell and the processors that can
//                    access it (capped at mu*loglog n of them);
//   line (23):       return the refined map and the big-step lower bound
//                    x = max(ceil(rw/alpha), ceil(contention/beta)).
//
// GENERATE (Section 4.3) chains REFINE until the time horizon and then
// RANDOMSETs everything left; because every input is fixed through
// RANDOMSET, the final map is distributed exactly per D (Fact 4.1 /
// Lemma 4.1 — statistically tested).
//
// An analysis is a pure function of (algorithm, config, map), so REFINE
// keeps the analysis of the map it analyzed last and reuses it while the
// map is unchanged: each map GENERATE passes through is analyzed once.
//
// The analyzer enumerates all refinements, so instances must be small
// (<= 14 unset inputs). That is enough to run the machinery for real and
// check every invariant exactly; the paper's asymptotic envelopes are
// evaluated by adversary/goodness.hpp.

#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/input_map.hpp"
#include "adversary/trace_analysis.hpp"
#include "util/rng.hpp"

namespace parbounds {

struct RefineOutcome {
  PartialInputMap f;           ///< refined partial input map
  std::uint64_t x = 0;         ///< big-step lower bound for the phase
  std::uint64_t forced_rw = 0;        ///< MaxCountRW actually forced
  std::uint64_t forced_contention = 0;  ///< MaxContention actually forced
  std::uint64_t randomset_calls = 0;
  std::uint64_t inputs_fixed = 0;  ///< inputs newly set by this call
  bool success = true;  ///< stayed within the n^(2/3) RANDOMSET budget

  RefineOutcome() : f(0) {}
};

struct GenerateResult {
  PartialInputMap final_map;   ///< complete map, distributed per D
  std::vector<RefineOutcome> steps;
  std::uint64_t total_big_steps = 0;
  std::uint64_t total_inputs_fixed_early = 0;  ///< fixed before the tail

  GenerateResult() : final_map(0) {}
};

class RandomAdversary {
 public:
  RandomAdversary(GsmAlgorithm algo, GsmConfig cfg, unsigned n_inputs,
                  BitDistribution D, std::uint64_t seed);

  /// One REFINE(t, f) step: t is the phase about to execute (1-based
  /// actions of phase t, certificates on traces at phase t-1).
  RefineOutcome refine(unsigned t, const PartialInputMap& f);

  /// GENERATE with horizon T in big-steps.
  GenerateResult generate(std::uint64_t T);

  /// The analysis of the algorithm under the current map (for invariant
  /// checks by callers); built afresh on every call.
  TraceAnalysis analyze(const PartialInputMap& f) const;

 private:
  /// The analysis of f: the last one when f is the map it was built for.
  /// Shared, so a caller's handle outlives the next replacement.
  std::shared_ptr<const TraceAnalysis> analysis_of(const PartialInputMap& f);

  GsmAlgorithm algo_;
  GsmConfig cfg_;
  unsigned n_inputs_;
  BitDistribution D_;
  mutable Rng rng_;
  PartialInputMap last_map_;
  std::shared_ptr<const TraceAnalysis> last_;
};

}  // namespace parbounds
