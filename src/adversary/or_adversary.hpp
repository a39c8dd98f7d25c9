#pragma once
// The modified Random Adversary for OR (Section 7).
//
// Instead of fixing inputs, the adversary restricts a FAMILY of input
// maps: the distribution D puts probability 1/2 on the all-zeros input
// and probability 2/log*_(mu+1)(n/gamma) on each family H_i, where H_i
// sets each cell-group of gamma inputs to all-ones with probability
// 1/d_i (d_0 a (3/4 log*)-times iterated log, d_(i+1) a double tower —
// adversary/goodness.hpp computes the sequence).
//
// REFINE(t, F) follows the paper's pseudocode: if some processor could
// read/write >= alpha * d_t^(d_t+2) * log* cells (or some cell could be
// hit by the corresponding beta threshold), RANDOMFIX the whole input —
// the expected cost of the step is then Omega(log*) big-steps (Lemma
// 7.5). Otherwise RANDOMRESTRICT against H_t: with H_t's conditional
// probability the input is drawn from H_t and fixed; otherwise H_t is
// removed from the family and the phase costs one big-step (Lemma 7.2's
// envelope then keeps every Know/Aff set below d_(t+1)).
//
// or_success_experiment estimates the Theorem 7.1 trade-off empirically:
// it runs a fan-in-k GSM OR tree truncated at a phase budget against
// samples of D and reports the success probability.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/trace_analysis.hpp"
#include "algos/gsm_algos.hpp"  // gsm_or_tree, the experiment's subject
#include "core/gsm.hpp"
#include "util/rng.hpp"

namespace parbounds {

class OrDistribution {
 public:
  OrDistribution(std::uint64_t n, std::uint64_t gamma, std::uint64_t mu);

  std::uint64_t n() const { return n_; }
  std::uint64_t gamma() const { return gamma_; }
  unsigned stages() const { return stages_; }
  const std::vector<double>& d() const { return d_; }

  double prob_zeros() const { return 0.5; }
  double prob_stage() const;  ///< probability of each individual H_i

  /// Draw a full input from D.
  std::vector<Word> sample(Rng& rng) const;
  /// Draw from a specific H_i.
  std::vector<Word> sample_stage(unsigned i, Rng& rng) const;

 private:
  std::uint64_t n_;
  std::uint64_t gamma_;
  std::uint64_t mu_;
  unsigned stages_;
  std::vector<double> d_;
};

/// The adversary's restricted family: which D-components are still alive,
/// or a fully fixed input after RANDOMFIX.
struct OrFamily {
  bool zeros = true;
  std::vector<unsigned> stages;  ///< indices of alive H_i
  std::optional<std::vector<Word>> fixed;

  bool defined() const { return fixed.has_value(); }
};

class OrAdversary {
 public:
  OrAdversary(GsmAlgorithm algo, GsmConfig cfg, const OrDistribution& dist,
              std::uint64_t seed);

  /// Initial family: everything alive.
  OrFamily initial() const;

  struct Step {
    OrFamily F;
    std::uint64_t x = 1;      ///< big-step lower bound for the phase
    bool done = false;        ///< input fully defined (RANDOMFIX fired)
    bool threshold_hit = false;  ///< lines (3)/(9) fired
  };
  Step refine(unsigned t, const OrFamily& F);

 private:
  std::vector<Word> random_fix(const OrFamily& F);

  GsmAlgorithm algo_;
  GsmConfig cfg_;
  OrDistribution dist_;
  Rng rng_;
  /// The analysis over every input, which refine's threshold test reads
  /// at each t; built by the first refine.
  std::shared_ptr<const TraceAnalysis> analysis_;
};

/// Empirical Theorem 7.1 trade-off: run `fanin`-ary GSM OR truncated to
/// `phase_budget` phases on `trials` samples of D; returns the fraction
/// answered correctly (the output cell read after the budget).
double or_success_experiment(const OrDistribution& dist, unsigned fanin,
                             unsigned phase_budget, unsigned trials,
                             Rng& rng, const GsmConfig& cfg);

}  // namespace parbounds
