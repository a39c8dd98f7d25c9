#include "adversary/or_adversary.hpp"

#include <algorithm>
#include <cmath>

#include "adversary/goodness.hpp"
#include "util/mathx.hpp"

namespace parbounds {

OrDistribution::OrDistribution(std::uint64_t n, std::uint64_t gamma,
                               std::uint64_t mu)
    : n_(n), gamma_(std::max<std::uint64_t>(1, gamma)), mu_(mu) {
  stages_ = std::max(1u, s7_T(static_cast<double>(n),
                              static_cast<double>(gamma_),
                              static_cast<double>(mu_)));
  d_ = s7_d_sequence(static_cast<double>(n), static_cast<double>(gamma_),
                     static_cast<double>(mu_));
}

double OrDistribution::prob_stage() const {
  // Each H_i carries 2 / log*_(mu+1)(n/gamma), and only `stages_` of them
  // are used; normalise so probabilities sum to 1 with the zeros' 1/2.
  return 0.5 / static_cast<double>(stages_);
}

std::vector<Word> OrDistribution::sample(Rng& rng) const {
  if (rng.next_bool(prob_zeros())) return std::vector<Word>(n_, 0);
  const auto i = static_cast<unsigned>(rng.next_below(stages_));
  return sample_stage(i, rng);
}

std::vector<Word> OrDistribution::sample_stage(unsigned i, Rng& rng) const {
  std::vector<Word> input(n_, 0);
  const double p = 1.0 / std::max(1.0, d_[std::min<std::size_t>(
                                        i, d_.size() - 1)]);
  for (std::uint64_t lo = 0; lo < n_; lo += gamma_) {
    if (!rng.next_bool(p)) continue;
    const std::uint64_t hi = std::min(n_, lo + gamma_);
    for (std::uint64_t j = lo; j < hi; ++j) input[j] = 1;
  }
  return input;
}

OrAdversary::OrAdversary(GsmAlgorithm algo, GsmConfig cfg,
                         const OrDistribution& dist, std::uint64_t seed)
    : algo_(std::move(algo)), cfg_(cfg), dist_(dist), rng_(seed) {}

OrFamily OrAdversary::initial() const {
  OrFamily F;
  F.stages.resize(dist_.stages());
  for (unsigned i = 0; i < dist_.stages(); ++i) F.stages[i] = i;
  return F;
}

std::vector<Word> OrAdversary::random_fix(const OrFamily& F) {
  // Sample from D conditioned on the alive components.
  double total = (F.zeros ? dist_.prob_zeros() : 0.0) +
                 dist_.prob_stage() * static_cast<double>(F.stages.size());
  double u = rng_.next_double() * std::max(total, 1e-300);
  if (F.zeros) {
    if (u < dist_.prob_zeros()) return std::vector<Word>(dist_.n(), 0);
    u -= dist_.prob_zeros();
  }
  const auto idx = std::min<std::size_t>(
      F.stages.size() - 1,
      static_cast<std::size_t>(u / dist_.prob_stage()));
  return dist_.sample_stage(F.stages[idx], rng_);
}

OrAdversary::Step OrAdversary::refine(unsigned t, const OrFamily& F) {
  Step step;
  step.F = F;
  if (F.defined()) {
    step.done = true;
    return step;
  }

  // Threshold test (lines (3) and (9)): analyze the algorithm over every
  // input (support of the remaining family is unrestricted) and compare
  // the busiest processor / cell against the Section 7 thresholds.
  const auto n = static_cast<unsigned>(dist_.n());
  if (analysis_ == nullptr)
    analysis_ = std::make_shared<const TraceAnalysis>(
        algo_, cfg_, n, PartialInputMap::all_unset(n));
  const TraceAnalysis& ta = *analysis_;
  const double lstar = log_star_base(
      std::max(2.0, static_cast<double>(dist_.n()) /
                        static_cast<double>(dist_.gamma())),
      static_cast<double>(std::max(cfg_.alpha, cfg_.beta)) + 1.0);
  const double dt =
      dist_.d()[std::min<std::size_t>(t, dist_.d().size() - 1)];
  const double proc_threshold =
      static_cast<double>(cfg_.alpha) * std::pow(dt, dt + 2.0) * lstar;
  const double cell_threshold =
      static_cast<double>(cfg_.beta) * std::pow(dt, dt + 2.0) * lstar;

  std::uint64_t max_rw = 0, max_k = 0;
  if (t + 1 <= ta.phases()) {
    for (std::size_t v = 0; v < ta.entities().size(); ++v) {
      if (ta.entities()[v].is_cell)
        max_k = std::max(max_k, ta.max_contention(v, t + 1));
      else
        max_rw = std::max(max_rw, ta.max_rw(v, t + 1));
    }
  }

  if (static_cast<double>(max_rw) >= proc_threshold ||
      static_cast<double>(max_k) >= cell_threshold) {
    // Lines (4)-(7) / (10)-(13): fix everything; the forced step is as
    // big as the realized access pattern.
    step.F.fixed = random_fix(F);
    step.done = true;
    step.threshold_hit = true;
    step.x = std::max<std::uint64_t>(
        {1, ceil_div(max_rw, cfg_.alpha), ceil_div(max_k, cfg_.beta)});
    return step;
  }

  // Lines (15)-(19): RANDOMRESTRICT against H_t.
  const auto it = std::find(step.F.stages.begin(), step.F.stages.end(), t);
  if (it != step.F.stages.end()) {
    const double total =
        (F.zeros ? dist_.prob_zeros() : 0.0) +
        dist_.prob_stage() * static_cast<double>(F.stages.size());
    const double p_ht = dist_.prob_stage() / std::max(total, 1e-300);
    if (rng_.next_bool(p_ht)) {
      OrFamily only;
      only.zeros = false;
      only.stages = {t};
      step.F.fixed = random_fix(only);
      step.F.zeros = false;
      step.F.stages = {t};
      step.done = true;
    } else {
      step.F.stages.erase(
          std::find(step.F.stages.begin(), step.F.stages.end(), t));
    }
  }
  step.x = 1;
  return step;
}

double or_success_experiment(const OrDistribution& dist, unsigned fanin,
                             unsigned phase_budget, unsigned trials,
                             Rng& rng, const GsmConfig& cfg) {
  unsigned correct = 0;
  for (unsigned trial = 0; trial < trials; ++trial) {
    const auto input = dist.sample(rng);
    Word truth = 0;
    for (const Word w : input)
      if (w != 0) truth = 1;

    GsmMachine m(cfg);
    const Addr out = gsm_or_tree(m, input, fanin, phase_budget);
    const auto contents = m.peek(out);
    Word answer = 0;
    for (const Word w : contents)
      if (w != 0) answer = 1;
    if (answer == truth) ++correct;
  }
  return static_cast<double>(correct) / std::max(1u, trials);
}

}  // namespace parbounds
