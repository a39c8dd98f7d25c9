// Workload proof_machinery: the executable lower-bound machinery, run as
// independent tasks through an ExperimentRunner (jobs = threads = nproc).
// Op = one task; a pass runs every task once. Three task kinds:
//
//   trace   TraceAnalysis of gsm_parity_tree or gsm_or_tree over every
//           refinement of 10..12 free inputs, then
//           verify_degree_recurrence on it (Theorems 3.1 / 7.2);
//   adv     RandomAdversary::generate against gsm_or_tree, n = 10..11;
//   degree  degree() of a BoolFn of arity 20..26 whose degree is below its
//           arity (AND or OR of a random subset of k < n variables), so
//           the dense and chunked Moebius tiers run rather than a fast tier.
//
// Set-up builds the BoolFn inputs. Checks: every recurrence ledger is ok
// and reaches the full output degree n (deg PARITY_n = deg OR_n = n,
// Facts 2.1-2.3); every generated map is complete; every degree equals k
// and equals an untimed pass pinned to the portable SIMD level.

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "adversary/adversary.hpp"
#include "adversary/degree_argument.hpp"
#include "adversary/trace_analysis.hpp"
#include "algos/gsm_algos.hpp"
#include "boolfn/boolfn.hpp"
#include "harness.hpp"
#include "obs/span.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/runner.hpp"
#include "runtime/simd_level.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace pb = parbounds;
namespace runtime = parbounds::runtime;

// A pass is kBlocks blocks of identical composition, so each runner
// chunk (nproc = 4) gets the same mix of work.
constexpr unsigned kBlocks = 4;
constexpr unsigned kTracePerBlock = 11;
constexpr unsigned kAdvPerBlock = 6;
constexpr unsigned kDegreePerBlock = 8;

enum class Kind { Trace, Adv, Degree };

struct Task {
  Kind kind = Kind::Trace;
  unsigned n = 0;
  unsigned fanin = 2;
  bool parity = false;     ///< trace: parity tree (else OR tree)
  std::uint64_t T = 0;     ///< adv: horizon in big-steps
  std::uint64_t seed = 0;  ///< adv: adversary seed; degree: variable draw
  unsigned k = 0;          ///< degree: expected degree
};

struct Output {
  double ms = 0.0;
  bool ok = false;              ///< the task's own invariant held
  std::uint64_t value = 0;      ///< degree (degree) or final mask (adv)
  std::uint64_t randomset = 0;  ///< adv: RANDOMSET calls
};

pb::GsmAlgorithm tree_algo(bool parity, unsigned fanin) {
  if (parity)
    return [fanin](pb::GsmMachine& m, std::span<const pb::Word> in) {
      pb::gsm_parity_tree(m, in, fanin);
    };
  return [fanin](pb::GsmMachine& m, std::span<const pb::Word> in) {
    pb::gsm_or_tree(m, in, fanin);
  };
}

/// AND or OR of k distinct variables drawn from `seed`, at arity n.
pb::BoolFn low_degree_fn(const Task& t) {
  pb::Rng rng(t.seed);
  std::vector<std::uint32_t> vars = rng.permutation(t.n);
  vars.resize(t.k);
  const bool use_and = (t.seed & 1) == 0;
  pb::BoolFn f = pb::BoolFn::variable(t.n, vars[0]);
  for (std::size_t i = 1; i < vars.size(); ++i) {
    const pb::BoolFn x = pb::BoolFn::variable(t.n, vars[i]);
    f = use_and ? (f & x) : (f | x);
  }
  return f;
}

class ProofMachinery final : public Workload {
 public:
  explicit ProofMachinery(const Options& opt) : opt_(opt) {
    // Sizes and shapes cycle through their ranges, so every seed gets the
    // same mix of work; the seed draws the instances (adversary seeds,
    // variable subsets).
    pb::Rng rng(runtime::derive_seed(opt.seed, 0x9f00f));
    // Within a block (one runner chunk) the kinds go largest first, and
    // each kind largest n first, so a pass ends on small tasks and
    // stragglers stay short.
    const auto append_largest_first = [this](std::vector<Task> group) {
      std::stable_sort(group.begin(), group.end(),
                       [](const Task& a, const Task& b) { return a.n > b.n; });
      tasks_.insert(tasks_.end(), group.begin(), group.end());
    };
    unsigned trace = 0, adv = 0, deg = 0;
    for (unsigned b = 0; b < kBlocks; ++b) {
      std::vector<Task> degree, adversary, analysis;
      for (unsigned j = 0; j < kDegreePerBlock; ++j, ++deg)
        degree.push_back({.kind = Kind::Degree,
                          .n = 20 + deg % 7,
                          .seed = rng.next(),
                          .k = 19 + deg % 7 - deg % 6});
      for (unsigned j = 0; j < kAdvPerBlock; ++j, ++adv)
        adversary.push_back({.kind = Kind::Adv,
                             .n = 10 + adv % 2,
                             .fanin = 2 + (adv / 2) % 2,
                             .T = 2,
                             .seed = rng.next()});
      for (unsigned j = 0; j < kTracePerBlock; ++j, ++trace)
        analysis.push_back({.kind = Kind::Trace,
                            .n = 10 + trace % 3,
                            .fanin = 2 + (trace / 3) % 2,
                            .parity = (trace / 6) % 2 == 0});
      append_largest_first(std::move(degree));
      append_largest_first(std::move(adversary));
      append_largest_first(std::move(analysis));
    }
    for (const Task& t : tasks_) {
      if (t.kind == Kind::Degree) entries_ += std::uint64_t{1} << t.n;
      if (t.kind == Kind::Trace) refinements_ += std::uint64_t{1} << t.n;
    }
  }

  void setup() override {
    runtime::ParallelFor::pool().set_threads(1);
    runtime::ParallelFor::pool().set_threads(opt_.nproc);
    runner_ = std::make_unique<runtime::ExperimentRunner>(
        runtime::RunnerConfig{.jobs = opt_.nproc});
    fns_.clear();
    for (const Task& t : tasks_)
      fns_.push_back(t.kind == Kind::Degree ? low_degree_fn(t) : pb::BoolFn(0));
  }

  void pass(std::vector<double>& op_ms) override {
    outputs_ = runner_->map<Output>(
        tasks_.size(), [this](std::uint64_t i) { return run_task(i); });
    for (const Output& o : outputs_) op_ms.push_back(o.ms);
  }

  std::uint64_t check_pass() override {
    if (portable_.empty()) build_portable_reference();
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const Output& o = outputs_[i];
      const bool degree_ok = tasks_[i].kind != Kind::Degree ||
                             (o.value == tasks_[i].k && o.value == portable_[i]);
      if (!o.ok || !degree_ok) ++bad;
      if (traced_) randomset_ += o.randomset;
    }
    return bad;
  }

  void begin_traced() override { traced_ = true; }

  void layer_metrics(const TracedRun& run, LayerMetrics& out) override {
    const double passes = run.passes;
    const SpanStat degree = span_sum(*run.spans, "boolfn.degree");
    const SpanStat trace = span_sum(*run.spans, "adversary.trace_analysis");
    const SpanStat rec = span_sum(*run.spans, "adversary.recurrence");
    const SpanStat gen = span_sum(*run.spans, "adversary.generate");
    out.set("boolfn.degree.calls", degree.count / passes);
    out.set("boolfn.degree.busy_s", degree.total_s / passes);
    out.set("boolfn.degree.ns_per_entry",
            degree.total_s / passes * 1e9 / static_cast<double>(entries_));
    out.set("adversary.trace_analysis.calls", trace.count / passes);
    out.set("adversary.trace_analysis.busy_s", trace.total_s / passes);
    out.set("adversary.trace_analysis.refinements",
            static_cast<double>(refinements_));
    out.set("adversary.recurrence.busy_s", rec.total_s / passes);
    out.set("adversary.generate.calls", gen.count / passes);
    out.set("adversary.generate.busy_s", gen.total_s / passes);
    out.set("adversary.generate.randomset_calls",
            static_cast<double>(randomset_) / passes);
    const double requests =
        static_cast<double>(counter(run.telemetry, "gsm.reads") +
                            counter(run.telemetry, "gsm.writes"));
    out.set("core.gsm.phases",
            static_cast<double>(counter(run.telemetry, "gsm.phases")) / passes);
    out.set("core.gsm.requests", requests / passes);
    out.set("core.gsm.ns_per_request",
            requests > 0 ? (trace.total_s + gen.total_s) * 1e9 / requests : 0.0);
    set_runtime_layers(run, opt_.nproc, out);
    std::uint64_t shards = counter(run.telemetry, "gsm.commit.shards");
    out.set("core.commit.shards", static_cast<double>(shards) / passes);
    out.set("core.commit.shard_s",
            span_sum(*run.spans, "commit.shard").total_s / passes);
  }

  std::string describe() const override {
    return std::to_string(tasks_.size()) + " tasks per pass (" +
           std::to_string(kBlocks) + " blocks of " +
           std::to_string(kTracePerBlock) + " trace, " +
           std::to_string(kAdvPerBlock) + " adv, " +
           std::to_string(kDegreePerBlock) +
           " degree); jobs=threads=" + std::to_string(opt_.nproc);
  }

 private:
  Output run_task(std::size_t i) const {
    const Task& t = tasks_[i];
    pb::obs::Tracer* tracer = pb::obs::process_tracer();
    Output o;
    const auto t0 = Clock::now();
    switch (t.kind) {
      case Kind::Trace: {
        std::optional<pb::TraceAnalysis> ta;
        {
          const pb::obs::Span span(tracer, "adversary.trace_analysis", t.n);
          ta.emplace(tree_algo(t.parity, t.fanin), pb::GsmConfig{}, t.n,
                     pb::PartialInputMap::all_unset(t.n));
        }
        const pb::obs::Span span(tracer, "adversary.recurrence", t.n);
        const pb::DegreeLedger ledger = pb::verify_degree_recurrence(*ta);
        o.ok = ledger.ok && ledger.final_max_degree == t.n;
        break;
      }
      case Kind::Adv: {
        const pb::obs::Span span(tracer, "adversary.generate", t.n);
        pb::RandomAdversary adv(tree_algo(false, t.fanin), pb::GsmConfig{}, t.n,
                                pb::BitDistribution::uniform(t.n), t.seed);
        const pb::GenerateResult res = adv.generate(t.T);
        o.ok = res.final_map.complete() && !res.steps.empty();
        o.value = res.final_map.as_mask();
        for (const auto& step : res.steps) o.randomset += step.randomset_calls;
        break;
      }
      case Kind::Degree: {
        const pb::obs::Span span(tracer, "boolfn.degree", t.n);
        o.value = pb::degree(fns_[i]);
        o.ok = true;
        break;
      }
    }
    o.ms = ms_since(t0);
    return o;
  }

  /// Degrees of every degree task with the kernels pinned to the portable
  /// tier (the reference semantics of every SIMD level).
  void build_portable_reference() {
    const runtime::SimdLevel level = runtime::active_simd_level();
    runtime::set_simd_level(runtime::SimdLevel::kPortable);
    portable_ = runner_->map<std::uint64_t>(tasks_.size(), [this](std::uint64_t i) {
      return tasks_[i].kind == Kind::Degree ? pb::degree(fns_[i]) : 0u;
    });
    runtime::set_simd_level(level);
    if (opt_.corrupt_reference)
      for (std::size_t i = 0; i < tasks_.size(); ++i)
        if (tasks_[i].kind == Kind::Degree) {
          portable_[i] += 1;
          break;
        }
  }

  Options opt_;
  std::vector<Task> tasks_;
  std::uint64_t entries_ = 0;      ///< sum of 2^n over degree tasks
  std::uint64_t refinements_ = 0;  ///< sum of 2^u over trace tasks
  std::unique_ptr<runtime::ExperimentRunner> runner_;
  std::vector<pb::BoolFn> fns_;
  std::vector<Output> outputs_;           ///< last pass, task order
  std::vector<std::uint64_t> portable_;  ///< degree per task at kPortable
  bool traced_ = false;
  std::uint64_t randomset_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_proof_machinery(const Options& opt) {
  return std::make_unique<ProofMachinery>(opt);
}

}  // namespace perfbench
