// Workload daemon_cache_mix: the sweep daemon's core, service::SweepService
// with jobs = 2 over an on-disk result cache, driven by a closed loop of
// two client threads that each wait on SweepService::call. Op = one run
// request; a pass is a fixed stream of kOps requests, split between the
// clients by parity of the stream index.
//
// The stream mixes three kinds of request. About half
// repeat a key issued before (a cache read); the rest are new small cells
// (kernel execution plus a tmp+rename publish, i.e. a cache write). The
// cache starts each pass holding kResident keys, and its byte budget holds
// only kCapacity entries, fewer than the distinct keys of a pass, so some
// repeats were evicted and miss again.
//
// Set-up fills a template cache directory (outside any pass) and starts
// the service over a copy; every pass starts from a fresh copy of the
// template, so each pass sees the same initial cache.
//
// Check: every response is Ok and its cost equals service::run_spec for
// that spec and seed, computed untimed after the pass.

#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness.hpp"
#include "obs/span.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep_service/protocol.hpp"
#include "runtime/sweep_service/registry.hpp"
#include "runtime/sweep_service/service.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace runtime = parbounds::runtime;
namespace service = parbounds::service;

constexpr unsigned kResident = 128;
constexpr unsigned kCapacity = 160;
constexpr unsigned kOps = 600;
constexpr unsigned kClients = 2;

/// Service registry counter -> per-layer metric.
constexpr std::pair<const char*, const char*> kServiceCounters[] = {
    {"cache.hit", "sweep_service.cache.hit"},
    {"cache.miss", "sweep_service.cache.miss"},
    {"cache.evict", "sweep_service.cache.evict"},
    {"cache.corrupt", "sweep_service.cache.corrupt"},
    {"service.exec", "sweep_service.exec"},
    {"queue.shed", "sweep_service.queue.shed"}};

/// Run request number k: the kernel cycles with k and each is sized to a
/// few milliseconds, so a miss is mostly kernel time rather than
/// file-system latency (which varies widely on a shared disk), and every
/// seed gets the same mix of work. `rng` draws the parameters.
runtime::ServiceSpec small_spec(std::size_t k, parbounds::Rng& rng) {
  const std::uint64_t g = std::uint64_t{1} << (1 + rng.next_below(3));
  switch (k % 6) {
    case 0:
      return {"qsm", "parity_circuit", {{"n", 2048}, {"g", g / 2 + 1}}};
    case 1:
      return {"sqsm", "parity_tree", {{"n", 1 << 14}, {"g", g}, {"fanin", 2}}};
    case 2:
      return {"qsm", "or_fanin",
              {{"n", 1 << 15}, {"g", g}, {"ones", 1 + rng.next_below(64)}}};
    case 3:
      return {"sqsm", "lac_dart", {{"n", 1 << 14}, {"g", g}, {"h", 1 << 11}}};
    case 4:
      return {"qsm", "lac_prefix", {{"n", 1 << 13}, {"g", g}, {"h", 1 << 10}}};
    default:
      return {"bsp", "lac_bsp",
              {{"n", 1 << 17}, {"p", 64}, {"g", g}, {"L", 32}, {"h", 1 << 14}}};
  }
}

struct Reply {
  double ms = 0.0;
  service::Response resp;
};

class DaemonCacheMix final : public Workload {
 public:
  explicit DaemonCacheMix(const Options& opt)
      : opt_(opt), root_(fs::path(opt.work_dir) / ("daemon-" + std::to_string(opt.seed))) {
    // The stream's shape (which ops repeat which key, the kernels and
    // their parameters) is the same for every seed, so seeds differ only
    // in the kernels' inputs; the seed draws each request's seed.
    parbounds::Rng shape(0xcace);
    parbounds::Rng inputs(runtime::derive_seed(opt.seed, 0xcace));
    const auto new_key = [&] {
      service::Request req;
      req.op = service::Op::Run;
      req.spec = small_spec(keys_.size(), shape);
      req.seed = inputs.next();
      keys_.push_back(std::move(req));
      return keys_.size() - 1;
    };
    for (unsigned i = 0; i < kResident; ++i) new_key();
    for (unsigned i = 0; i < kOps; ++i)
      stream_.push_back(shape.next_bool(0.5)
                            ? static_cast<std::size_t>(shape.next_below(keys_.size()))
                            : new_key());
  }

  ~DaemonCacheMix() override {
    service_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void setup() override {
    // Fill the template cache with the resident keys, then start the
    // service over a fresh copy of it.
    service_.reset();
    fs::remove_all(root_);
    {
      service::ServiceConfig cfg;
      cfg.cache.dir = root_ / "template";
      cfg.jobs = 2;
      service::SweepService fill(cfg);
      for (unsigned i = 0; i < kResident; ++i) {
        const service::Response r = fill.call(keys_[i]);
        if (r.status != service::Status::Ok)
          throw std::runtime_error("daemon_cache_mix: template fill failed");
      }
    }
    std::uint64_t bytes = 0;
    std::uint64_t entries = 0;
    for (const auto& e : fs::directory_iterator(root_ / "template")) {
      bytes += e.file_size();
      ++entries;
    }
    if (entries == 0) throw std::runtime_error("daemon_cache_mix: empty cache");
    max_bytes_ = bytes * kCapacity / entries;
    start_service();
  }

  void reset() override { start_service(); }

  void pass(std::vector<double>& op_ms) override {
    replies_.assign(kOps, Reply{});
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([this, c] {
        const parbounds::obs::Span span(parbounds::obs::process_tracer(),
                                        "perfbench.client", c);
        for (std::size_t i = c; i < kOps; i += kClients) {
          service::Request req = keys_[stream_[i]];
          req.id = i;
          const auto t0 = Clock::now();
          replies_[i].resp = service_->call(std::move(req));
          replies_[i].ms = ms_since(t0);
        }
      });
    }
    for (auto& t : clients) t.join();
    for (const Reply& r : replies_) op_ms.push_back(r.ms);
  }

  std::uint64_t check_pass() override {
    if (reference_.empty()) build_reference();
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      const service::Response& r = replies_[i].resp;
      if (r.status != service::Status::Ok || !r.has_cost ||
          r.cost != reference_[stream_[i]])
        ++bad;
    }
    if (traced_) {
      const auto snap = service_->metrics().snapshot();
      for (const auto& [name, metric] : kServiceCounters)
        totals_[metric] += static_cast<double>(counter(snap, name));
      depth_max_ = std::max(depth_max_, counter(snap, "queue.depth"));
      for (const Reply& r : replies_)
        (r.resp.cached ? hit_ms_ : miss_ms_).push_back(r.ms);
    }
    return bad;
  }

  void begin_traced() override { traced_ = true; }

  void layer_metrics(const TracedRun& run, LayerMetrics& out) override {
    const double passes = run.passes;
    for (const auto& [name, metric] : kServiceCounters)
      out.set(metric, totals_[metric] / passes);
    const double hit = totals_["sweep_service.cache.hit"];
    const double miss = totals_["sweep_service.cache.miss"];
    out.set("sweep_service.cache.hit_ratio", hit + miss > 0 ? hit / (hit + miss) : 0.0);
    out.set("sweep_service.queue.depth", static_cast<double>(depth_max_));
    out.set("sweep_service.hit_p50_ms", percentile(hit_ms_, 50.0));
    out.set("sweep_service.miss_p50_ms", percentile(miss_ms_, 50.0));
    out.set("sweep_service.admit_s", span_sum(*run.spans, "service.admit").total_s / passes);
    out.set("sweep_service.run_s", span_sum(*run.spans, "service.run").total_s / passes);
    out.set("sweep_service.commit_s", span_sum(*run.spans, "service.commit").total_s / passes);
    out.set("sweep_service.start_s", median(start_samples_));
    // The service's runner executes the misses; its trials are the kernels.
    set_runtime_layers(run, 2, out);
    set_kernel_layers(run, out);
  }

  std::size_t trace_capacity() const override { return std::size_t{1} << 12; }

  std::string describe() const override {
    return std::to_string(kOps) + " requests per pass from " +
           std::to_string(kClients) + " closed-loop clients; " +
           std::to_string(keys_.size()) + " distinct keys, " +
           std::to_string(kResident) + " resident at pass start, budget " +
           std::to_string(kCapacity) + " entries (" + std::to_string(max_bytes_) +
           " bytes); service jobs=2";
  }

 private:
  void start_service() {
    service_.reset();
    const fs::path dir = root_ / "pass";
    fs::remove_all(dir);
    fs::copy(root_ / "template", dir);
    service::ServiceConfig cfg;
    cfg.cache.dir = dir;
    cfg.cache.max_bytes = max_bytes_;
    cfg.jobs = 2;
    const auto t0 = Clock::now();
    service_ = std::make_unique<service::SweepService>(cfg);
    start_samples_.push_back(seconds_since(t0));
  }

  void build_reference() {
    reference_.resize(keys_.size());
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      std::string err;
      if (!service::run_spec(keys_[k].spec, keys_[k].seed, reference_[k], err))
        throw std::runtime_error("daemon_cache_mix: " + err);
    }
    if (opt_.corrupt_reference) reference_[stream_.front()] += 1.0;
  }

  Options opt_;
  fs::path root_;
  std::vector<service::Request> keys_;  ///< distinct requests
  std::vector<std::size_t> stream_;     ///< key index per op
  std::uint64_t max_bytes_ = 0;
  std::unique_ptr<service::SweepService> service_;
  std::vector<double> start_samples_;
  std::vector<Reply> replies_;     ///< last pass, stream order
  std::vector<double> reference_;  ///< cost per key
  bool traced_ = false;
  std::map<std::string, double> totals_;
  std::uint64_t depth_max_ = 0;
  std::vector<double> hit_ms_;
  std::vector<double> miss_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_daemon_cache_mix(const Options& opt) {
  return std::make_unique<DaemonCacheMix>(opt);
}

}  // namespace perfbench
