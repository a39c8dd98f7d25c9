#include "runtime/fleet/worker.hpp"

#include <csignal>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "runtime/fleet/snapshot_wire.hpp"
#include "runtime/fleet/transport.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep_service/cache.hpp"
#include "runtime/sweep_service/registry.hpp"

namespace parbounds::fleet {

namespace {

std::string cost_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// "W:K" fault knob: fires when worker W handles its K-th work request.
struct FaultKnob {
  bool armed = false;
  unsigned worker = 0;
  std::uint64_t ordinal = 0;

  static FaultKnob parse(const char* text) {
    FaultKnob k;
    if (text == nullptr) return k;
    const std::string s = text;
    const std::size_t colon = s.find(':');
    if (colon == std::string::npos) return k;
    char* end = nullptr;
    k.worker = static_cast<unsigned>(
        std::strtoul(s.c_str(), &end, 10));
    if (end != s.c_str() + colon) return k;
    k.ordinal = std::strtoull(s.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || k.ordinal == 0) return k;
    k.armed = true;
    return k;
  }

  bool fires(unsigned index, std::uint64_t seen) const {
    return armed && worker == index && seen == ordinal;
  }
};

service::Response run_one(const service::Request& req) {
  service::Response resp;
  resp.id = req.id;
  if (service::run_spec(req.spec, req.seed, resp.cost, resp.error))
    resp.has_cost = true;
  else
    resp.status = service::Status::Error;
  return resp;
}

service::Response run_cell(const service::Request& req,
                           service::ResultCache* cache) {
  service::Response resp;
  resp.id = req.id;

  std::string key;
  if (cache != nullptr) {
    key = service::cache_key(req);
    std::string payload;
    if (cache->fetch(key, payload) == service::FetchResult::Hit &&
        decode_cell_payload(payload, resp.costs, resp.telemetry) &&
        resp.costs.size() == req.trials) {
      resp.cached = true;
      return resp;
    }
    resp.costs.clear();
    resp.telemetry.clear();
  }

  // Fresh per-cell telemetry: the snapshot shipped with this response
  // covers exactly this cell's phases, so the coordinator can merge
  // one snapshot per cell regardless of which worker (or retry
  // attempt) produced it.
  obs::MetricsRegistry registry;
  obs::TelemetryObserver telemetry(registry);
  obs::install_process_telemetry(&telemetry);
  for (std::uint64_t r = 0; r < req.trials; ++r) {
    double cost = 0.0;
    if (!service::run_spec(req.spec,
                           runtime::derive_seed(req.seed, req.trial0 + r),
                           cost, resp.error)) {
      obs::install_process_telemetry(nullptr);
      resp.costs.clear();
      resp.status = service::Status::Error;
      return resp;
    }
    resp.costs.push_back(cost);
  }
  obs::install_process_telemetry(nullptr);
  resp.telemetry = encode_snapshot(registry.snapshot());

  if (cache != nullptr)
    cache->insert(key, encode_cell_payload(resp.costs, resp.telemetry));
  return resp;
}

}  // namespace

std::string encode_cell_payload(const std::vector<double>& costs,
                                const std::string& telemetry) {
  std::string out;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (i > 0) out += ',';
    out += cost_text(costs[i]);
  }
  out += '\n';
  out += telemetry;
  return out;
}

bool decode_cell_payload(std::string_view payload,
                         std::vector<double>& costs,
                         std::string& telemetry) {
  costs.clear();
  telemetry.clear();
  const std::size_t eol = payload.find('\n');
  if (eol == std::string_view::npos) return false;
  std::string_view list = payload.substr(0, eol);
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    const std::string_view text = list.substr(0, comma);
    double v = 0.0;
    const auto res =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (res.ec != std::errc() || res.ptr != text.data() + text.size() ||
        text.empty())
      return false;
    costs.push_back(v);
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
    if (list.empty()) return false;  // trailing comma
  }
  if (costs.empty()) return false;
  telemetry.assign(payload.substr(eol + 1));
  return true;
}

int worker_main(unsigned index, int rfd, int wfd) {
  // Trials execute serially inside a worker — parallelism is the fleet
  // width. Pinning the pool keeps the worker single-threaded (model
  // costs and telemetry are pool-invariant anyway, per the PR 5
  // shard-equivalence oracle).
  runtime::ParallelFor::pool().set_threads(1);

  std::unique_ptr<service::ResultCache> cache;
  if (const char* dir = std::getenv(kCacheDirEnv); dir != nullptr &&
                                                   dir[0] != '\0') {
    service::CacheConfig cfg;
    cfg.dir = dir;
    if (const char* bytes = std::getenv(kCacheBytesEnv); bytes != nullptr) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(bytes, &end, 10);
      if (end != bytes && *end == '\0' && v > 0) cfg.max_bytes = v;
    }
    cache = std::make_unique<service::ResultCache>(std::move(cfg));
  }

  const FaultKnob crash = FaultKnob::parse(std::getenv(kCrashEnv));
  const FaultKnob hang = FaultKnob::parse(std::getenv(kHangEnv));
  std::uint64_t work_seen = 0;

  FdTransport transport(rfd, wfd);
  transport.send(std::string(kReadyFrame));
  if (transport.send_failed()) return 1;  // coordinator gone already

  // A NaN cost makes the binary encoder throw; answer with a typed
  // error in-band rather than dying and burning the coordinator's retry
  // budget on a deterministic failure.
  const auto wire_encode = [](const service::Response& resp) {
    try {
      return service::encode_response_binary(resp);
    } catch (const std::exception& e) {
      service::Response err_resp;
      err_resp.id = resp.id;
      err_resp.status = service::Status::Error;
      err_resp.error = e.what();
      return service::encode_response_binary(err_resp);
    }
  };

  std::string payload;
  while (transport.recv(payload)) {
    service::Request req;
    std::string err;
    service::Response resp;
    if (!service::decode_request_binary(payload, req, err)) {
      resp.status = service::Status::Error;
      resp.error = err;
      transport.send(wire_encode(resp));
      continue;
    }
    switch (req.op) {
      case service::Op::Run:
      case service::Op::Cell:
        ++work_seen;
        if (crash.fires(index, work_seen)) std::raise(SIGKILL);
        if (hang.fires(index, work_seen))
          for (;;) ::pause();  // deadline-test limbo; killed by parent
        resp = req.op == service::Op::Run ? run_one(req)
                                          : run_cell(req, cache.get());
        break;
      case service::Op::Ping:
        resp.id = req.id;
        break;
      case service::Op::Stats:
        resp.id = req.id;
        resp.status = service::Status::Error;
        resp.error = "fleet workers serve no stats op";
        break;
      case service::Op::Shutdown:
        resp.id = req.id;
        transport.send(wire_encode(resp));
        return 0;
    }
    transport.send(wire_encode(resp));
    if (transport.send_failed()) return 1;  // coordinator gone
  }
  return 0;  // clean EOF: coordinator closed our inbox
}

bool parse_worker_token(std::string_view token, unsigned& index, int& rfd,
                        int& wfd) {
  const std::string_view prefix = kWorkerFlagPrefix;
  if (token.substr(0, prefix.size()) != prefix) return false;
  const std::string rest(token.substr(prefix.size()));
  unsigned long vals[3] = {0, 0, 0};
  const char* p = rest.c_str();
  for (int i = 0; i < 3; ++i) {
    char* end = nullptr;
    vals[i] = std::strtoul(p, &end, 10);
    if (end == p) return false;
    if (i < 2) {
      if (*end != ',') return false;
      p = end + 1;
    } else if (*end != '\0') {
      return false;
    }
  }
  index = static_cast<unsigned>(vals[0]);
  rfd = static_cast<int>(vals[1]);
  wfd = static_cast<int>(vals[2]);
  return true;
}

void maybe_run_worker(int argc, char** argv) {
  if (argc < 2) return;
  const std::string_view arg = argv[1];
  if (arg.substr(0, std::string_view(kWorkerFlagPrefix).size()) !=
      kWorkerFlagPrefix)
    return;
  unsigned index = 0;
  int rfd = -1, wfd = -1;
  if (!parse_worker_token(arg, index, rfd, wfd)) {
    std::fprintf(stderr, "fleet: malformed worker token '%s'\n", argv[1]);
    std::exit(2);
  }
  std::exit(worker_main(index, rfd, wfd));
}

}  // namespace parbounds::fleet
