// parbounds_serve — the sweep-service daemon (docs/SERVICE.md).
//
// Modes (exactly one):
//   --stdio            serve JSONL request/response over stdin/stdout
//   --socket PATH      listen on a Unix socket; length-prefixed frames,
//                      one connection at a time, until a shutdown op
//                      or SIGINT/SIGTERM (either unlinks PATH)
//   --connect PATH     lock-step client: JSONL on stdin -> frames to the
//                      daemon -> JSONL on stdout (scripting/CI glue)
//   --list-workloads   print the registry and exit
//
// Knobs: --cache-dir PATH  --cache-bytes N  --queue N  --jobs N
//        --workers N   execute cache-miss batches across N fleet worker
//                      processes (this binary re-exec'd;
//                      docs/SERVICE.md#fleet) instead of the in-process
//                      runner. Response bytes are identical either way.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "runtime/fleet/coordinator.hpp"
#include "runtime/fleet/transport.hpp"
#include "runtime/fleet/worker.hpp"
#include "runtime/harness_flags.hpp"
#include "runtime/sweep_service/registry.hpp"
#include "runtime/sweep_service/serve.hpp"
#include "runtime/sweep_service/service.hpp"

namespace {

using namespace parbounds::service;
namespace fleet = parbounds::fleet;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " (--stdio | --socket PATH | --connect PATH | --list-workloads)\n"
      << "       [--cache-dir PATH] [--cache-bytes N] [--queue N] "
         "[--jobs N] [--workers N]\n";
  return 1;
}

// Socket connections reuse the fleet's FdTransport (read fd == write
// fd): same frame reassembly across short reads, same classified EOF,
// one codec implementation instead of two.
using FrameTransport = fleet::FdTransport;

int listen_on(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "parbounds_serve: socket: " << std::strerror(errno) << "\n";
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "parbounds_serve: socket path too long\n";
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 8) < 0) {
    std::cerr << "parbounds_serve: bind/listen " << path << ": "
              << std::strerror(errno) << "\n";
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_to(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Set by SIGINT/SIGTERM; the accept loop polls it.
volatile std::sig_atomic_t g_stop = 0;

void request_stop(int) { g_stop = 1; }

int serve_socket(SweepService& svc, const std::string& path) {
  // A client that leaves before its reply is written must end only its
  // own session: with SIGPIPE ignored the write fails with EPIPE, which
  // FdTransport records, instead of killing the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  // SIGINT/SIGTERM stop the daemon cleanly: no SA_RESTART, so a blocked
  // accept() returns EINTR and the loop below sees the flag, closes
  // the listener and unlinks the socket file.
  struct sigaction stop {};
  stop.sa_handler = request_stop;
  sigemptyset(&stop.sa_mask);
  ::sigaction(SIGINT, &stop, nullptr);
  ::sigaction(SIGTERM, &stop, nullptr);
  const int listener = listen_on(path);
  if (listener < 0) return 1;
  std::cerr << "parbounds_serve: listening on " << path << "\n";
  int rc = 0;
  while (g_stop == 0) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      std::cerr << "parbounds_serve: accept: " << std::strerror(errno)
                << "\n";
      rc = 1;
      break;
    }
    FrameTransport transport(conn, conn);
    const ServeResult result = serve(svc, transport);
    ::close(conn);
    if (result.shutdown) break;
  }
  ::close(listener);
  ::unlink(path.c_str());
  return rc;
}

/// Lock-step client: one stdin line -> one framed request -> wait for
/// the framed response -> one stdout line. The serve loop's in-order
/// guarantee makes this pairing exact.
int run_client(const std::string& path) {
  const int fd = connect_to(path);
  if (fd < 0) {
    std::cerr << "parbounds_serve: cannot connect to " << path << "\n";
    return 1;
  }
  FrameTransport transport(fd, fd);
  std::string line;
  int rc = 0;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    transport.send(line);
    std::string payload;
    if (!transport.recv(payload)) {
      std::cerr << "parbounds_serve: connection closed mid-request\n";
      rc = 1;
      break;
    }
    std::cout << payload << "\n" << std::flush;
  }
  ::close(fd);
  return rc;
}

int list_workloads() {
  for (const auto& w : workloads()) {
    std::cout << w.name << " engines=" << engine_names(w.engines)
              << " required=";
    for (std::size_t i = 0; i < w.required.size(); ++i)
      std::cout << (i ? "," : "") << w.required[i].name;
    std::cout << " optional=";
    for (std::size_t i = 0; i < w.optional.size(); ++i)
      std::cout << (i ? "," : "") << w.optional[i].name;
    std::cout << "\n";
  }
  return 0;
}

/// Fleet health on stderr at daemon exit (never on the wire: response
/// bytes must not depend on the execution backend).
void print_fleet_stats(const fleet::FleetCoordinator* fc) {
  if (fc == nullptr) return;
  std::cerr << "parbounds_serve: fleet spawn="
            << fc->counter("fleet.worker.spawn")
            << " exit=" << fc->counter("fleet.worker.exit")
            << " retry=" << fc->counter("fleet.worker.retry") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Fleet front door: a child re-exec'd with --fleet-worker=... serves
  // its pipe pair and exits here, before any daemon flag parsing.
  fleet::maybe_run_worker(argc, argv);

  std::string mode;
  std::string path;
  ServiceConfig cfg;
  cfg.cache.dir = ".parbounds-cache";
  unsigned workers = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A numeric value is all digits and fits its field: a sign or any
    // trailing text is an error, never some other number.
    const auto need_value = [&](std::uint64_t& out,
                                std::uint64_t max =
                                    std::numeric_limits<std::uint64_t>::max()) {
      return ++i < argc && parbounds::runtime::parse_count(argv[i], max, out);
    };
    if (arg == "--stdio" || arg == "--list-workloads") {
      mode = arg;
    } else if (arg == "--socket" || arg == "--connect") {
      mode = arg;
      if (++i >= argc) return usage(argv[0]);
      path = argv[i];
    } else if (arg == "--cache-dir") {
      if (++i >= argc) return usage(argv[0]);
      cfg.cache.dir = argv[i];
    } else if (arg == "--cache-bytes") {
      if (!need_value(cfg.cache.max_bytes)) return usage(argv[0]);
    } else if (arg == "--queue") {
      std::uint64_t v = 0;
      if (!need_value(v)) return usage(argv[0]);
      cfg.queue_capacity = static_cast<std::size_t>(v);
    } else if (arg == "--jobs") {
      std::uint64_t v = 0;
      if (!need_value(v, std::numeric_limits<unsigned>::max())) {
        std::cerr << "parbounds_serve: --jobs needs a non-negative integer "
                     "(0 = all cores)\n";
        return usage(argv[0]);
      }
      cfg.jobs = static_cast<unsigned>(v);
    } else if (arg == "--workers") {
      std::uint64_t v = 0;
      if (!need_value(v, std::numeric_limits<unsigned>::max()) || v == 0) {
        std::cerr << "parbounds_serve: --workers needs a fleet width >= 1\n";
        return usage(argv[0]);
      }
      workers = static_cast<unsigned>(v);
    } else {
      std::cerr << "parbounds_serve: unknown flag '" << arg << "'\n";
      return usage(argv[0]);
    }
  }

  if (mode == "--list-workloads") return list_workloads();
  if (mode == "--connect") return run_client(path);

  // Fleet-backed execution: cache-miss batches go to worker processes;
  // admission, caching and response encoding stay the daemon's.
  std::unique_ptr<fleet::FleetCoordinator> fleet_coord;
  if (workers > 0 && (mode == "--stdio" || mode == "--socket")) {
    fleet::FleetConfig fcfg;
    fcfg.workers = workers;
    try {
      fleet_coord = std::make_unique<fleet::FleetCoordinator>(fcfg);
    } catch (const std::exception& e) {
      std::cerr << "parbounds_serve: --workers: " << e.what() << "\n";
      return 1;
    }
    cfg.miss_executor =
        [&fc = *fleet_coord](const std::vector<Request>& misses) {
          return fc.run_requests(misses);
        };
  }

  if (mode == "--stdio") {
    SweepService svc(cfg);
    StdioTransport transport(std::cin, std::cout);
    serve(svc, transport);
    print_fleet_stats(fleet_coord.get());
    return 0;
  }
  if (mode == "--socket") {
    SweepService svc(cfg);
    const int rc = serve_socket(svc, path);
    print_fleet_stats(fleet_coord.get());
    return rc;
  }
  return usage(argv[0]);
}
