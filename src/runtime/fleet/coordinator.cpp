#include "runtime/fleet/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <utility>

#include "obs/span.hpp"
#include "runtime/fleet/partition.hpp"
#include "runtime/fleet/worker.hpp"

namespace parbounds::fleet {

namespace {

std::uint64_t steady_now_ns() {
  const auto now =
      // DETLINT(det.wall-clock): control-plane deadlines only; never a result
      std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

void close_quiet(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

/// Blocking read of one whole frame (the readiness frame; data-plane
/// reads go through the poll loop instead).
bool read_frame_blocking(int fd, service::FrameDecoder& decoder,
                         std::string& payload) {
  for (;;) {
    switch (decoder.next(payload)) {
      case service::FrameResult::Ok:
        return true;
      case service::FrameResult::TooLarge:
        return false;
      case service::FrameResult::NeedMore:
        break;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

}  // namespace

FleetCoordinator::FleetCoordinator(FleetConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.workers == 0)
    throw std::invalid_argument("fleet: workers must be >= 1");
  if (cfg_.max_attempts == 0)
    throw std::invalid_argument("fleet: max_attempts must be >= 1");
  if (cfg_.window == 0)
    throw std::invalid_argument("fleet: window must be >= 1");

  spawn_id_ = metrics_.counter("fleet.worker.spawn");
  exit_id_ = metrics_.counter("fleet.worker.exit");
  retry_id_ = metrics_.counter("fleet.worker.retry");
  reassign_id_ = metrics_.counter("fleet.worker.reassign");
  bytes_tx_id_ = metrics_.counter("fleet.bytes_tx");
  bytes_rx_id_ = metrics_.counter("fleet.bytes_rx");
  frames_tx_id_ = metrics_.counter("fleet.frames_tx");
  frames_rx_id_ = metrics_.counter("fleet.frames_rx");
  window_depth_id_ = metrics_.gauge("fleet.window.depth");

  // A worker that dies between our poll() and our write() would
  // otherwise SIGPIPE the whole coordinator; the EPIPE return is the
  // signal we actually want.
  std::signal(SIGPIPE, SIG_IGN);

  // Workers read the shared-cache knobs from the environment (they are
  // exec'd with a single fd-token argument). Set before any fork so
  // every child inherits them.
  if (!cfg_.cache_dir.empty()) {
    ::setenv(kCacheDirEnv, cfg_.cache_dir.c_str(), 1);
    if (cfg_.cache_bytes > 0)
      ::setenv(kCacheBytesEnv, std::to_string(cfg_.cache_bytes).c_str(), 1);
  }

  workers_.resize(cfg_.workers);
  for (unsigned s = 0; s < cfg_.workers; ++s)
    if (!spawn(s))
      throw std::runtime_error("fleet: failed to spawn worker " +
                               std::to_string(s));
}

FleetCoordinator::~FleetCoordinator() {
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    // A worker mid-request (abnormal teardown, e.g. run_requests threw)
    // may never look at its inbox again; don't wait on it.
    if (!w.inflight.empty()) ::kill(w.pid, SIGKILL);
    // Closing the request pipe is the shutdown signal: the worker's
    // next recv() sees clean EOF and exits 0.
    close_quiet(w.to_fd);
    close_quiet(w.from_fd);
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.alive = false;
  }
}

bool FleetCoordinator::spawn(unsigned slot) {
  int req[2] = {-1, -1};
  int resp[2] = {-1, -1};
  if (::pipe2(req, O_CLOEXEC) != 0) return false;
  if (::pipe2(resp, O_CLOEXEC) != 0) {
    close_quiet(req[0]);
    close_quiet(req[1]);
    return false;
  }

  char token[64];
  std::snprintf(token, sizeof token, "%s%u,%d,%d", kWorkerFlagPrefix, slot,
                req[0], resp[1]);

  const pid_t pid = ::fork();
  if (pid < 0) {
    close_quiet(req[0]);
    close_quiet(req[1]);
    close_quiet(resp[0]);
    close_quiet(resp[1]);
    return false;
  }
  if (pid == 0) {
    // Child. Unmask CLOEXEC on exactly this worker's two pipe ends;
    // every other descriptor — including sibling workers' pipes, whose
    // write ends held open here would defeat EOF crash detection —
    // closes on exec.
    ::fcntl(req[0], F_SETFD, 0);
    ::fcntl(resp[1], F_SETFD, 0);
    // Re-exec the host binary, whose main() calls maybe_run_worker first.
    ::execl("/proc/self/exe", "/proc/self/exe", token,
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed; parent sees EOF before any frame
  }

  close_quiet(req[0]);
  close_quiet(resp[1]);
  Worker& w = workers_[slot];
  w.pid = pid;
  w.to_fd = req[1];
  w.from_fd = resp[0];
  w.decoder = service::FrameDecoder();
  w.alive = true;
  w.queue.clear();
  w.inflight.clear();
  w.outq.clear();

  // Block for the readiness frame before any work flows (the worker
  // sends it immediately after exec, long before any kernel runs).
  // Anything else — EOF, a different frame — is a stillborn worker.
  const auto abort_spawn = [&]() {
    ::kill(pid, SIGKILL);
    close_quiet(w.to_fd);
    close_quiet(w.from_fd);
    int status = 0;
    ::waitpid(pid, &status, 0);
    w.alive = false;
    return false;
  };
  std::string ready;
  if (!read_frame_blocking(w.from_fd, w.decoder, ready) ||
      ready != kReadyFrame)
    return abort_spawn();

  // The data plane writes through a non-blocking fd so a full pipe
  // parks frames in the WriteQueue for the next POLLOUT instead of
  // stalling the whole poll loop.
  const int fl = ::fcntl(w.to_fd, F_GETFL);
  if (fl < 0 || ::fcntl(w.to_fd, F_SETFL, fl | O_NONBLOCK) < 0)
    return abort_spawn();

  metrics_.add(spawn_id_);
  obs::Span span(obs::process_tracer(), "fleet.spawn", slot);
  return true;
}

unsigned FleetCoordinator::alive_count() const {
  unsigned n = 0;
  for (const Worker& w : workers_)
    if (w.alive) ++n;
  return n;
}

std::uint64_t FleetCoordinator::counter(const std::string& name) const {
  const obs::MetricsSnapshot snap = metrics_.snapshot();
  const obs::MetricValue* m = snap.find(name);
  return m != nullptr ? m->value : 0;
}

std::vector<service::Response> FleetCoordinator::run_requests(
    std::vector<service::Request> reqs) {
  std::vector<service::Response> out(reqs.size());
  if (reqs.empty()) return out;
  obs::Span run_span(obs::process_tracer(), "fleet.run",
                     static_cast<std::uint64_t>(reqs.size()));

  const std::size_t n = reqs.size();
  const unsigned W = cfg_.workers;
  const std::uint64_t deadline_step =
      static_cast<std::uint64_t>(cfg_.request_deadline_ms) * 1000000u;
  std::vector<unsigned> attempts(n, 0);
  std::size_t remaining = n;

  unsigned rr = 0;  // round-robin cursor for redistribution
  auto next_alive = [&]() -> int {
    for (unsigned k = 0; k < W; ++k) {
      const unsigned s = (rr + k) % W;
      if (workers_[s].alive) {
        rr = (s + 1) % W;
        return static_cast<int>(s);
      }
    }
    return -1;
  };

  auto fleet_dead = [&]() {
    throw std::runtime_error("fleet: all workers dead with " +
                             std::to_string(remaining) +
                             " request(s) unfinished");
  };

  // Flush a worker's pending frames through writev; false = fatal
  // write error (worker died under us), EAGAIN just parks the rest for
  // the next POLLOUT.
  auto flush = [&](unsigned slot) -> bool {
    Worker& w = workers_[slot];
    std::uint64_t bytes = 0, frames = 0;
    const WriteQueue::Flush r = w.outq.flush(w.to_fd, bytes, frames);
    if (bytes > 0) metrics_.add(bytes_tx_id_, bytes);
    if (frames > 0) metrics_.add(frames_tx_id_, frames);
    return r != WriteQueue::Flush::Error;
  };

  // Fill a worker's credit window from its queue: every slot of credit
  // becomes an encoded frame in the out-queue, then one flush pushes
  // the whole burst. A sent index is parked in `inflight` before the
  // write, so the death path always sees it as an interrupted attempt.
  auto pump = [&](unsigned slot) -> bool {
    Worker& w = workers_[slot];
    if (!w.alive) return true;
    bool queued_any = false;
    while (w.inflight.size() < cfg_.window && !w.queue.empty()) {
      const std::size_t idx = w.queue.front();
      w.queue.pop_front();
      if (w.inflight.empty() && cfg_.request_deadline_ms > 0)
        w.head_deadline_ns = steady_now_ns() + deadline_step;
      w.inflight.push_back(idx);
      ++attempts[idx];
      encode_scratch_.clear();
      service::encode_request_binary(reqs[idx], encode_scratch_);
      w.outq.push(encode_scratch_);
      queued_any = true;
    }
    if (queued_any)
      metrics_.record_max(window_depth_id_, w.inflight.size());
    return flush(slot);
  };

  // Reap a dead or wedged worker and redistribute its work: EVERY
  // request in its in-flight window is RETRIED (bounded by
  // max_attempts each — a credit window means a single crash can
  // interrupt up to `window` attempts at once), and its queued
  // requests are REASSIGNED, both round-robin onto surviving workers.
  std::function<void(unsigned)> on_death = [&](unsigned slot) {
    Worker& w = workers_[slot];
    if (!w.alive) return;
    w.alive = false;
    close_quiet(w.to_fd);
    close_quiet(w.from_fd);
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    metrics_.add(exit_id_);

    std::deque<std::size_t> interrupted = std::move(w.inflight);
    std::deque<std::size_t> queued = std::move(w.queue);
    w.inflight.clear();
    w.queue.clear();
    w.outq.clear();

    for (const std::size_t idx : interrupted) {
      if (attempts[idx] >= cfg_.max_attempts) {
        service::Response& r = out[idx];
        r.id = reqs[idx].id;
        r.status = service::Status::Error;
        r.error = "fleet: retry budget exhausted after " +
                  std::to_string(attempts[idx]) +
                  " attempts (worker crash or deadline)";
        --remaining;
        continue;
      }
      metrics_.add(retry_id_);
      obs::Span span(obs::process_tracer(), "fleet.retry",
                     static_cast<std::uint64_t>(idx));
      const int s = next_alive();
      if (s < 0) fleet_dead();
      workers_[static_cast<unsigned>(s)].queue.push_back(idx);
    }
    for (const std::size_t idx : queued) {
      metrics_.add(reassign_id_);
      const int s = next_alive();
      if (s < 0) fleet_dead();
      workers_[static_cast<unsigned>(s)].queue.push_back(idx);
    }
    for (unsigned s = 0; s < W; ++s)
      if (workers_[s].alive && !pump(s)) on_death(s);
  };

  // Drain every whole frame buffered for a worker. A worker is a
  // serial loop, so responses arrive in dispatch order: the head of
  // the in-flight window is the only id a well-behaved worker can
  // answer. Anything unexpected — an undecodable payload, a response
  // with any other id, an unsolicited frame — is a protocol violation
  // treated exactly like a crash.
  std::string payload;
  auto drain = [&](unsigned slot) {
    Worker& w = workers_[slot];
    while (w.alive) {
      const service::FrameResult fr = w.decoder.next(payload);
      if (fr == service::FrameResult::NeedMore) return;
      if (fr == service::FrameResult::TooLarge) {
        ::kill(w.pid, SIGKILL);
        on_death(slot);
        return;
      }
      metrics_.add(frames_rx_id_);
      service::Response resp;
      std::string err;
      if (!service::decode_response_binary(payload, resp, err) ||
          w.inflight.empty() ||
          resp.id != reqs[w.inflight.front()].id) {
        ::kill(w.pid, SIGKILL);
        on_death(slot);
        return;
      }
      const std::size_t idx = w.inflight.front();
      w.inflight.pop_front();
      // The next in-flight request is at the head now; its service
      // clock starts here, not at send time — with a full window a
      // request may legitimately sit behind `window - 1` others.
      if (!w.inflight.empty() && cfg_.request_deadline_ms > 0)
        w.head_deadline_ns = steady_now_ns() + deadline_step;
      out[idx] = std::move(resp);
      --remaining;
      if (!pump(slot)) {
        on_death(slot);
        return;
      }
    }
  };

  // ----- initial placement: the static partition --------------------------
  // owner_of() is a pure function of (total, configured width); a dead
  // slot's block is redistributed, which cannot change any response
  // byte — only where it is computed.
  for (std::size_t i = 0; i < n; ++i) {
    unsigned o = owner_of(static_cast<std::uint64_t>(n), W,
                          static_cast<std::uint64_t>(i));
    if (!workers_[o].alive) {
      const int s = next_alive();
      if (s < 0) fleet_dead();
      o = static_cast<unsigned>(s);
      metrics_.add(reassign_id_);
    }
    workers_[o].queue.push_back(i);
  }
  for (unsigned s = 0; s < W; ++s)
    if (!pump(s)) on_death(s);

  // ----- the poll loop -----------------------------------------------------
  while (remaining > 0) {
    std::vector<pollfd> fds;
    std::vector<unsigned> slot_of;
    for (unsigned s = 0; s < W; ++s) {
      const Worker& w = workers_[s];
      if (!w.alive) continue;
      if (!w.inflight.empty()) {
        fds.push_back(pollfd{w.from_fd, POLLIN, 0});
        slot_of.push_back(s);
      }
      if (!w.outq.empty()) {
        fds.push_back(pollfd{w.to_fd, POLLOUT, 0});
        slot_of.push_back(s);
      }
    }
    // Every unfinished request is either in flight or queued behind one
    // that is; no pollable worker with work remaining means the fleet
    // is gone.
    if (fds.empty()) fleet_dead();

    int timeout_ms = -1;
    if (cfg_.request_deadline_ms > 0) {
      const std::uint64_t now = steady_now_ns();
      std::uint64_t earliest = ~static_cast<std::uint64_t>(0);
      for (const unsigned s : slot_of)
        if (!workers_[s].inflight.empty() &&
            workers_[s].head_deadline_ns < earliest)
          earliest = workers_[s].head_deadline_ns;
      timeout_ms = earliest <= now
                       ? 0
                       : static_cast<int>((earliest - now) / 1000000u + 1);
    }

    const int pr = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("fleet: poll failed");
    }

    // Readable pipes first — a worker that answered in time must not
    // lose the race against its own deadline check below.
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const unsigned slot = slot_of[i];
      Worker& w = workers_[slot];
      if (!w.alive) continue;  // died in an earlier iteration's cascade
      if (fds[i].fd == w.to_fd) {
        // Room opened up in the request pipe: push the parked frames.
        if (!flush(slot)) on_death(slot);
        continue;
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[65536];
      const ssize_t nread = ::read(w.from_fd, buf, sizeof buf);
      if (nread < 0) {
        if (errno == EINTR) continue;
        on_death(slot);
        continue;
      }
      if (nread == 0) {
        on_death(slot);  // EOF: crashed (mid-frame or between frames)
        continue;
      }
      metrics_.add(bytes_rx_id_, static_cast<std::uint64_t>(nread));
      w.decoder.feed(
          std::string_view(buf, static_cast<std::size_t>(nread)));
      drain(slot);
    }

    if (cfg_.request_deadline_ms > 0) {
      const std::uint64_t now = steady_now_ns();
      for (unsigned s = 0; s < W; ++s) {
        Worker& w = workers_[s];
        if (w.alive && !w.inflight.empty() && now >= w.head_deadline_ns) {
          ::kill(w.pid, SIGKILL);  // wedged: hung kernel or stuck worker
          on_death(s);
        }
      }
    }
  }
  return out;
}

}  // namespace parbounds::fleet
