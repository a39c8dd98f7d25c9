#pragma once
// FdTransport — length-prefixed frames (sweep_service/protocol.hpp)
// over a pair of file descriptors, behind the service's Transport seam
// so the worker's serve loop is byte-compatible with the socket
// daemon's. Pipes and sockets both deliver arbitrary slices, so recv()
// reassembles frames through a FrameDecoder: short reads, frames split
// across pipe-buffer boundaries, and even a split 4-byte length prefix
// are all just NeedMore states, never errors.
//
// EOF is classified, not collapsed: a clean close between frames ends
// recv() with eof_mid_frame() == false, while EOF with partial-frame
// bytes buffered (a peer that died mid-write) sets it — the signal the
// fleet coordinator treats as a worker crash. Oversized frames are
// protocol errors and close the stream the same way.
//
// send() reuses one member scratch buffer for the framed bytes, so the
// steady-state response path performs no per-frame heap allocation
// (the buffer keeps its capacity across frames).
//
// WriteQueue is the coordinator-side counterpart: pending frames
// accumulate as discrete buffers and flush() pushes them through one
// writev(2) per call — every frame queued in a poll() iteration rides
// a single syscall — while fully-written buffers are recycled into a
// spare pool instead of freed, so pipelined request bursts allocate
// nothing once warm. The fd must be O_NONBLOCK: a full pipe parks the
// remainder (flush() returns Again) for the caller's next POLLOUT.

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "runtime/sweep_service/protocol.hpp"
#include "runtime/sweep_service/serve.hpp"

namespace parbounds::fleet {

class FdTransport : public service::Transport {
 public:
  /// Reads from `rfd`, writes to `wfd` (they may be the same fd, e.g. a
  /// connected socket). Does not own either descriptor. `max_payload`
  /// bounds frame payloads in both directions (protocol.hpp framing).
  FdTransport(int rfd, int wfd,
              std::size_t max_payload = service::kMaxFramePayload)
      : rfd_(rfd), wfd_(wfd), max_payload_(max_payload),
        decoder_(max_payload) {}

  /// Blocks for the next whole frame; false on EOF or protocol error.
  bool recv(std::string& payload) override;

  /// Writes one whole frame, looping over short writes. A failed or
  /// partial write (peer gone) sets send_failed().
  void send(const std::string& payload) override;

  bool eof_mid_frame() const { return eof_mid_frame_; }
  bool send_failed() const { return send_failed_; }

 private:
  int rfd_;
  int wfd_;
  std::size_t max_payload_;
  service::FrameDecoder decoder_;
  std::string frame_scratch_;  ///< reused framed-bytes buffer
  bool eof_mid_frame_ = false;
  bool send_failed_ = false;
};

/// Batched, buffer-reusing frame writer over a non-blocking fd.
class WriteQueue {
 public:
  enum class Flush : std::uint8_t {
    Done,   ///< queue drained
    Again,  ///< fd full (EAGAIN); retry on POLLOUT
    Error,  ///< fatal write error (peer gone)
  };

  /// Frame `payload` and append it to the queue. Buffers come from the
  /// spare pool when one is available.
  void push(std::string_view payload,
            std::size_t max_payload = service::kMaxFramePayload);

  /// writev() pending frames to `fd` until drained, EAGAIN, or error.
  /// `bytes_written`/`frames_written` accumulate what this call moved.
  Flush flush(int fd, std::uint64_t& bytes_written,
              std::uint64_t& frames_written);

  bool empty() const { return frames_.empty(); }
  /// Recycle every pending frame (worker died; its bytes are moot).
  void clear();

 private:
  std::deque<std::string> frames_;   ///< pending framed bytes, FIFO
  std::size_t front_off_ = 0;        ///< bytes of frames_.front() written
  std::vector<std::string> spare_;   ///< recycled buffers, capacity kept
};

}  // namespace parbounds::fleet
