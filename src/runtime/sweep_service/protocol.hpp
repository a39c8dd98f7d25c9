#pragma once
// Wire protocol of the sweep service (docs/SERVICE.md).
//
// Two codecs share one Request/Response model:
//
//  * JSON, for the human-facing daemon (parbounds_serve): one message =
//    one JSON object on a single line, carried as JSONL over stdio or
//    in length-prefixed frames over a Unix socket (4-byte
//    little-endian payload length, then the payload bytes).
//  * binary, for the fleet's pipes between a coordinator and its
//    workers (see below).
//
// Both are deliberately strict — unknown keys, duplicate keys, missing
// required fields, wrong types and trailing bytes are all typed decode
// errors, never best-effort guesses — because a cache keyed by request
// content cannot afford two spellings of the same request.
//
// JSON requests:
//   {"id":N,"op":"run","engine":E,"workload":W,"params":{k:v,...},"seed":S}
//   {"id":N,"op":"stats"}   {"id":N,"op":"ping"}   {"id":N,"op":"shutdown"}
// JSON responses:
//   {"id":N,"status":"ok","cached":B,"cost":C}       completed run
//   {"id":N,"status":"ok","stats":{...}}             stats snapshot
//   {"id":N,"status":"ok"}                           ping/shutdown ack
//   {"id":N,"status":"retry"}                        admission queue full
//   {"id":N,"status":"error","error":"..."}          typed failure
//
// "run" executes ONE trial: `seed` is the derived per-trial seed. "cell"
// is the fleet's unit of work and exists only on the binary wire
// (docs/SERVICE.md#fleet): R whole repetitions of one sweep cell, where
// `seed` is the sweep's BASE seed and repetition r runs with
// derive_seed(seed, trial0 + r) — the same derivation an in-process
// sweep applies, so a cell answered by any worker carries exactly the
// trial costs the local runner would have produced. A cell response
// carries the per-repetition costs and the worker's per-cell
// MetricsSnapshot in snapshot-wire form
// (src/runtime/fleet/snapshot_wire.hpp) so the coordinator can
// reassemble the report's metrics block.
//
// The cache key of a run/cell request is sha256_hex(canonical_request()):
// a fixed code-version tag, engine, workload, the params sorted by
// name, and the seed — for a run, exactly the tuple that determines a
// trial's cost (docs/RUNTIME.md seeding discipline); for a cell, the
// base seed plus a cell marker with trial0/trials, which pins every
// derived seed of the repetition block.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/sweep.hpp"

namespace parbounds::service {

/// Bumped whenever a change makes previously cached entries stale (a
/// cost model fix, a kernel change, a change to the metrics a fleet
/// cell entry stores). Part of every cache key.
inline constexpr const char* kCodeVersion = "parbounds-service-v3";

enum class Op : std::uint8_t { Run, Cell, Stats, Ping, Shutdown };

const char* op_name(Op op);

struct Request {
  std::uint64_t id = 0;
  Op op = Op::Run;
  runtime::ServiceSpec spec;   ///< engine/workload/params (Run/Cell)
  std::uint64_t seed = 0;      ///< Run: the DERIVED per-trial seed;
                               ///< Cell: the sweep's BASE seed
  std::uint64_t trial0 = 0;    ///< Cell: global index of repetition 0
  std::uint64_t trials = 0;    ///< Cell: repetition count (>= 1)
};

enum class Status : std::uint8_t { Ok, Retry, Error };

const char* status_name(Status s);

struct Response {
  std::uint64_t id = 0;
  Status status = Status::Ok;
  bool cached = false;       ///< run/cell: served from the result cache
  bool has_cost = false;     ///< run responses carry a cost
  double cost = 0.0;         ///< model cost (exact on both codecs)
  std::vector<double> costs; ///< cell responses: per-repetition costs
  std::string telemetry;     ///< cell responses: snapshot-wire metrics
  std::string stats_json;    ///< stats responses: raw snapshot JSON
  std::string error;         ///< status == Error: human-readable cause
};

// ----- JSON codec (the daemon) ----------------------------------------------

/// Run/stats/ping/shutdown only: a cell request or a cell response
/// (costs, telemetry) has no JSON spelling.
std::string encode_request(const Request& req);
std::string encode_response(const Response& resp);

/// Strict decode; on failure returns false and sets `err` (the caller
/// turns that into a typed "error" response, never a crash).
bool decode_request(std::string_view payload, Request& out, std::string& err);
bool decode_response(std::string_view payload, Response& out,
                     std::string& err);

// ----- binary codec (the fleet wire) ----------------------------------------
//
// The only codec on the fleet's pipes (docs/SERVICE.md#fleet-wire):
// length-delimited binary messages. Strings and small integers are
// varint-prefixed (LEB128); seeds, metric values and costs are
// fixed-width little-endian so u64 and double payloads round trip
// BIT-EXACT — no %.17g text detour. A leading magic byte (0xF2
// requests, 0xF3 responses) can never collide with the '{' that opens
// every JSON message, so a codec mismatch is a typed decode error, not
// a misparse. The decoders are as strict as the JSON ones: truncation,
// trailing bytes, unknown ops/statuses, invalid field combinations and
// NaN cost payloads (cost models never produce NaN; on this wire a NaN
// is corruption) all fail typed, never crash — test_sweep_service
// fuzzes them byte-at-a-time.

/// The fleet wire's version, reported by FleetCoordinator::wire().
inline constexpr unsigned kWireVersionBinary = 2;

inline constexpr char kBinaryRequestMagic = static_cast<char>(0xF2);
inline constexpr char kBinaryResponseMagic = static_cast<char>(0xF3);

std::string encode_request_binary(const Request& req);
/// Throws std::invalid_argument on a NaN cost (nothing upstream can
/// produce one; refusing at the encoder keeps both wire directions
/// NaN-free by construction).
std::string encode_response_binary(const Response& resp);
/// Append-into-buffer variants for allocation-free steady-state encode
/// (the caller owns a reused scratch string).
void encode_request_binary(const Request& req, std::string& out);
void encode_response_binary(const Response& resp, std::string& out);

bool decode_request_binary(std::string_view payload, Request& out,
                           std::string& err);
bool decode_response_binary(std::string_view payload, Response& out,
                            std::string& err);

// ----- cache keying ---------------------------------------------------------

/// "parbounds-service-v3|engine=E|workload=W|k1=v1|...|seed=S" with the
/// params sorted by name. Pure function of the request content.
std::string canonical_request(const Request& req);

/// sha256_hex(canonical_request(req)) — the content address.
std::string cache_key(const Request& req);

// ----- length-prefixed framing (socket transport) ---------------------------

/// Default frame-payload bound. Frames above the active limit are
/// refused on both sides: a reader that trusted a corrupt 4-byte header
/// would happily allocate gigabytes. The limit is a parameter of
/// append_frame/extract_frame/FrameDecoder (a transport that knows its
/// messages are tiny can bound harder); this constant is only the
/// default.
inline constexpr std::size_t kMaxFramePayload = 1 << 20;

/// Append [u32le length | payload] to `buf`. Throws std::length_error
/// when the payload exceeds `max_payload` — the writer-side twin of
/// the reader's TooLarge refusal (before this guard, an oversized
/// payload had its length silently truncated by the u32 cast, which
/// desynchronizes the stream instead of failing loudly). The message
/// names both the observed size and the active limit.
void append_frame(std::string& buf, std::string_view payload,
                  std::size_t max_payload = kMaxFramePayload);

enum class FrameResult : std::uint8_t { NeedMore, Ok, TooLarge };

/// Try to extract one frame from the front of `buf`. On Ok, `payload`
/// holds the message and `consumed` the bytes to drop from the front.
/// NeedMore means the buffer holds a prefix of a valid frame; TooLarge
/// is a protocol error (close the connection).
FrameResult extract_frame(std::string_view buf, std::string& payload,
                          std::size_t& consumed,
                          std::size_t max_payload = kMaxFramePayload);

/// Incremental frame reassembly for byte streams that arrive in
/// arbitrary slices — pipes deliver whatever the kernel buffered, so a
/// frame routinely lands split across read() calls, including inside
/// its 4-byte length prefix. feed() appends raw bytes; next() yields
/// complete frames in order (NeedMore when the tail is a partial
/// frame). Consumed bytes are dropped lazily and compacted in amortized
/// O(1), unlike the erase-from-front pattern the socket daemon used.
/// mid_frame() reports whether undelivered partial-frame bytes are
/// buffered — at EOF that distinguishes a clean close (between frames)
/// from a peer that died mid-message, which the fleet coordinator
/// treats as a worker crash (docs/SERVICE.md).
class FrameDecoder {
 public:
  FrameDecoder() = default;
  /// Bound frame payloads at `max_payload` instead of the default 1 MiB.
  explicit FrameDecoder(std::size_t max_payload)
      : max_payload_(max_payload) {}

  void feed(std::string_view bytes);
  FrameResult next(std::string& payload);
  bool mid_frame() const { return off_ < buf_.size(); }
  std::size_t buffered() const { return buf_.size() - off_; }
  std::size_t max_payload() const { return max_payload_; }
  /// After next() returned TooLarge: names the observed payload size
  /// and the active limit. Empty otherwise.
  const std::string& error() const { return error_; }

 private:
  std::string buf_;
  std::size_t off_ = 0;  ///< consumed prefix, reclaimed by compaction
  std::size_t max_payload_ = kMaxFramePayload;
  std::string error_;
};

}  // namespace parbounds::service
