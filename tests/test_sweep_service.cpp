// Sweep-service protocol and daemon-core tests.
//
// The protocol half is a fuzz/property pass in the test_fuzz_engine
// mold: trials fan out through the ExperimentRunner with derived seeds
// and workers return error strings (gtest macros are not thread-safe
// off the main thread). Properties pinned: encode/decode round-trips
// for random requests and responses, frame round-trips with every kind
// of short read, and the no-crash guarantee on truncated, byte-flipped
// and garbage payloads — malformed input is a typed decode error,
// never undefined behavior.
//
// The service half drives SweepService directly: load shedding at a
// full admission queue, in-batch dedup (N identical requests, one
// execution), typed registry errors, and the corrupt-entry rule — a
// garbled cache file is re-run, never served. The registry half pins
// every table entry's dispatch to its direct kernels:: call.

#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "algos/cost_kernels.hpp"
#include "core/cost.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep_service/protocol.hpp"
#include "runtime/sweep_service/registry.hpp"
#include "runtime/sweep_service/service.hpp"
#include "util/rng.hpp"

namespace parbounds::service {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFuzzTrials = 64;
constexpr unsigned kFuzzJobs = 4;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("sweep_service_" + name);
  fs::remove_all(dir);
  return dir;
}

/// Run `check` once per derived seed on a fixed-size worker pool and
/// report every failing trial (the test_fuzz_engine discipline).
void run_fuzz(std::uint64_t base,
              const std::function<std::string(std::uint64_t seed)>& check) {
  runtime::ExperimentRunner pool({.jobs = kFuzzJobs});
  const auto faults =
      pool.map<std::string>(kFuzzTrials, [&](std::uint64_t trial) {
        return check(runtime::derive_seed(base, trial));
      });
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_TRUE(faults[i].empty()) << "trial " << i << ": " << faults[i];
}

// ---------------------------------------------------------------------
// Random message generators. Names and texts deliberately include every
// character class json_escape has to handle: quotes, backslashes,
// control bytes, and high (non-ASCII) bytes.

std::string random_text(Rng& rng, bool nasty) {
  static const char kNice[] =
      "abcdefghijklmnopqrstuvwxyz_0123456789";
  static const char kNasty[] = {'"', '\\', '\n', '\t', '\r',
                                '\x07', '\x1f', '\xe9'};
  std::string out;
  const std::uint64_t len = 1 + rng.next_below(12);
  for (std::uint64_t i = 0; i < len; ++i) {
    if (nasty && rng.next_bool(0.25))
      out += kNasty[rng.next_below(sizeof kNasty)];
    else
      out += kNice[rng.next_below(sizeof kNice - 1)];
  }
  return out;
}

double random_cost(Rng& rng) {
  // Fractions, negatives and large magnitudes; always finite, so the
  // %.17g wire format must reproduce the exact bits.
  const double magnitude =
      static_cast<double>(rng.next()) / (1.0 + rng.next_below(7));
  return rng.next_bool() ? magnitude : -magnitude;
}

Request random_request(Rng& rng) {
  Request req;
  req.id = rng.next();
  switch (rng.next_below(4)) {
    case 0: req.op = Op::Run; break;
    case 1: req.op = Op::Stats; break;
    case 2: req.op = Op::Ping; break;
    default: req.op = Op::Shutdown; break;
  }
  if (req.op == Op::Run) {
    req.spec.engine = random_text(rng, /*nasty=*/true);
    req.spec.workload = random_text(rng, /*nasty=*/true);
    const std::uint64_t nparams = rng.next_below(5);
    for (std::uint64_t i = 0; i < nparams; ++i) {
      // Distinct names by construction: a random stem plus the index.
      req.spec.params.emplace_back(
          random_text(rng, /*nasty=*/false) + std::to_string(i), rng.next());
    }
    req.seed = rng.next();
  }
  return req;
}

Response random_response(Rng& rng) {
  Response resp;
  resp.id = rng.next();
  switch (rng.next_below(3)) {
    case 0: resp.status = Status::Ok; break;
    case 1: resp.status = Status::Retry; break;
    default:
      resp.status = Status::Error;
      resp.error = random_text(rng, /*nasty=*/true);
      break;
  }
  if (resp.status == Status::Ok) {
    if (rng.next_bool()) {
      resp.has_cost = true;
      resp.cached = rng.next_bool();
      resp.cost = random_cost(rng);
    } else if (rng.next_bool()) {
      resp.stats_json = "{\"counters\":{\"cache.hit\":" +
                        std::to_string(rng.next_below(1000)) + "}}";
    }
  }
  return resp;
}

std::string diff_requests(const Request& a, const Request& b) {
  if (a.id != b.id) return "id mismatch";
  if (a.op != b.op) return "op mismatch";
  if (a.spec.engine != b.spec.engine) return "engine mismatch";
  if (a.spec.workload != b.spec.workload) return "workload mismatch";
  if (a.spec.params != b.spec.params) return "params mismatch";
  if (a.seed != b.seed) return "seed mismatch";
  return "";
}

std::string diff_responses(const Response& a, const Response& b) {
  if (a.id != b.id) return "id mismatch";
  if (a.status != b.status) return "status mismatch";
  if (a.cached != b.cached) return "cached mismatch";
  if (a.has_cost != b.has_cost) return "has_cost mismatch";
  if (a.has_cost && a.cost != b.cost) return "cost did not round-trip";
  if (a.stats_json != b.stats_json) return "stats mismatch";
  if (a.error != b.error) return "error mismatch";
  return "";
}

// ---------------------------------------------------------------------
// Property: encode/decode round-trips exactly.

std::string check_request_roundtrip(std::uint64_t seed) {
  Rng rng(seed);
  const Request req = random_request(rng);
  Request out;
  std::string err;
  if (!decode_request(encode_request(req), out, err))
    return "decode of encoded request failed: " + err;
  if (const std::string d = diff_requests(req, out); !d.empty()) return d;

  // The cache key must not depend on param declaration order.
  if (req.spec.params.size() > 1) {
    Request shuffled = req;
    std::reverse(shuffled.spec.params.begin(), shuffled.spec.params.end());
    if (cache_key(shuffled) != cache_key(req))
      return "cache key depends on param order";
  }
  return "";
}

std::string check_response_roundtrip(std::uint64_t seed) {
  Rng rng(seed);
  const Response resp = random_response(rng);
  Response out;
  std::string err;
  if (!decode_response(encode_response(resp), out, err))
    return "decode of encoded response failed: " + err;
  return diff_responses(resp, out);
}

TEST(ProtocolFuzz, RequestsRoundTrip) { run_fuzz(100, check_request_roundtrip); }

TEST(ProtocolFuzz, ResponsesRoundTrip) {
  run_fuzz(200, check_response_roundtrip);
}

// ---------------------------------------------------------------------
// Property: malformed payloads are typed errors, never crashes.

std::string check_malformed_safety(std::uint64_t seed) {
  Rng rng(seed);
  const std::string req_bytes = encode_request(random_request(rng));
  const std::string resp_bytes = encode_response(random_response(rng));

  for (const std::string& base : {req_bytes, resp_bytes}) {
    // Every strict prefix must be rejected with a message (a JSON
    // object is only complete at its final brace).
    for (int k = 0; k < 8; ++k) {
      const std::string prefix = base.substr(0, rng.next_below(base.size()));
      Request r;
      Response p;
      std::string err;
      if (decode_request(prefix, r, err))
        return "accepted truncated request '" + prefix + "'";
      if (err.empty()) return "truncation rejected without a message";
      err.clear();
      if (decode_response(prefix, p, err))
        return "accepted truncated response '" + prefix + "'";
      if (err.empty()) return "truncation rejected without a message";
    }

    // Byte flips and insertions may or may not stay well-formed; either
    // way: no crash, and anything accepted must re-encode losslessly.
    for (int k = 0; k < 16; ++k) {
      std::string m = base;
      if (rng.next_bool())
        m[rng.next_below(m.size())] =
            static_cast<char>(rng.next_below(256));
      else
        m.insert(m.begin() +
                     static_cast<std::ptrdiff_t>(rng.next_below(m.size() + 1)),
                 static_cast<char>(rng.next_below(256)));
      Request r;
      std::string err;
      if (decode_request(m, r, err)) {
        Request again;
        if (!decode_request(encode_request(r), again, err))
          return "re-encode of an accepted mutant failed: " + err;
        if (const std::string d = diff_requests(r, again); !d.empty())
          return "mutant round-trip drift: " + d;
      } else if (err.empty()) {
        return "mutant rejected without a message";
      }
      Response p;
      err.clear();
      if (!decode_response(m, p, err) && err.empty())
        return "mutant response rejected without a message";
    }
  }

  // Pure garbage bytes.
  for (int k = 0; k < 8; ++k) {
    std::string g;
    const std::uint64_t len = rng.next_below(64);
    for (std::uint64_t i = 0; i < len; ++i)
      g += static_cast<char>(rng.next_below(256));
    Request r;
    Response p;
    std::string err;
    (void)decode_request(g, r, err);
    err.clear();
    (void)decode_response(g, p, err);
  }
  return "";
}

TEST(ProtocolFuzz, MalformedPayloadsNeverCrash) {
  run_fuzz(300, check_malformed_safety);
}

// ---------------------------------------------------------------------
// Property: length-prefixed framing survives arbitrary chunking.

std::string check_frame_roundtrip(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> payloads;
  std::string buf;
  const std::uint64_t count = 1 + rng.next_below(4);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string payload;
    const std::uint64_t len = rng.next_below(600);
    for (std::uint64_t b = 0; b < len; ++b)
      payload += static_cast<char>(rng.next_below(256));
    payloads.push_back(payload);
    append_frame(buf, payload);
  }

  // Every strict prefix of the first frame is a short read.
  const std::size_t first_len = 4 + payloads[0].size();
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, first_len / 2,
        first_len - 1}) {
    std::string payload;
    std::size_t consumed = 0;
    if (extract_frame(std::string_view(buf).substr(0, cut), payload,
                      consumed) != FrameResult::NeedMore)
      return "prefix of " + std::to_string(cut) + " bytes was not NeedMore";
  }

  // Draining the buffer yields the payloads in order, byte-exact.
  std::string_view rest = buf;
  for (const std::string& want : payloads) {
    std::string payload;
    std::size_t consumed = 0;
    if (extract_frame(rest, payload, consumed) != FrameResult::Ok)
      return "frame extraction failed mid-stream";
    if (payload != want) return "frame payload mismatch";
    if (consumed != 4 + want.size()) return "consumed mismatch";
    rest.remove_prefix(consumed);
  }
  if (!rest.empty()) return "bytes left after the last frame";
  return "";
}

TEST(ProtocolFuzz, FramesSurviveChunking) { run_fuzz(400, check_frame_roundtrip); }

// ---------------------------------------------------------------------
// Deterministic decode edge cases (one assertion per rule, so a codec
// regression names the rule it broke).

TEST(ProtocolStrictness, RejectsDuplicateAndUnknownKeys) {
  Request r;
  std::string err;
  EXPECT_FALSE(decode_request(R"({"id":1,"id":2,"op":"ping"})", r, err));
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
  EXPECT_FALSE(decode_request(R"({"id":1,"op":"ping","bogus":3})", r, err));
  EXPECT_NE(err.find("unknown request key"), std::string::npos) << err;
  EXPECT_FALSE(decode_request(
      R"({"id":1,"op":"run","engine":"qsm","workload":"w",)"
      R"("params":{"n":1,"n":2},"seed":0})",
      r, err));
  EXPECT_NE(err.find("duplicate param"), std::string::npos) << err;
}

TEST(ProtocolStrictness, RejectsMissingAndMisplacedFields) {
  Request r;
  std::string err;
  EXPECT_FALSE(decode_request(R"({"op":"ping"})", r, err));
  EXPECT_NE(err.find("'id'"), std::string::npos) << err;
  EXPECT_FALSE(decode_request(
      R"({"id":1,"op":"run","engine":"qsm","workload":"w"})", r, err));
  EXPECT_NE(err.find("'seed'"), std::string::npos) << err;
  // Run fields on a non-run op are rejected, not ignored — silently
  // dropped content would alias distinct requests.
  EXPECT_FALSE(decode_request(R"({"id":1,"op":"ping","seed":3})", r, err));
  EXPECT_NE(err.find("takes no run fields"), std::string::npos) << err;
  EXPECT_FALSE(decode_request(R"({"id":1,"op":"ping"}x)", r, err));
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(ProtocolStrictness, ResponseInvariantsAreEnforced) {
  Response p;
  std::string err;
  EXPECT_FALSE(decode_response(R"({"id":1,"status":"ok","cached":true})", p,
                               err));
  EXPECT_NE(err.find("'cached' without 'cost'"), std::string::npos) << err;
  EXPECT_FALSE(decode_response(R"({"id":1,"status":"error"})", p, err));
  EXPECT_NE(err.find("missing 'error'"), std::string::npos) << err;
  EXPECT_FALSE(decode_response(R"({"id":1,"status":"maybe"})", p, err));
  EXPECT_NE(err.find("unknown status"), std::string::npos) << err;
}

TEST(ProtocolCell, CellRequestAndResponseRoundTrip) {
  // The fleet's cell op (docs/SERVICE.md#fleet): base seed + trial0 +
  // trials, answered with per-repetition costs and a telemetry wire.
  Request req;
  req.id = 11;
  req.op = Op::Cell;
  req.spec = {.engine = "qsm",
              .workload = "parity_circuit",
              .params = {{"n", 64}, {"g", 2}}};
  req.seed = 42;
  req.trial0 = 6;
  req.trials = 3;
  Request back;
  std::string err;
  ASSERT_TRUE(decode_request_binary(encode_request_binary(req), back, err))
      << err;
  EXPECT_EQ(back.op, Op::Cell);
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.trial0, 6u);
  EXPECT_EQ(back.trials, 3u);
  EXPECT_EQ(encode_request_binary(back), encode_request_binary(req));

  Response resp;
  resp.id = 11;
  resp.costs = {12.0, 8.5, 0.0078125};
  resp.telemetry = std::string("\x01\x00\x0aqsm.phases\x07", 14);
  Response rback;
  ASSERT_TRUE(
      decode_response_binary(encode_response_binary(resp), rback, err))
      << err;
  EXPECT_EQ(rback.costs, resp.costs);
  EXPECT_EQ(rback.telemetry, resp.telemetry);
  EXPECT_EQ(encode_response_binary(rback), encode_response_binary(resp));
}

TEST(ProtocolCell, CellFieldRulesAreStrict) {
  Request r;
  std::string err;
  // Cells travel only on the fleet's binary wire: the daemon's JSON
  // codec knows neither the op nor its fields...
  EXPECT_FALSE(decode_request(
      R"({"id":1,"op":"cell","engine":"qsm","workload":"w",)"
      R"("params":{"n":1},"seed":0})",
      r, err));
  EXPECT_NE(err.find("unknown op 'cell'"), std::string::npos) << err;
  EXPECT_FALSE(decode_request(
      R"({"id":1,"op":"run","engine":"qsm","workload":"w",)"
      R"("params":{"n":1},"seed":0,"trial0":0,"trials":2})",
      r, err));
  EXPECT_NE(err.find("unknown request key 'trial0'"), std::string::npos)
      << err;
  Response p;
  EXPECT_FALSE(decode_response(R"({"id":1,"status":"ok","costs":[1]})", p,
                               err));
  EXPECT_NE(err.find("unknown response key 'costs'"), std::string::npos)
      << err;
  EXPECT_FALSE(decode_response(
      R"({"id":1,"status":"ok","telemetry":"x"})", p, err));
  EXPECT_NE(err.find("unknown response key 'telemetry'"), std::string::npos)
      << err;
  // ...and on the binary wire an empty repetition block is meaningless.
  Request cell;
  cell.op = Op::Cell;
  cell.spec = {.engine = "qsm", .workload = "w", .params = {{"n", 1}}};
  cell.trials = 0;
  EXPECT_FALSE(decode_request_binary(encode_request_binary(cell), r, err));
  EXPECT_NE(err.find("trials >= 1"), std::string::npos) << err;
}

TEST(ProtocolCell, CanonicalCellKeyIsDisjointFromRunKeys) {
  // A cell key appends "|cell|trial0=..|trials=.." to the run recipe;
  // the same spec+seed as a single run must hash differently, and the
  // repetition block is part of the content address.
  Request run;
  run.op = Op::Run;
  run.spec = {.engine = "qsm", .workload = "w", .params = {{"n", 1}}};
  run.seed = 7;
  Request cell = run;
  cell.op = Op::Cell;
  cell.trial0 = 0;
  cell.trials = 3;
  EXPECT_EQ(canonical_request(cell),
            canonical_request(run) + "|cell|trial0=0|trials=3");
  EXPECT_NE(cache_key(cell), cache_key(run));
  Request shifted = cell;
  shifted.trial0 = 3;
  EXPECT_NE(cache_key(shifted), cache_key(cell));
}

TEST(ProtocolFraming, AppendFrameRefusesOversizedPayloads) {
  // Writer-side twin of TooLarge: a payload over the cap throws instead
  // of silently truncating its length header and desyncing the stream.
  std::string buf;
  EXPECT_THROW(append_frame(buf, std::string(kMaxFramePayload + 1, 'x')),
               std::length_error);
  EXPECT_TRUE(buf.empty());  // nothing half-written
}

TEST(ProtocolFraming, OversizedHeaderIsAProtocolError) {
  // A corrupt 4-byte header must not be trusted: a length just past the
  // cap reports TooLarge instead of waiting for gigabytes.
  const std::uint32_t n = kMaxFramePayload + 1;
  std::string buf;
  for (unsigned i = 0; i < 4; ++i)
    buf += static_cast<char>((n >> (8U * i)) & 0xFFU);
  std::string payload;
  std::size_t consumed = 0;
  EXPECT_EQ(extract_frame(buf, payload, consumed), FrameResult::TooLarge);
}

TEST(ProtocolFraming, HeaderIsLittleEndian) {
  std::string buf;
  append_frame(buf, "ab");
  ASSERT_EQ(buf.size(), 6u);
  EXPECT_EQ(buf.substr(0, 4), std::string("\x02\x00\x00\x00", 4));
  EXPECT_EQ(buf.substr(4), "ab");
}

TEST(ProtocolFraming, PayloadLimitIsAParameterOnBothSides) {
  // The 1 MiB default is only a default: writers and readers that know
  // their messages are tiny can bound harder, and the TooLarge refusal
  // must name both the observed size and the active limit so a
  // mis-sized transport is diagnosable from the log.
  std::string buf;
  try {
    append_frame(buf, "12345", /*max_payload=*/4);
    FAIL() << "oversized payload was framed";
  } catch (const std::length_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("5 bytes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("limit of 4"), std::string::npos) << msg;
  }
  EXPECT_TRUE(buf.empty());
  append_frame(buf, "1234", /*max_payload=*/4);  // at the limit is fine

  std::string payload;
  std::size_t consumed = 0;
  std::string five;
  append_frame(five, "12345");  // default limit allows it...
  EXPECT_EQ(extract_frame(five, payload, consumed, /*max_payload=*/4),
            FrameResult::TooLarge);  // ...a bounded reader refuses it

  FrameDecoder dec(/*max_payload=*/4);
  EXPECT_EQ(dec.max_payload(), 4u);
  EXPECT_TRUE(dec.error().empty());
  dec.feed(five);
  EXPECT_EQ(dec.next(payload), FrameResult::TooLarge);
  EXPECT_NE(dec.error().find("5 bytes"), std::string::npos) << dec.error();
  EXPECT_NE(dec.error().find("limit of 4"), std::string::npos) << dec.error();
}

// ---------------------------------------------------------------------
// Binary codec (the fleet wire): the same properties the JSON codec is
// held to — lossless round-trips, typed rejection of every malformed
// input — plus bit-exactness.

/// random_request, sometimes upgraded to the fleet's cell op (the op
/// only the binary wire carries).
Request random_binary_request(Rng& rng) {
  Request req = random_request(rng);
  if (req.op == Op::Run && rng.next_bool()) {
    req.op = Op::Cell;
    req.trial0 = rng.next_below(1000);
    req.trials = 1 + rng.next_below(8);
  }
  return req;
}

/// random_response, sometimes reshaped into a cell response (costs
/// list + telemetry wire) — the shape the fleet data plane actually
/// carries.
Response random_binary_response(Rng& rng) {
  Response resp = random_response(rng);
  if (resp.status == Status::Ok && rng.next_bool()) {
    resp.has_cost = false;
    resp.costs.clear();
    const std::uint64_t n = 1 + rng.next_below(6);
    for (std::uint64_t i = 0; i < n; ++i) resp.costs.push_back(random_cost(rng));
    resp.cached = rng.next_bool();
    if (rng.next_bool()) resp.telemetry = random_text(rng, /*nasty=*/true);
  }
  return resp;
}

std::string check_binary_request_roundtrip(std::uint64_t seed) {
  Rng rng(seed);
  const Request req = random_binary_request(rng);
  const std::string wire = encode_request_binary(req);
  if (wire.empty() || wire[0] != kBinaryRequestMagic)
    return "request magic missing";
  Request out;
  std::string err;
  if (!decode_request_binary(wire, out, err))
    return "decode of encoded binary request failed: " + err;
  if (const std::string d = diff_requests(req, out); !d.empty()) return d;
  if (out.trial0 != req.trial0 || out.trials != req.trials)
    return "cell repetition block did not round-trip";
  // The encoding is canonical: re-encoding what we decoded reproduces
  // the wire bytes, so cached frames can be compared byte-wise.
  if (encode_request_binary(out) != wire) return "re-encode drifted";

  // Cross-codec equivalence: the JSON codec decodes every op it
  // carries (all but the cell) to the same struct.
  if (req.op == Op::Cell) return "";
  Request via_json;
  if (!decode_request(encode_request(req), via_json, err))
    return "JSON decode failed: " + err;
  if (const std::string d = diff_requests(out, via_json); !d.empty())
    return "binary and JSON decode disagree: " + d;
  return "";
}

std::string check_binary_response_roundtrip(std::uint64_t seed) {
  Rng rng(seed);
  const Response resp = random_binary_response(rng);
  const std::string wire = encode_response_binary(resp);
  if (wire.empty() || wire[0] != kBinaryResponseMagic)
    return "response magic missing";
  Response out;
  std::string err;
  if (!decode_response_binary(wire, out, err))
    return "decode of encoded binary response failed: " + err;
  if (const std::string d = diff_responses(resp, out); !d.empty()) return d;
  if (out.costs.size() != resp.costs.size())
    return "costs length did not round-trip";
  for (std::size_t i = 0; i < resp.costs.size(); ++i)
    if (std::memcmp(&out.costs[i], &resp.costs[i], sizeof(double)) != 0)
      return "cost bits drifted at index " + std::to_string(i);
  if (out.telemetry != resp.telemetry) return "telemetry did not round-trip";
  if (encode_response_binary(out) != wire) return "re-encode drifted";
  return "";
}

TEST(BinaryCodec, RequestsRoundTrip) {
  run_fuzz(500, check_binary_request_roundtrip);
}

TEST(BinaryCodec, ResponsesRoundTrip) {
  run_fuzz(600, check_binary_response_roundtrip);
}

std::string check_binary_malformed_safety(std::uint64_t seed) {
  Rng rng(seed);
  const std::string req_bytes =
      encode_request_binary(random_binary_request(rng));
  const std::string resp_bytes =
      encode_response_binary(random_binary_response(rng));

  // EVERY strict prefix, byte at a time: a binary message is only
  // complete at its last byte (the decoders refuse trailing bytes, so
  // a prefix can never alias a shorter valid message either).
  for (const std::string& base : {req_bytes, resp_bytes}) {
    for (std::size_t cut = 0; cut < base.size(); ++cut) {
      const std::string_view prefix(base.data(), cut);
      Request r;
      Response p;
      std::string err;
      if (decode_request_binary(prefix, r, err))
        return "accepted truncated binary request at " + std::to_string(cut);
      if (err.empty()) return "truncation rejected without a message";
      err.clear();
      if (decode_response_binary(prefix, p, err))
        return "accepted truncated binary response at " + std::to_string(cut);
      if (err.empty()) return "truncation rejected without a message";
    }

    // Byte flips and insertions: no crash; anything accepted must
    // round-trip losslessly through a re-encode.
    for (int k = 0; k < 16; ++k) {
      std::string m = base;
      if (rng.next_bool())
        m[rng.next_below(m.size())] = static_cast<char>(rng.next_below(256));
      else
        m.insert(m.begin() +
                     static_cast<std::ptrdiff_t>(rng.next_below(m.size() + 1)),
                 static_cast<char>(rng.next_below(256)));
      Request r;
      std::string err;
      if (decode_request_binary(m, r, err)) {
        Request again;
        if (!decode_request_binary(encode_request_binary(r), again, err))
          return "re-encode of an accepted binary mutant failed: " + err;
        if (const std::string d = diff_requests(r, again); !d.empty())
          return "binary mutant round-trip drift: " + d;
      } else if (err.empty()) {
        return "binary mutant rejected without a message";
      }
      Response p;
      err.clear();
      if (!decode_response_binary(m, p, err) && err.empty())
        return "binary mutant response rejected without a message";
    }
  }

  // Pure garbage, with and without a genuine magic byte up front.
  for (int k = 0; k < 8; ++k) {
    std::string g;
    if (rng.next_bool())
      g += rng.next_bool() ? kBinaryRequestMagic : kBinaryResponseMagic;
    const std::uint64_t len = rng.next_below(64);
    for (std::uint64_t i = 0; i < len; ++i)
      g += static_cast<char>(rng.next_below(256));
    Request r;
    Response p;
    std::string err;
    (void)decode_request_binary(g, r, err);
    err.clear();
    (void)decode_response_binary(g, p, err);
  }
  return "";
}

TEST(BinaryCodec, MalformedPayloadsNeverCrashByteAtATime) {
  run_fuzz(700, check_binary_malformed_safety);
}

TEST(BinaryCodec, MagicBytesAreDisjointFromTheTextCodec) {
  // 0xF2/0xF3 can never open a JSON object, and '{' can never open a
  // binary message — a codec mismatch is a typed error on both wires,
  // not a misparse.
  Request req;
  req.id = 1;
  req.op = Op::Ping;
  Request r;
  std::string err;
  EXPECT_FALSE(decode_request(encode_request_binary(req), r, err));
  EXPECT_FALSE(decode_request_binary(encode_request(req), r, err));
  EXPECT_NE(err.find("bad request magic"), std::string::npos) << err;
}

TEST(BinaryCodec, AdversarialDoublesRoundTripBitExact) {
  // The values the %.17g text detour is most likely to mangle: signed
  // zero, denormals, and the extremes — plus full-range u64 ids,
  // seeds and params. Bit-exactness is why the fleet wire is binary.
  const double kAdversarial[] = {
      -0.0,
      5e-324,                                    // smallest denormal
      2.2250738585072014e-308,                   // DBL_MIN
      4.9406564584124654e-324 * 3,               // another denormal
      1.7976931348623157e308,                    // DBL_MAX
      -1.7976931348623157e308,
      1.0 + 2.220446049250313e-16,               // 1 + epsilon
      0.1,                                       // classic non-dyadic
  };
  Response resp;
  resp.id = ~std::uint64_t{0};  // UINT64_MAX survives the varint
  resp.status = Status::Ok;
  resp.costs.assign(std::begin(kAdversarial), std::end(kAdversarial));
  Response out;
  std::string err;
  ASSERT_TRUE(decode_response_binary(encode_response_binary(resp), out, err))
      << err;
  EXPECT_EQ(out.id, ~std::uint64_t{0});
  ASSERT_EQ(out.costs.size(), resp.costs.size());
  for (std::size_t i = 0; i < resp.costs.size(); ++i)
    EXPECT_EQ(std::memcmp(&out.costs[i], &resp.costs[i], sizeof(double)), 0)
        << "cost bits drifted at index " << i;
  EXPECT_TRUE(std::signbit(out.costs[0]));  // -0.0 kept its sign

  Request req;
  req.id = ~std::uint64_t{0};
  req.op = Op::Cell;
  req.spec = {.engine = "qsm",
              .workload = "parity_circuit",
              .params = {{"n", ~std::uint64_t{0}}}};
  req.seed = ~std::uint64_t{0};
  req.trial0 = ~std::uint64_t{0};
  req.trials = 1;
  Request rback;
  ASSERT_TRUE(decode_request_binary(encode_request_binary(req), rback, err))
      << err;
  EXPECT_EQ(rback.seed, ~std::uint64_t{0});
  EXPECT_EQ(rback.trial0, ~std::uint64_t{0});
  EXPECT_EQ(rback.spec.params[0].second, ~std::uint64_t{0});
}

TEST(BinaryCodec, NaNIsRejectedInBothDirections) {
  // Cost models never produce NaN, so on this wire a NaN is corruption:
  // the encoder refuses to put one on the wire and the decoder refuses
  // to take one off it.
  Response resp;
  resp.id = 1;
  resp.status = Status::Ok;
  resp.has_cost = true;
  resp.cost = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)encode_response_binary(resp), std::invalid_argument);
  resp.has_cost = false;
  resp.cost = 0.0;
  resp.costs = {1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)encode_response_binary(resp), std::invalid_argument);

  // Splice NaN bits into a valid encoding: the cost f64le is the final
  // 8 bytes of a plain has_cost response.
  resp.costs.clear();
  resp.has_cost = true;
  resp.cost = 1.5;
  std::string wire = encode_response_binary(resp);
  ASSERT_GE(wire.size(), 8u);
  const std::uint64_t nan_bits = 0x7FF8000000000000ULL;
  for (unsigned i = 0; i < 8; ++i)
    wire[wire.size() - 8 + i] =
        static_cast<char>((nan_bits >> (8U * i)) & 0xFFU);
  Response out;
  std::string err;
  EXPECT_FALSE(decode_response_binary(wire, out, err));
  EXPECT_NE(err.find("NaN cost payload"), std::string::npos) << err;
}

TEST(BinaryCodec, FieldDisciplineMatchesTheTextCodec) {
  // The invariants ProtocolStrictness pins on JSON hold bit-for-bit
  // here: unknown flag combinations and impossible field pairings are
  // typed errors, not silent acceptance.
  Response resp;
  resp.id = 9;
  resp.status = Status::Ok;
  resp.has_cost = true;
  resp.cost = 2.0;
  std::string wire = encode_response_binary(resp);
  // Byte layout: magic, varint id (one byte for 9), status, flags.
  ASSERT_EQ(wire.size(), 4u + 8u);
  std::string mutated = wire;
  mutated[3] = static_cast<char>(0x40);  // undefined flag bit
  Response out;
  std::string err;
  EXPECT_FALSE(decode_response_binary(mutated, out, err));
  mutated = wire;
  mutated[3] = static_cast<char>(0x01);  // cached without a cost payload
  EXPECT_FALSE(decode_response_binary(
      std::string_view(mutated).substr(0, 4), out, err));
  EXPECT_NE(err.find("'cached' without"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// SweepService behavior.

Request parity_request(std::uint64_t id, std::uint64_t seed) {
  Request req;
  req.id = id;
  req.op = Op::Run;
  req.spec = {.engine = "qsm",
              .workload = "parity_circuit",
              .params = {{"n", 64}, {"g", 2}}};
  req.seed = seed;
  return req;
}

std::uint64_t metric(const SweepService& svc, const std::string& name) {
  const auto snap = svc.metrics().snapshot();
  const auto* m = snap.find(name);
  return m == nullptr ? 0 : m->value;
}

TEST(SweepService, PingStatsAndTypedRegistryErrors) {
  ServiceConfig cfg;
  cfg.cache.dir = fresh_dir("errors");
  SweepService svc(cfg);

  Request ping;
  ping.id = 1;
  ping.op = Op::Ping;
  const Response ack = svc.call(ping);
  EXPECT_EQ(ack.status, Status::Ok);
  EXPECT_FALSE(ack.has_cost);

  // Unknown workload, engine mismatch, missing param: all typed errors
  // carried in the response, never exceptions out of the service.
  Request bad = parity_request(2, 0);
  bad.spec.workload = "no_such_workload";
  const Response unknown = svc.call(bad);
  EXPECT_EQ(unknown.status, Status::Error);
  EXPECT_FALSE(unknown.error.empty());

  bad = parity_request(3, 0);
  bad.spec.engine = "bsp";  // parity_circuit is a QSM-family workload
  EXPECT_EQ(svc.call(bad).status, Status::Error);

  bad = parity_request(4, 0);
  bad.spec.params = {{"n", 64}};  // g missing
  const Response missing = svc.call(bad);
  EXPECT_EQ(missing.status, Status::Error);
  EXPECT_NE(missing.error.find("g"), std::string::npos) << missing.error;

  Request stats;
  stats.id = 5;
  stats.op = Op::Stats;
  const Response snap = svc.call(stats);
  EXPECT_EQ(snap.status, Status::Ok);
  EXPECT_NE(snap.stats_json.find("cache.hit"), std::string::npos);
  // Failed runs are attempted (service.exec counts run_spec attempts)
  // but never cached, so nothing ever hits.
  EXPECT_EQ(metric(svc, "service.exec"), 3u);
  EXPECT_EQ(metric(svc, "cache.hit"), 0u);
}

TEST(SweepService, ShedsSynchronouslyWhenTheQueueIsFull) {
  ServiceConfig cfg;
  cfg.cache.dir = fresh_dir("shed");
  cfg.queue_capacity = 0;  // every admission sheds
  SweepService svc(cfg);

  for (std::uint64_t i = 0; i < 3; ++i) {
    const Response resp = svc.call(parity_request(i, i));
    EXPECT_EQ(resp.status, Status::Retry);
    EXPECT_FALSE(resp.has_cost);
  }
  EXPECT_EQ(metric(svc, "queue.shed"), 3u);
  EXPECT_EQ(metric(svc, "service.exec"), 0u);
}

TEST(SweepService, DuplicateRequestsExecuteOnce) {
  ServiceConfig cfg;
  cfg.cache.dir = fresh_dir("dedup");
  SweepService svc(cfg);

  constexpr std::size_t kDup = 8;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::vector<Response> got(kDup);
  for (std::size_t i = 0; i < kDup; ++i) {
    svc.submit(parity_request(i, /*seed=*/5), [&, i](Response resp) {
      const std::lock_guard<std::mutex> lock(mu);
      got[i] = std::move(resp);
      ++done;
      cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == kDup; });
  }

  const double expected =
      kernels::parity_circuit_cost(CostModel::Qsm, 64, 2, 5);
  for (std::size_t i = 0; i < kDup; ++i) {
    EXPECT_EQ(got[i].id, i);
    EXPECT_EQ(got[i].status, Status::Ok);
    ASSERT_TRUE(got[i].has_cost);
    EXPECT_EQ(got[i].cost, expected);
  }
  // One kernel execution total — the rest were answered by in-batch
  // dedup or by the cache, depending on how the dispatcher batched.
  EXPECT_EQ(metric(svc, "service.exec"), 1u);
  EXPECT_EQ(metric(svc, "cache.hit") + metric(svc, "cache.miss"), kDup);
}

TEST(SweepService, WarmCacheAnswersWithoutExecution) {
  const fs::path dir = fresh_dir("warm");
  const std::vector<std::uint64_t> seeds = {11, 12, 13};
  std::vector<double> cold_costs;
  {
    ServiceConfig cfg;
    cfg.cache.dir = dir;
    SweepService cold(cfg);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const Response resp = cold.call(parity_request(i, seeds[i]));
      ASSERT_EQ(resp.status, Status::Ok);
      EXPECT_FALSE(resp.cached);
      cold_costs.push_back(resp.cost);
    }
    EXPECT_EQ(metric(cold, "service.exec"), seeds.size());
  }

  ServiceConfig cfg;
  cfg.cache.dir = dir;
  SweepService warm(cfg);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const Response resp = warm.call(parity_request(i, seeds[i]));
    ASSERT_EQ(resp.status, Status::Ok);
    EXPECT_TRUE(resp.cached);
    EXPECT_EQ(resp.cost, cold_costs[i]);
  }
  EXPECT_EQ(metric(warm, "service.exec"), 0u);
  EXPECT_EQ(metric(warm, "cache.hit"), seeds.size());
  EXPECT_EQ(metric(warm, "cache.miss"), 0u);
}

TEST(SweepService, CorruptCacheEntryIsReRunNeverServed) {
  const fs::path dir = fresh_dir("corrupt");
  const Request req = parity_request(1, 99);
  const double expected =
      kernels::parity_circuit_cost(CostModel::Qsm, 64, 2, 99);
  {
    ServiceConfig cfg;
    cfg.cache.dir = dir;
    SweepService svc(cfg);
    EXPECT_EQ(svc.call(req).cost, expected);
  }

  // Garble the payload on disk; the header checksum no longer matches.
  const fs::path entry = dir / cache_key(req);
  ASSERT_TRUE(fs::exists(entry));
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('X');
  }

  ServiceConfig cfg;
  cfg.cache.dir = dir;
  SweepService svc(cfg);
  const Response resp = svc.call(req);
  EXPECT_EQ(resp.status, Status::Ok);
  EXPECT_FALSE(resp.cached);  // re-run, not served
  EXPECT_EQ(resp.cost, expected);
  EXPECT_EQ(metric(svc, "cache.corrupt"), 1u);
  EXPECT_EQ(metric(svc, "service.exec"), 1u);

  // The re-run healed the entry: a fresh service now hits.
  ServiceConfig cfg2;
  cfg2.cache.dir = dir;
  SweepService healed(cfg2);
  EXPECT_TRUE(healed.call(req).cached);
}

// ---------------------------------------------------------------------------
// The workload table.

TEST(SweepService, NarrowingParamsAreTypedErrors) {
  ServiceConfig cfg;
  cfg.cache.dir = fresh_dir("narrowing");
  SweepService svc(cfg);

  // parity_tree takes an `unsigned` fan-in: 2^32 + 2 would run as 2.
  Request wide_fanin = parity_request(1, 0);
  wide_fanin.spec.workload = "parity_tree";
  wide_fanin.spec.params = {{"n", 64}, {"g", 2}, {"fanin", (1ull << 32) + 2}};
  // or_fanin's generator draws a 32-bit permutation of n; at n = 2^32 it
  // would read past it, after allocating 2^32 input words (32 GiB). The
  // registry rejects the request before the kernel allocates anything.
  Request wide_n = parity_request(2, 0);
  wide_n.spec.workload = "or_fanin";
  wide_n.spec.params = {{"n", 1ull << 32}, {"g", 2}, {"ones", 1}};

  for (const Request& req : {wide_fanin, wide_n}) {
    const Response resp = svc.call(req);
    EXPECT_EQ(resp.status, Status::Error);
    EXPECT_FALSE(resp.has_cost);
    EXPECT_NE(resp.error.find("exceeds 4294967295"), std::string::npos)
        << resp.error;
  }
  EXPECT_NE(svc.call(wide_fanin).error.find("'fanin'"), std::string::npos);
  EXPECT_NE(svc.call(wide_n).error.find("'n'"), std::string::npos);

  // The largest value that arrives unchanged is accepted.
  wide_fanin.spec.params.back().second = 4294967295ull;
  EXPECT_EQ(svc.call(wide_fanin).status, Status::Ok);
}

TEST(Registry, KernelExceptionsComeBackAsErrors) {
  const std::vector<runtime::ServiceSpec> bad = {
      {"qsm", "parity_circuit", {{"n", 64}, {"g", 0}}},
      {"bsp", "parity_bsp", {{"n", 64}, {"p", 0}, {"g", 1}, {"L", 8}}},
      {"qsm", "or_fanin", {{"n", 64}, {"g", 2}, {"ones", 65}}},
      {"qsm", "parity_tree", {{"n", 64}, {"g", 2}, {"fanin", 1}}},
  };
  for (const auto& spec : bad) {
    double cost = -1.0;
    std::string err;
    EXPECT_FALSE(run_spec(spec, 7, cost, err)) << spec.workload;
    EXPECT_FALSE(err.empty()) << spec.workload;
    EXPECT_EQ(cost, -1.0) << spec.workload;
  }
}

/// One direct kernels:: call per table entry, with the engines the
/// entry must accept.
struct DirectCase {
  runtime::ServiceSpec spec;  ///< engine left empty
  std::vector<std::pair<std::string, CostModel>> engines;
  std::function<double(CostModel, std::uint64_t seed)> direct;
};

std::vector<DirectCase> direct_cases() {
  const std::vector<std::pair<std::string, CostModel>> shared = {
      {"qsm", CostModel::Qsm},
      {"sqsm", CostModel::SQsm},
      {"qsm-crfree", CostModel::QsmCrFree},
      {"crcw-like", CostModel::CrcwLike},
      {"erew", CostModel::Erew}};
  const std::vector<std::pair<std::string, CostModel>> bsp = {
      {"bsp", CostModel::Qsm}};
  using M = CostModel;
  using S = std::uint64_t;
  return {
      {{"", "parity_tree", {{"n", 64}, {"g", 4}, {"fanin", 3}}},
       shared,
       [](M m, S s) { return kernels::parity_tree_cost(m, 64, 4, 3, s); }},
      {{"", "parity_circuit", {{"n", 64}, {"g", 4}}},
       shared,
       [](M m, S s) { return kernels::parity_circuit_cost(m, 64, 4, s); }},
      {{"", "or_fanin", {{"n", 64}, {"g", 4}, {"ones", 3}}},
       shared,
       [](M m, S s) { return kernels::or_fanin_cost(m, 64, 4, 3, s); }},
      {{"", "or_rand_cr", {{"n", 64}, {"g", 4}, {"ones", 3}}},
       {{"qsm-crfree", CostModel::QsmCrFree}},
       [](M, S s) { return kernels::or_rand_cr_cost(64, 4, 3, s); }},
      {{"", "lac_prefix", {{"n", 64}, {"g", 4}, {"h", 8}}},
       shared,
       [](M m, S s) { return kernels::lac_prefix_cost(m, 64, 4, 8, s); }},
      {{"", "lac_dart", {{"n", 64}, {"g", 4}, {"h", 8}}},
       shared,
       [](M m, S s) { return kernels::lac_dart_cost(m, 64, 4, 8, s); }},
      {{"", "padded_sort", {{"n", 64}, {"g", 4}}},
       shared,
       [](M m, S s) { return kernels::padded_sort_cost(m, 64, 4, s); }},
      {{"", "broadcast", {{"n", 64}, {"g", 4}, {"fanin", 4}}},
       shared,
       [](M m, S) { return kernels::broadcast_cost(m, 64, 4, 4); }},
      {{"", "parity_bsp", {{"n", 64}, {"p", 8}, {"g", 2}, {"L", 16}}},
       bsp,
       [](M, S s) { return kernels::parity_bsp_cost(64, 8, 2, 16, s); }},
      {{"", "or_bsp",
        {{"n", 64}, {"p", 8}, {"g", 2}, {"L", 16}, {"ones", 3}}},
       bsp,
       [](M, S s) { return kernels::or_bsp_cost(64, 8, 2, 16, 3, s); }},
      {{"", "lac_bsp",
        {{"n", 64}, {"p", 8}, {"g", 2}, {"L", 16}, {"h", 8}, {"fanin", 4}}},
       bsp,
       [](M, S s) { return kernels::lac_bsp_cost(64, 8, 2, 16, 8, s, 4); }},
  };
}

TEST(Registry, EveryEntryDispatchesToItsKernelOnEveryEngine) {
  const auto cases = direct_cases();
  ASSERT_EQ(cases.size(), workloads().size());
  for (std::size_t w = 0; w < cases.size(); ++w) {
    const DirectCase& c = cases[w];
    EXPECT_EQ(workloads()[w].name, c.spec.workload);
    std::string listed;
    for (const auto& [engine, model] : c.engines)
      listed += (listed.empty() ? "" : "|") + engine;
    EXPECT_EQ(engine_names(workloads()[w].engines), listed) << listed;

    for (const auto& [engine, model] : c.engines) {
      runtime::ServiceSpec spec = c.spec;
      spec.engine = engine;
      for (const std::uint64_t seed : {1ull, 99ull}) {
        double cost = 0.0;
        std::string err;
        const bool ok = run_spec(spec, seed, cost, err);
        try {
          const double expected = c.direct(model, seed);
          ASSERT_TRUE(ok) << spec.workload << "/" << engine << ": " << err;
          EXPECT_EQ(cost, expected) << spec.workload << "/" << engine;
        } catch (const std::exception& e) {
          // The engine refuses the program (EREW and concurrent reads):
          // run_spec reports the kernel's own message.
          EXPECT_FALSE(ok) << spec.workload << "/" << engine;
          EXPECT_EQ(err, e.what()) << spec.workload << "/" << engine;
        }
      }
    }
  }
}

}  // namespace
}  // namespace parbounds::service
