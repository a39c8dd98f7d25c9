// Sweep fleet (docs/SERVICE.md#fleet): the static partition, the
// frame-reassembly decoder, the metrics snapshot wire, and the
// end-to-end contract — a sweep executed across N worker PROCESSES
// merges into a report (metrics block included) byte-identical to an
// in-process --jobs 1 run, at any N, with workers crashing or hanging
// mid-sweep, and with a shared cell cache warm or cold.
//
// This binary doubles as the fleet's worker executable: the
// coordinator re-execs /proc/self/exe, so main() below calls
// maybe_run_worker before gtest ever sees argv.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "runtime/bench_json.hpp"
#include "runtime/fleet/coordinator.hpp"
#include "runtime/fleet/partition.hpp"
#include "runtime/fleet/snapshot_wire.hpp"
#include "runtime/fleet/sweep_fleet.hpp"
#include "runtime/fleet/worker.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"
#include "runtime/sweep_service/protocol.hpp"
#include "algos/cost_kernels.hpp"
#include "core/cost.hpp"

namespace {

using namespace parbounds;
using fleet::FleetConfig;
using fleet::FleetCoordinator;
using runtime::SweepCell;

constexpr std::uint64_t kBase = 0x5eedf1ee7ULL;

// ----- partition --------------------------------------------------------

TEST(Partition, ShardRangesTileTheTotalExactly) {
  for (const std::uint64_t total : {0ull, 1ull, 2ull, 7ull, 64ull, 1000ull}) {
    for (const unsigned shards : {1u, 2u, 3u, 7u, 16u}) {
      std::uint64_t covered = 0;
      std::uint64_t prev_end = 0;
      for (unsigned s = 0; s < shards; ++s) {
        const auto [lo, hi] = fleet::shard_range(total, shards, s);
        EXPECT_EQ(lo, prev_end);
        EXPECT_LE(lo, hi);
        prev_end = hi;
        covered += hi - lo;
      }
      EXPECT_EQ(prev_end, total);
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(Partition, OwnerOfInvertsShardRange) {
  for (const std::uint64_t total : {1ull, 2ull, 7ull, 64ull, 1000ull}) {
    for (const unsigned shards : {1u, 2u, 3u, 7u, 16u}) {
      for (std::uint64_t i = 0; i < total; ++i) {
        const unsigned o = fleet::owner_of(total, shards, i);
        ASSERT_LT(o, shards);
        const auto [lo, hi] = fleet::shard_range(total, shards, o);
        EXPECT_GE(i, lo);
        EXPECT_LT(i, hi);
      }
    }
  }
}

TEST(Partition, PlacementIsAPureFunctionOfTheIndex) {
  // Same (total, shards, i) must always map identically — the property
  // that lets a retried cell land anywhere without changing any byte.
  EXPECT_EQ(fleet::owner_of(10, 3, 0), fleet::owner_of(10, 3, 0));
  EXPECT_EQ(fleet::owner_of(10, 3, 9), 2u);
  EXPECT_EQ(fleet::owner_of(2, 2, 0), 0u);
  EXPECT_EQ(fleet::owner_of(2, 2, 1), 1u);
}

// ----- frame decoder ----------------------------------------------------

TEST(FrameDecoder, ReassemblesFramesFromSingleByteSlices) {
  std::string stream;
  service::append_frame(stream, "first");
  service::append_frame(stream, "");
  service::append_frame(stream, std::string(5000, 'x'));

  service::FrameDecoder dec;
  std::vector<std::string> got;
  std::string payload;
  for (const char c : stream) {
    dec.feed(std::string_view(&c, 1));
    while (dec.next(payload) == service::FrameResult::Ok)
      got.push_back(payload);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], "");
  EXPECT_EQ(got[2], std::string(5000, 'x'));
  EXPECT_FALSE(dec.mid_frame());
}

TEST(FrameDecoder, MidFrameDistinguishesCrashFromCleanClose) {
  std::string stream;
  service::append_frame(stream, "whole");

  service::FrameDecoder dec;
  std::string payload;
  dec.feed(stream);
  ASSERT_EQ(dec.next(payload), service::FrameResult::Ok);
  EXPECT_FALSE(dec.mid_frame());  // clean close here is a shutdown

  dec.feed(stream.substr(0, 2));  // half a length prefix
  EXPECT_EQ(dec.next(payload), service::FrameResult::NeedMore);
  EXPECT_TRUE(dec.mid_frame());  // EOF now means the peer died writing
}

TEST(FrameDecoder, OversizedFrameIsAProtocolError) {
  std::string oversized;
  const std::uint32_t huge = service::kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i)
    oversized.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  service::FrameDecoder dec;
  dec.feed(oversized);
  std::string payload;
  EXPECT_EQ(dec.next(payload), service::FrameResult::TooLarge);
}

TEST(FrameCodec, AppendFrameRejectsOversizedPayloads) {
  std::string out;
  EXPECT_THROW(
      service::append_frame(out,
                            std::string(service::kMaxFramePayload + 1, 'x')),
      std::length_error);
}

// ----- metrics snapshot wire -------------------------------------------

obs::MetricsSnapshot sample_snapshot() {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("fleet.test.count");
  const auto g = reg.gauge("fleet.test.high");
  const auto h = reg.histogram("fleet.test.dist", {1, 8, 64});
  reg.add(c, 41);
  reg.record_max(g, 17);
  reg.observe(h, 0);
  reg.observe(h, 9);
  reg.observe(h, 1000);
  return reg.snapshot();
}

TEST(SnapshotWire, RoundTripsExactly) {
  const obs::MetricsSnapshot snap = sample_snapshot();
  const std::string wire = fleet::encode_snapshot(snap);

  obs::MetricsSnapshot back;
  std::string err;
  ASSERT_TRUE(fleet::decode_snapshot(wire, back, err)) << err;
  EXPECT_EQ(back.to_json(), snap.to_json());
  // Re-encoding is byte-stable (registration order is preserved).
  EXPECT_EQ(fleet::encode_snapshot(back), wire);
}

TEST(SnapshotWire, RejectsMalformedRecords) {
  // Hand-built records: count, kind byte, varint-length name, value.
  const auto decodes = [](const std::string& wire) {
    obs::MetricsSnapshot out;
    std::string err;
    const bool ok = fleet::decode_snapshot(wire, out, err);
    EXPECT_EQ(ok, err.empty()) << err;
    return ok;
  };
  using namespace std::string_literals;
  EXPECT_TRUE(decodes("\x01\x00\x01x\x04"s));   // counter x = 4
  EXPECT_FALSE(decodes(""s));                    // no count
  EXPECT_FALSE(decodes("\x02\x00\x01x\x04"s));  // count says 2, has 1
  EXPECT_FALSE(decodes("\x01\x07\x01x\x04"s));  // unknown kind byte
  EXPECT_FALSE(decodes("\x01\x00\x00\x04"s));    // empty name
  EXPECT_FALSE(decodes("\x01\x00\x05x\x04"s));  // name runs past the end
  EXPECT_FALSE(decodes("\x01\x00\x01x\x80"s));  // unterminated varint
  EXPECT_FALSE(decodes("\x01\x02\x01h\x01\x08\x01"s));  // 1 of 2 buckets
}

TEST(SnapshotWire, MergeOverWireMatchesDirectMerge) {
  const obs::MetricsSnapshot a = sample_snapshot();
  obs::MetricsSnapshot b = sample_snapshot();

  obs::MetricsSnapshot direct = a;
  direct.merge_from(b);

  obs::MetricsSnapshot via_wire;
  std::string err;
  ASSERT_TRUE(fleet::decode_snapshot(fleet::encode_snapshot(a), via_wire, err));
  obs::MetricsSnapshot b_wire;
  ASSERT_TRUE(fleet::decode_snapshot(fleet::encode_snapshot(b), b_wire, err));
  via_wire.merge_from(b_wire);

  EXPECT_EQ(via_wire.to_json(), direct.to_json());
}

// ----- cell cache payload codec ----------------------------------------

TEST(CellPayload, RoundTripsCostsAndTelemetry) {
  const std::vector<double> costs = {1.0, 2.5, 0.0078125, 1e300};
  const std::string telemetry = fleet::encode_snapshot(sample_snapshot());
  const std::string payload = fleet::encode_cell_payload(costs, telemetry);

  std::vector<double> back_costs;
  std::string back_tel;
  ASSERT_TRUE(fleet::decode_cell_payload(payload, back_costs, back_tel));
  EXPECT_EQ(back_costs, costs);
  EXPECT_EQ(back_tel, telemetry);
}

TEST(CellPayload, RejectsMalformedPayloads) {
  std::vector<double> costs;
  std::string tel;
  EXPECT_FALSE(fleet::decode_cell_payload("no-newline", costs, tel));
  EXPECT_FALSE(fleet::decode_cell_payload("\n", costs, tel));        // no costs
  EXPECT_FALSE(fleet::decode_cell_payload("1.0,\n", costs, tel));    // trailing
  EXPECT_FALSE(fleet::decode_cell_payload("1.0,x\n", costs, tel));   // garbage
}

// ----- end to end: byte identity ----------------------------------------

std::vector<SweepCell> fleet_cells() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {64ull, 128ull})
    cells.push_back(
        {.key = "n=" + std::to_string(n),
         .trials = 3,
         .lb = 1.0,
         .ub = static_cast<double>(n),
         .run =
             [n](std::uint64_t s) {
               return kernels::parity_circuit_cost(CostModel::Qsm, n, 2, s);
             },
         .spec = {.engine = "qsm",
                  .workload = "parity_circuit",
                  .params = {{"n", n}, {"g", 2}}}});
  return cells;
}

runtime::BenchReport wrap_sweep(runtime::SweepResult sweep,
                                std::string metrics_json) {
  runtime::BenchReport report;
  report.bench = "bench_fleet_probe";
  report.seed = kBase;
  report.metrics_json = std::move(metrics_json);
  report.sweeps.push_back(std::move(sweep));
  return report;
}

/// The reference every fleet run must reproduce byte for byte: the
/// sweep executed in THIS process on a jobs=1 runner under a fresh
/// TelemetryObserver, serialized with the metrics block.
std::string in_process_reference(std::vector<SweepCell> cells) {
  obs::MetricsRegistry registry;
  obs::TelemetryObserver telemetry(registry);
  obs::install_process_telemetry(&telemetry);
  runtime::ExperimentRunner runner({.jobs = 1});
  runtime::SweepResult sweep =
      run_sweep(runner, "fleet probe", kBase, std::move(cells));
  obs::install_process_telemetry(nullptr);
  return to_json(wrap_sweep(std::move(sweep), registry.snapshot().to_json()));
}

std::string in_process_reference() { return in_process_reference(fleet_cells()); }

std::string fleet_report(FleetCoordinator& fc, std::vector<SweepCell> cells) {
  obs::MetricsSnapshot snap;
  runtime::SweepResult sweep = fleet::run_sweep_fleet(
      fc, "fleet probe", kBase, std::move(cells), &snap);
  return to_json(wrap_sweep(std::move(sweep), snap.to_json()));
}

std::string fleet_report(FleetCoordinator& fc) {
  return fleet_report(fc, fleet_cells());
}

/// Enough one-trial cells that a window of 8 actually fills: with 2
/// workers each owns 12, so a mid-window death strands several
/// in-flight cells at once (the case PR 9's lock-step never had).
std::vector<SweepCell> many_cells() {
  std::vector<SweepCell> cells;
  for (unsigned i = 0; i < 24; ++i) {
    const std::uint64_t n = 16 + (i % 8);
    cells.push_back(
        {.key = "i=" + std::to_string(i),
         .trials = 1,
         .lb = 1.0,
         .ub = static_cast<double>(n),
         .run =
             [n](std::uint64_t s) {
               return kernels::parity_circuit_cost(CostModel::Qsm, n, 2, s);
             },
         .spec = {.engine = "qsm",
                  .workload = "parity_circuit",
                  .params = {{"n", n}, {"g", 2}}}});
  }
  return cells;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("fleet_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// fleet_cells() plus one cell whose first phase issues 2^16 reads
/// (parity_circuit at g=8 reads each of n=8192 inputs 8 times), so its
/// commit scans split into kCommitShards shards.
std::vector<SweepCell> threshold_crossing_cells() {
  std::vector<SweepCell> cells = fleet_cells();
  cells.push_back(
      {.key = "n=8192",
       .trials = 1,
       .lb = 1.0,
       .ub = 8192.0,
       .run =
           [](std::uint64_t s) {
             return kernels::parity_circuit_cost(CostModel::Qsm, 8192, 8, s);
           },
       .spec = {.engine = "qsm",
                .workload = "parity_circuit",
                .params = {{"n", 8192}, {"g", 8}}}});
  return cells;
}

/// The value of counter `name` in a report's metrics block.
std::uint64_t report_counter(const std::string& report,
                             const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = report.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(report.substr(at + key.size()));
}

TEST(FleetEndToEnd, AnyWorkerCountReproducesTheInProcessBytes) {
  const std::string reference =
      in_process_reference(threshold_crossing_cells());
  // The sharded commit scan ran, so byte identity covers it too.
  EXPECT_GT(report_counter(reference, "qsm.commit.shards"), 0u);
  for (const unsigned workers : {1u, 2u, 4u}) {
    FleetConfig cfg;
    cfg.workers = workers;
    FleetCoordinator fc(cfg);
    EXPECT_EQ(fleet_report(fc, threshold_crossing_cells()), reference)
        << "fleet report diverged at workers=" << workers;
    EXPECT_EQ(fc.counter("fleet.worker.spawn"), workers);
    EXPECT_EQ(fc.counter("fleet.worker.retry"), 0u);
  }
}

TEST(FleetEndToEnd, SigkilledWorkerMidSweepStillReproducesTheBytes) {
  const std::string reference = in_process_reference();
  // Worker 1 SIGKILLs itself on its first cell request (a genuine
  // mid-sweep kill: the pipe EOFs and the cell is re-run elsewhere).
  ::setenv("PARBOUNDS_FLEET_CRASH", "1:1", 1);
  FleetConfig cfg;
  cfg.workers = 2;
  FleetCoordinator fc(cfg);
  const std::string report = fleet_report(fc);
  ::unsetenv("PARBOUNDS_FLEET_CRASH");

  EXPECT_EQ(report, reference);
  EXPECT_EQ(fc.counter("fleet.worker.exit"), 1u);
  EXPECT_GE(fc.counter("fleet.worker.retry"), 1u);
}

TEST(FleetEndToEnd, HungWorkerIsKilledByTheDeadlineAndRetried) {
  const std::string reference = in_process_reference();
  // Worker 1 sleeps forever on its first cell request; only the
  // per-request deadline gets the sweep unstuck.
  ::setenv("PARBOUNDS_FLEET_HANG", "1:1", 1);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.request_deadline_ms = 500;
  FleetCoordinator fc(cfg);
  const std::string report = fleet_report(fc);
  ::unsetenv("PARBOUNDS_FLEET_HANG");

  EXPECT_EQ(report, reference);
  EXPECT_EQ(fc.counter("fleet.worker.exit"), 1u);
  EXPECT_GE(fc.counter("fleet.worker.retry"), 1u);
}

TEST(FleetEndToEnd, RepeatedCrashesExhaustTheRetryBudgetAsATypedError) {
  // Every worker dies on its first request: the budget (or the fleet)
  // runs out and run_sweep_fleet surfaces a typed error, never a hang.
  ::setenv("PARBOUNDS_FLEET_CRASH", "0:1", 1);
  FleetConfig cfg;
  cfg.workers = 1;
  cfg.max_attempts = 3;
  FleetCoordinator fc(cfg);
  EXPECT_THROW((void)fleet_report(fc), std::runtime_error);
  ::unsetenv("PARBOUNDS_FLEET_CRASH");
}

TEST(FleetEndToEnd, SharedCacheWarmReplayIsByteIdentical) {
  const std::string reference = in_process_reference();
  const std::filesystem::path dir = fresh_dir("shared_cache");
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.cache_dir = dir;
  {
    FleetCoordinator fc(cfg);
    EXPECT_EQ(fleet_report(fc), reference);
  }
  // Every cell is now published: one content-addressed entry per cell.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 2u);
  {
    // A fresh fleet on the warm directory serves every cell — costs AND
    // telemetry — from the cache, and the bytes still match.
    FleetCoordinator fc(cfg);
    EXPECT_EQ(fleet_report(fc), reference);
  }
  ::unsetenv("PARBOUNDS_FLEET_CACHE_DIR");
  ::unsetenv("PARBOUNDS_FLEET_CACHE_BYTES");
}

TEST(FleetEndToEnd, CoordinatorSurvivesMultipleSweeps) {
  // One coordinator, several sweeps (the BenchSession pattern): workers
  // persist and the second sweep's bytes match a fresh single-process
  // run of the same sweep.
  const std::string reference = in_process_reference();
  FleetConfig cfg;
  cfg.workers = 2;
  FleetCoordinator fc(cfg);
  EXPECT_EQ(fleet_report(fc), reference);
  EXPECT_EQ(fleet_report(fc), reference);
  EXPECT_EQ(fc.counter("fleet.worker.spawn"), 2u);  // spawned once
}

TEST(FleetEndToEnd, WorkerThatDiesBeforeReadyFailsTheSpawn) {
  // Spawn blocks for the worker's readiness frame. A worker that cannot
  // start — here its cache directory sits under a regular file, so
  // opening the cache throws — dies before sending it, and the
  // coordinator must fail the spawn rather than place work on it.
  const std::filesystem::path file = fresh_dir("not_a_dir");
  std::ofstream(file) << "x";
  FleetConfig cfg;
  cfg.workers = 1;
  cfg.cache_dir = file / "cache";
  EXPECT_THROW(FleetCoordinator fc(cfg), std::runtime_error);
  ::unsetenv("PARBOUNDS_FLEET_CACHE_DIR");
}

TEST(FleetEndToEnd, ClosureOnlyCellsAreRefused) {
  // A silent closure fallback would break the byte-identity contract,
  // so a cell without a ServiceSpec is a hard error naming the cell.
  FleetConfig cfg;
  cfg.workers = 1;
  FleetCoordinator fc(cfg);
  std::vector<SweepCell> cells = fleet_cells();
  cells.push_back(
      {.key = "closure-only", .run = [](std::uint64_t) { return 1.0; }});
  try {
    (void)fleet_report(fc, std::move(cells));
    FAIL() << "non-routable cell was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("closure-only"), std::string::npos);
  }
}

// ----- snapshot wire: edge values and truncation ------------------------

TEST(SnapshotWire, BinaryRoundTripsExactlyIncludingU64Max) {
  // Metric values span the full u64 range (seeds, byte counters); the
  // varint form must round-trip the extremes bit-exactly.
  obs::MetricsRegistry reg;
  const auto c = reg.counter("fleet.test.max");
  const auto g = reg.gauge("fleet.test.high");
  const auto h = reg.histogram("fleet.test.dist", {1, 8, 64});
  reg.add(c, ~std::uint64_t{0});
  reg.record_max(g, ~std::uint64_t{0});
  reg.observe(h, ~std::uint64_t{0});
  const obs::MetricsSnapshot snap = reg.snapshot();

  const std::string wire = fleet::encode_snapshot(snap);
  obs::MetricsSnapshot back;
  std::string err;
  ASSERT_TRUE(fleet::decode_snapshot(wire, back, err)) << err;
  EXPECT_EQ(back.to_json(), snap.to_json());
  EXPECT_EQ(fleet::encode_snapshot(back), wire);  // byte-stable
}

TEST(SnapshotWire, BinaryRejectsMalformedRecords) {
  const std::string wire = fleet::encode_snapshot(sample_snapshot());
  obs::MetricsSnapshot out;
  std::string err;
  // Every strict prefix is a truncation error.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    err.clear();
    EXPECT_FALSE(fleet::decode_snapshot(wire.substr(0, cut), out, err))
        << "accepted truncated snapshot at " << cut;
    EXPECT_FALSE(err.empty());
  }
  // Trailing bytes and unknown kind bytes are typed too.
  EXPECT_FALSE(fleet::decode_snapshot(wire + "x", out, err));
  std::string bad_kind(wire);
  bad_kind[1] = '\x07';  // count varint is 1 byte; first kind follows
  EXPECT_FALSE(fleet::decode_snapshot(bad_kind, out, err));
  // An empty snapshot is a zero count, and valid.
  obs::MetricsRegistry empty_reg;
  EXPECT_TRUE(fleet::decode_snapshot(
      fleet::encode_snapshot(empty_reg.snapshot()), out, err))
      << err;
}

// ----- credit windows: end-to-end byte identity -------------------------

// The fleet has one wire (the binary codec), so the matrix is
// workers x window.
TEST(FleetEndToEnd, EveryWireWorkersWindowComboReproducesTheBytes) {
  const std::string reference = in_process_reference(many_cells());
  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const unsigned window : {1u, 8u}) {
      FleetConfig cfg;
      cfg.workers = workers;
      cfg.window = window;
      FleetCoordinator fc(cfg);
      EXPECT_EQ(fleet_report(fc, many_cells()), reference)
          << "diverged at workers=" << workers << " window=" << window;
      // The data plane actually moved frames, and the high-water
      // in-flight depth respected (and under load reached) the window.
      EXPECT_GT(fc.counter("fleet.bytes_tx"), 0u);
      EXPECT_GT(fc.counter("fleet.bytes_rx"), 0u);
      EXPECT_GT(fc.counter("fleet.frames_tx"), 0u);
      EXPECT_GT(fc.counter("fleet.frames_rx"), 0u);
      // 24 cells split evenly, so a worker can hold at most its share
      // of the sweep in flight.
      EXPECT_EQ(fc.counter("fleet.window.depth"),
                std::min<std::uint64_t>(window, 24 / workers));
      EXPECT_EQ(fc.counter("fleet.worker.retry"), 0u);
    }
  }
}

TEST(FleetEndToEnd, CrashMidWindowRequeuesEveryInflightCell) {
  const std::string reference = in_process_reference(many_cells());
  // Worker 1 SIGKILLs itself on its SECOND cell: with a window of 8 its
  // first response is already merged and up to 7 more cells are in
  // flight — all of them must be requeued, not just the head.
  ::setenv("PARBOUNDS_FLEET_CRASH", "1:2", 1);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.window = 8;
  FleetCoordinator fc(cfg);
  const std::string report = fleet_report(fc, many_cells());
  ::unsetenv("PARBOUNDS_FLEET_CRASH");

  EXPECT_EQ(report, reference);
  EXPECT_EQ(fc.counter("fleet.worker.exit"), 1u);
  // At least the dead worker's remaining window was retried elsewhere.
  EXPECT_GE(fc.counter("fleet.worker.retry"), 2u);
}

TEST(FleetEndToEnd, HangMidWindowIsKilledByTheHeadDeadlineAndRequeued) {
  const std::string reference = in_process_reference(many_cells());
  // Worker 1 wedges on its second cell while more cells sit behind it
  // in the window; the HEAD-of-window deadline is what unsticks it.
  ::setenv("PARBOUNDS_FLEET_HANG", "1:2", 1);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.window = 8;
  cfg.request_deadline_ms = 500;
  FleetCoordinator fc(cfg);
  const std::string report = fleet_report(fc, many_cells());
  ::unsetenv("PARBOUNDS_FLEET_HANG");

  EXPECT_EQ(report, reference);
  EXPECT_EQ(fc.counter("fleet.worker.exit"), 1u);
  EXPECT_GE(fc.counter("fleet.worker.retry"), 2u);
}

TEST(FleetEndToEnd, RetryBudgetStillBoundsCrashLoopsUnderWindowing) {
  ::setenv("PARBOUNDS_FLEET_CRASH", "0:1", 1);
  FleetConfig cfg;
  cfg.workers = 1;
  cfg.window = 8;
  cfg.max_attempts = 3;
  FleetCoordinator fc(cfg);
  EXPECT_THROW((void)fleet_report(fc, many_cells()), std::runtime_error);
  ::unsetenv("PARBOUNDS_FLEET_CRASH");
}

TEST(FleetEndToEnd, WindowMustBePositive) {
  FleetConfig cfg;
  cfg.workers = 1;
  cfg.window = 0;
  EXPECT_THROW(FleetCoordinator fc(cfg), std::invalid_argument);
}

}  // namespace

int main(int argc, char** argv) {
  // Fleet front door: when re-exec'd as a worker, serve and exit before
  // gtest touches argv.
  parbounds::fleet::maybe_run_worker(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
