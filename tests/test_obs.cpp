// Tests for the observability layer (src/obs): registry semantics and
// shard merging, the bound on the per-thread shard and buffer caches,
// metric determinism across worker counts, span-tracer B/E discipline,
// and the Chrome trace-event exporters — including a golden model-time
// trace from a hand-driven QSM run, which pins the exporter format byte
// for byte (docs/OBSERVABILITY.md).
//
// A small JSON syntax walker lives here on purpose (the repo carries no
// JSON dependency and tests must not validate a serializer with
// itself); it only checks well-formedness and pulls flat scalar fields,
// which is all the trace-event schema needs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/qsm.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "runtime/runner.hpp"

namespace parbounds::obs {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON walker: validates syntax and collects, for every object
// in a top-level array, its scalar (string/number) fields. Nested
// objects ("args") are validated and flattened with a "args." prefix.

class JsonWalker {
 public:
  using Flat = std::map<std::string, std::string>;

  explicit JsonWalker(const std::string& text) : s_(text) {}

  /// Parse a top-level array of objects; throws on any syntax error.
  std::vector<Flat> parse_event_array() {
    std::vector<Flat> events;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      finish();
      return events;
    }
    for (;;) {
      Flat flat;
      object_into(flat, "");
      events.push_back(std::move(flat));
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      finish();
      return events;
    }
  }

 private:
  void finish() {
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON input");
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    ++pos_;
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      if (pos_ < s_.size()) out += s_[pos_++];
    }
    expect('"');
    return out;
  }

  std::string scalar() {
    const char c = peek();
    if (c == '"') return string_value();
    std::string out;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      out += s_[pos_++];
    if (out.empty()) throw std::runtime_error("bad scalar");
    return out;
  }

  void object_into(Flat& flat, const std::string& prefix) {
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      const std::string key = string_value();
      expect(':');
      if (peek() == '{') {
        object_into(flat, prefix + key + ".");
      } else if (peek() == '[') {
        array_scalars(flat, prefix + key);
      } else {
        flat[prefix + key] = scalar();
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void array_scalars(Flat& flat, const std::string& key) {
    expect('[');
    std::size_t n = 0;
    if (peek() != ']') {
      for (;;) {
        flat[key + "[" + std::to_string(n++) + "]"] = scalar();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        break;
      }
    }
    expect(']');
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricsRegistry reg;
  const auto c = reg.counter("c");
  const auto g = reg.gauge("g");
  const auto h = reg.histogram("h", {1, 2, 4});
  reg.add(c);
  reg.add(c, 4);
  reg.record_max(g, 7);
  reg.record_max(g, 3);  // lower: must not replace the high-water mark
  reg.observe(h, 1);     // bucket <=1
  reg.observe(h, 3);     // bucket <=4
  reg.observe(h, 100);   // overflow

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.find("c")->value, 5u);
  EXPECT_EQ(snap.find("g")->value, 7u);
  const MetricValue* hist = snap.find("h");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->counts.size(), 4u);
  EXPECT_EQ(hist->counts[0], 1u);
  EXPECT_EQ(hist->counts[1], 0u);
  EXPECT_EQ(hist->counts[2], 1u);
  EXPECT_EQ(hist->counts[3], 1u);
  EXPECT_EQ(hist->total(), 3u);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(Metrics, ShardsMergeCommutativelyAcrossThreads) {
  MetricsRegistry reg;
  const auto c = reg.counter("c");
  const auto g = reg.gauge("g");
  const auto h = reg.histogram("h", MetricsRegistry::pow2_bounds(0, 4));
  std::vector<std::thread> threads;
  for (unsigned t = 1; t <= 4; ++t)
    threads.emplace_back([&, t] {
      for (unsigned i = 0; i < 100; ++i) reg.add(c, t);
      reg.record_max(g, 10 * t);
      reg.observe(h, t);
    });
  for (auto& th : threads) th.join();

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("c")->value, 100u * (1 + 2 + 3 + 4));
  EXPECT_EQ(snap.find("g")->value, 40u);  // max, not last-write-wins
  EXPECT_EQ(snap.find("h")->total(), 4u);
}

TEST(Metrics, RegistrationFreezesAtFirstTouch) {
  MetricsRegistry reg;
  const auto c = reg.counter("early");
  reg.add(c);
  EXPECT_THROW(reg.counter("late"), std::logic_error);
  EXPECT_THROW(reg.gauge("late"), std::logic_error);
  EXPECT_THROW(reg.histogram("late", {1}), std::logic_error);
}

TEST(Metrics, RegistrationValidation) {
  MetricsRegistry reg;
  reg.counter("dup");
  EXPECT_THROW(reg.counter("dup"), std::logic_error);
  EXPECT_THROW(reg.histogram("empty", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("unsorted", {4, 2}), std::invalid_argument);
}

TEST(Metrics, SnapshotJsonIsWellFormedAndOrdered) {
  MetricsRegistry reg;
  const auto z = reg.counter("z_first");  // registration order, not name order
  const auto a = reg.counter("a_second");
  const auto g = reg.gauge("g");
  reg.add(z);
  reg.add(a);
  reg.record_max(g, 3);
  const std::string json = reg.snapshot().to_json();
  // Wrap in an array so the event walker can validate the syntax whole.
  const auto events = JsonWalker("[" + json + "]").parse_event_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("counters.z_first"), "1");
  EXPECT_EQ(events[0].at("counters.a_second"), "1");
  EXPECT_EQ(events[0].at("gauges.g"), "3");
  EXPECT_LT(json.find("z_first"), json.find("a_second"));
}

TEST(Metrics, ToTextSkipsZerosUnlessAsked) {
  MetricsRegistry reg;
  const auto hot = reg.counter("hot");
  (void)reg.counter("cold");
  reg.add(hot, 2);
  const auto snap = reg.snapshot();
  EXPECT_NE(snap.to_text().find("hot"), std::string::npos);
  EXPECT_EQ(snap.to_text().find("cold"), std::string::npos);
  EXPECT_NE(snap.to_text(/*include_zero=*/true).find("cold"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Snapshot merging (docs/SERVICE.md#fleet): merge_from folds one
// worker's snapshot into another with the registry's own operators —
// counters and histogram buckets sum, gauges take the max — and is
// commutative, so per-worker partials reassemble the cumulative block
// a single process would have written.

MetricsSnapshot merge_probe(std::uint64_t c, std::uint64_t g,
                            std::uint64_t h) {
  MetricsRegistry reg;
  const auto cid = reg.counter("m.count");
  const auto gid = reg.gauge("m.high");
  const auto hid = reg.histogram("m.dist", {10, 100});
  reg.add(cid, c);
  reg.record_max(gid, g);
  reg.observe(hid, h);
  return reg.snapshot();
}

TEST(Metrics, MergeFromSumsCountersMaxesGaugesSumsBuckets) {
  MetricsSnapshot a = merge_probe(3, 7, 5);     // h lands in bucket 0
  const MetricsSnapshot b = merge_probe(4, 2, 50);  // bucket 1
  a.merge_from(b);
  EXPECT_EQ(a.find("m.count")->value, 7u);
  EXPECT_EQ(a.find("m.high")->value, 7u);  // max, not sum
  const auto* h = a.find("m.dist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts, (std::vector<std::uint64_t>{1, 1, 0}));
  EXPECT_EQ(h->total(), 2u);
}

TEST(Metrics, MergeFromIsCommutative) {
  MetricsSnapshot ab = merge_probe(3, 7, 5);
  ab.merge_from(merge_probe(4, 2, 50));
  MetricsSnapshot ba = merge_probe(4, 2, 50);
  ba.merge_from(merge_probe(3, 7, 5));
  EXPECT_EQ(ab.to_json(), ba.to_json());
}

TEST(Metrics, MergeFromRejectsMismatchedRegistration) {
  // Merging snapshots of DIFFERENT instrumentation would silently
  // misattribute values; every shape mismatch is a logic error.
  MetricsSnapshot base = merge_probe(1, 1, 1);

  MetricsRegistry renamed;
  (void)renamed.counter("other.count");
  (void)renamed.gauge("m.high");
  (void)renamed.histogram("m.dist", {10, 100});
  EXPECT_THROW(base.merge_from(renamed.snapshot()), std::logic_error);

  MetricsRegistry rebucketed;
  (void)rebucketed.counter("m.count");
  (void)rebucketed.gauge("m.high");
  (void)rebucketed.histogram("m.dist", {10, 100, 1000});
  EXPECT_THROW(base.merge_from(rebucketed.snapshot()), std::logic_error);

  MetricsRegistry shorter;
  (void)shorter.counter("m.count");
  EXPECT_THROW(base.merge_from(shorter.snapshot()), std::logic_error);
}

// ---------------------------------------------------------------------
// The per-thread shard cache (obs/thread_cache.hpp) keeps only live
// registries: a thread that works through many short-lived registries
// (a fleet worker builds one per cell) must not scan its whole history.

constexpr unsigned kChurn = 10000;

TEST(Metrics, ShardCacheDropsDeadRegistries) {
  std::uint64_t live_count = 0, churn_total = 0;
  std::size_t cache_entries = 0;
  std::thread worker([&] {  // a fresh thread: a cache with no history
    MetricsRegistry live;
    const auto c = live.counter("live.count");
    const auto h = live.histogram("live.dist", {1, 100});
    for (unsigned i = 0; i < kChurn; ++i) {
      {
        MetricsRegistry cell;
        const auto k = cell.counter("cell.count");
        cell.add(k, 2);
        churn_total += cell.snapshot().find("cell.count")->value;
      }
      live.add(c);
      live.observe(h, i % 200);
    }
    live_count = live.snapshot().find("live.count")->value;
    EXPECT_EQ(live.snapshot().find("live.dist")->counts,
              (std::vector<std::uint64_t>{2 * 50, 99 * 50, 99 * 50}));
    cache_entries = detail::thread_shard_cache_size();
  });
  worker.join();
  EXPECT_EQ(live_count, kChurn);
  EXPECT_EQ(churn_total, 2u * kChurn);
  // The live registry plus the last dead one, which the next first
  // touch would drop; an unpruned cache holds kChurn + 1.
  EXPECT_LE(cache_entries, 2u);
}

TEST(Metrics, NewRegistryAtDeadOnesAddressStartsFromZero) {
  std::optional<MetricsRegistry> reg;
  reg.emplace();
  const MetricsRegistry* first = &*reg;
  reg->add(reg->counter("c"), 5);
  reg.reset();
  reg.emplace();  // same storage, new uid: must not find the old shard
  ASSERT_EQ(&*reg, first);
  const auto c = reg->counter("c");  // not frozen by the dead registry
  reg->add(c);
  EXPECT_EQ(reg->snapshot().find("c")->value, 1u);
}

TEST(Metrics, ChurningThreadsKeepSharedCountersExact) {
  // Four threads each build, touch and destroy registries of their own
  // while updating one shared registry: shared values stay exact and
  // no thread's cache outgrows its live registries (TSan-clean).
  constexpr unsigned kThreads = 4, kPerThread = 2000;
  MetricsRegistry shared;
  const auto c = shared.counter("shared.count");
  const auto g = shared.gauge("shared.high");
  std::vector<std::size_t> cache_entries(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        MetricsRegistry own;
        own.add(own.counter("own"), i);
        shared.add(c, t + 1);
        shared.record_max(g, t * kPerThread + i);
      }
      cache_entries[t] = detail::thread_shard_cache_size();
    });
  for (auto& th : threads) th.join();

  const auto snap = shared.snapshot();
  EXPECT_EQ(snap.find("shared.count")->value, kPerThread * (1 + 2 + 3 + 4));
  EXPECT_EQ(snap.find("shared.high")->value, kThreads * kPerThread - 1);
  for (const std::size_t n : cache_entries) EXPECT_LE(n, 2u);
}

// ---------------------------------------------------------------------
// Determinism: telemetry driven by engine runs through the runner must
// snapshot to identical bytes at any job count (the test_runtime
// serial-vs-parallel discipline, applied to metrics).

std::string metrics_json_for_jobs(unsigned jobs) {
  MetricsRegistry reg;
  TelemetryObserver obs(reg);
  install_process_telemetry(&obs);
  runtime::ExperimentRunner runner({.jobs = jobs});
  runner.map<int>(16, [](std::uint64_t trial) {
    QsmMachine m({.g = 2});
    const Addr a = m.alloc(64);
    for (unsigned phase = 0; phase < 1 + trial % 3; ++phase) {
      m.begin_phase();
      for (std::uint64_t p = 0; p <= trial; ++p)
        m.write(p, a + p, static_cast<Word>(p + 1));
      m.local(0, trial + 1);
      m.commit_phase();
    }
    return 0;
  });
  install_process_telemetry(nullptr);
  return reg.snapshot().to_json();
}

TEST(Telemetry, MetricValuesBitIdenticalAcrossJobs) {
  const std::string serial = metrics_json_for_jobs(1);
  // 16 trials running 1 + t%3 phases each: 16 + 5*(0+1+2) = 31 commits.
  EXPECT_NE(serial.find("\"qsm.phases\":31"), std::string::npos) << serial;
  for (const unsigned jobs : {2u, 8u})
    EXPECT_EQ(serial, metrics_json_for_jobs(jobs)) << "jobs=" << jobs;
}

TEST(Telemetry, PerKindFamiliesAccumulate) {
  MetricsRegistry reg;
  TelemetryObserver obs(reg);
  QsmMachine m({.g = 3});
  m.set_observer(nullptr);  // per-machine slot stays free for parlint
  install_process_telemetry(&obs);
  const Addr a = m.alloc(8);
  m.begin_phase();
  m.write(0, a, 42);
  m.write(1, a + 1, 7);
  m.commit_phase();
  m.begin_phase();
  m.read(0, a);
  m.read(1, a);
  m.commit_phase();
  install_process_telemetry(nullptr);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("qsm.phases")->value, 2u);
  EXPECT_EQ(snap.find("qsm.reads")->value, 2u);
  EXPECT_EQ(snap.find("qsm.writes")->value, 2u);
  // traffic = g * (reads + writes), summed over phases
  EXPECT_EQ(snap.find("qsm.traffic")->value, 3u * 2 + 3u * 2);
  EXPECT_EQ(snap.find("qsm.kappa_r_max")->value, 2u);  // both read a
  EXPECT_EQ(snap.find("qsm.cost")->value, m.time());
  EXPECT_EQ(snap.find("bsp.phases")->value, 0u);  // other families idle
}

// ---------------------------------------------------------------------
// Span tracer + Chrome export

TEST(Spans, ExportHasMatchedPairsAndMonotoneTimestamps) {
  Tracer tracer;
  {
    Span outer(&tracer, "outer", 1);
    Span inner(&tracer, "inner");
  }
  std::thread([&] { Span other(&tracer, "other", 9); }).join();

  const std::string json = chrome_trace_json(tracer);
  const auto events = JsonWalker(json).parse_event_array();
  ASSERT_EQ(events.size(), 6u);

  std::map<std::string, std::vector<const JsonWalker::Flat*>> by_tid;
  for (const auto& e : events) by_tid[e.at("tid")].push_back(&e);
  EXPECT_EQ(by_tid.size(), 2u);  // main thread + the helper
  for (const auto& [tid, evs] : by_tid) {
    double last_ts = -1.0;
    std::vector<std::string> stack;
    for (const auto* e : evs) {
      EXPECT_EQ(e->at("pid"), "1");
      const double ts = std::stod(e->at("ts"));
      EXPECT_GE(ts, last_ts) << "ts must be monotone within tid " << tid;
      last_ts = ts;
      if (e->at("ph") == "B") {
        stack.push_back(e->at("name"));
      } else {
        ASSERT_EQ(e->at("ph"), "E");
        ASSERT_FALSE(stack.empty()) << "unmatched E in tid " << tid;
        EXPECT_EQ(stack.back(), e->at("name"));
        stack.pop_back();
      }
    }
    EXPECT_TRUE(stack.empty()) << "unmatched B in tid " << tid;
  }
}

TEST(Spans, FullBufferDropsWholeSpansNeverOrphansBegins) {
  Tracer tracer(/*capacity_per_thread=*/4);  // room for two B/E pairs
  {
    Span a(&tracer, "a");  // accepted: B plus reserved E fit
    Span b(&tracer, "b");  // accepted: exactly fills the reservation
    Span c(&tracer, "c");  // no room for its B+E on top of two open E's
  }
  {
    Span d(&tracer, "d");  // buffer already holds 4 events: dropped
  }
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto events = JsonWalker(chrome_trace_json(tracer)).parse_event_array();
  ASSERT_EQ(events.size(), 4u);
  std::vector<std::string> stack;
  for (const auto& e : events) {
    if (e.at("ph") == "B") {
      stack.push_back(e.at("name"));
    } else {
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(stack.back(), e.at("name"));
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty());
  EXPECT_NE(top_n_summary(tracer, 5).find("dropped"), std::string::npos);
}

TEST(Spans, NullTracerIsInert) {
  Span s(nullptr, "noop", 3);  // must not crash or record anywhere
  Tracer tracer;
  EXPECT_EQ(chrome_trace_json(tracer), "[]\n");
}

TEST(Spans, TopNSummaryNamesTheSpans) {
  Tracer tracer;
  for (int i = 0; i < 3; ++i) Span s(&tracer, "hot.loop", i);
  const std::string text = top_n_summary(tracer, 5);
  EXPECT_NE(text.find("hot.loop"), std::string::npos);
  EXPECT_NE(text.find("count"), std::string::npos);
}

TEST(Spans, ProcessTracerHookInstallsAndDetaches) {
  EXPECT_EQ(process_tracer(), nullptr);
  Tracer tracer;
  install_process_tracer(&tracer);
  EXPECT_EQ(process_tracer(), &tracer);
  install_process_tracer(nullptr);
  EXPECT_EQ(process_tracer(), nullptr);
}

TEST(Spans, BufferCacheDropsDeadTracers) {
  std::size_t live_events = 0, cache_entries = 0;
  std::uint64_t live_dropped = 0, churn_events = 0;
  std::thread worker([&] {  // a fresh thread: a cache with no history
    Tracer live(/*capacity_per_thread=*/2 * kChurn + 2);
    for (unsigned i = 0; i < kChurn; ++i) {
      {
        Tracer cell(/*capacity_per_thread=*/4);
        { Span s(&cell, "cell"); }
        churn_events += cell.buffers().at(0).count;
      }
      Span s(&live, "live", i);
    }
    const auto views = live.buffers();
    ASSERT_EQ(views.size(), 1u);
    live_events = views[0].count;
    live_dropped = views[0].dropped;
    cache_entries = detail::thread_buffer_cache_size();
  });
  worker.join();
  EXPECT_EQ(live_events, 2u * kChurn);
  EXPECT_EQ(live_dropped, 0u);
  EXPECT_EQ(churn_events, 2u * kChurn);
  EXPECT_LE(cache_entries, 2u);  // unpruned: kChurn + 1
}

TEST(Spans, NewTracerAtDeadOnesAddressStartsFromZero) {
  std::optional<Tracer> tracer;
  tracer.emplace();
  const Tracer* first = &*tracer;
  for (int i = 0; i < 3; ++i) Span s(&*tracer, "old");
  tracer.reset();
  tracer.emplace();  // same storage, new uid: must not find the old buffer
  ASSERT_EQ(&*tracer, first);
  { Span s(&*tracer, "new"); }
  const auto views = tracer->buffers();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].tid, 1u);
  ASSERT_EQ(views[0].count, 2u);
  EXPECT_STREQ(views[0].events[0].name, "new");
}

// ---------------------------------------------------------------------
// Golden model-time export: a hand-driven QSM run with known Section
// 2.1 costs must serialize to these exact bytes.

TEST(ModelTimeTrace, GoldenTinyQsmRun) {
  QsmMachine m({.g = 2});
  const Addr a = m.alloc(4);
  m.begin_phase();            // phase 0: one write -> cost g*m_rw = 2
  m.write(0, a, 11);
  m.commit_phase();
  m.begin_phase();            // phase 1: two readers of a -> kappa_r = 2
  m.read(0, a);
  m.read(1, a);
  m.commit_phase();
  m.begin_phase();            // phase 2: five local ops -> m_op = 5
  m.local(0, 5);
  m.commit_phase();
  ASSERT_EQ(m.time(), 2u + 2u + 5u);

  const std::string expected =
      "[{\"name\":\"phase 0\",\"cat\":\"qsm\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":2,\"pid\":1,\"tid\":1,\"args\":{\"cost\":2,\"m_op\":0,"
      "\"m_rw\":1,\"kappa_r\":1,\"kappa_w\":1,\"reads\":0,\"writes\":1,"
      "\"ops\":0}},\n"
      "{\"name\":\"phase 1\",\"cat\":\"qsm\",\"ph\":\"X\",\"ts\":2,"
      "\"dur\":2,\"pid\":1,\"tid\":1,\"args\":{\"cost\":2,\"m_op\":0,"
      "\"m_rw\":1,\"kappa_r\":2,\"kappa_w\":1,\"reads\":2,\"writes\":0,"
      "\"ops\":0}},\n"
      "{\"name\":\"phase 2\",\"cat\":\"qsm\",\"ph\":\"X\",\"ts\":4,"
      "\"dur\":5,\"pid\":1,\"tid\":1,\"args\":{\"cost\":5,\"m_op\":5,"
      "\"m_rw\":1,\"kappa_r\":1,\"kappa_w\":1,\"reads\":0,\"writes\":0,"
      "\"ops\":5}}]\n";
  EXPECT_EQ(model_time_trace_json(m.trace()), expected);
}

TEST(ModelTimeTrace, BspCarriesHRelationAndKindToken) {
  ExecutionTrace t;
  t.kind = ExecutionTrace::Kind::Bsp;
  t.g = 4;
  PhaseTrace ph;
  ph.cost = 9;
  ph.h = 3;
  t.phases.push_back(ph);
  const auto events = JsonWalker(model_time_trace_json(t)).parse_event_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("cat"), "bsp");
  EXPECT_EQ(events[0].at("args.h"), "3");
  EXPECT_EQ(events[0].at("dur"), "9");
}

TEST(ModelTimeTrace, KindTokensCoverAllEngines) {
  EXPECT_STREQ(trace_kind_token(ExecutionTrace::Kind::Qsm), "qsm");
  EXPECT_STREQ(trace_kind_token(ExecutionTrace::Kind::SQsm), "sqsm");
  EXPECT_STREQ(trace_kind_token(ExecutionTrace::Kind::Bsp), "bsp");
  EXPECT_STREQ(trace_kind_token(ExecutionTrace::Kind::Gsm), "gsm");
  EXPECT_STREQ(trace_kind_token(ExecutionTrace::Kind::QsmGd), "qsm_gd");
}

}  // namespace
}  // namespace parbounds::obs
