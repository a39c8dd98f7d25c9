// Golden-schema test for the --json bench output (docs/RUNTIME.md).
//
// Consumers of BENCH_*.json (trend dashboards, diff scripts) key on the
// "parbounds-bench-v2" report layout and the "parbounds-ops-v1" ops
// file next to it, so this test pins both: the exact key set at every
// level, %.17g cost round-tripping, and the contract that a serial and
// a parallel run of the same experiment serialize to identical report
// bytes. A tiny recursive-descent JSON parser lives here on purpose —
// the repo has no JSON dependency, and the test must not share
// serialization code with what it checks.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/bench_json.hpp"
#include "runtime/harness_flags.hpp"
#include "runtime/runner.hpp"
#include "runtime/simd_level.hpp"
#include "runtime/sweep.hpp"
#include "util/rng.hpp"

namespace parbounds::runtime {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON value + parser (objects, arrays, strings, numbers, bools).
struct JsonValue {
  enum Kind { Object, Array, String, Number, Bool, Null } kind = Null;
  std::map<std::string, std::shared_ptr<JsonValue>> object;
  std::vector<std::shared_ptr<JsonValue>> array;
  std::string string;
  double number = 0;
  bool boolean = false;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const {
    return *object.at(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    const JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON input");
    return v;
  }

 private:
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

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      const JsonValue key = string_value();
      expect(':');
      v.object[key.string] = std::make_shared<JsonValue>(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(std::make_shared<JsonValue>(value()));
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::String;
    expect('"');
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        switch (s_[pos_]) {
          case 'n': v.string += '\n'; break;
          case 't': v.string += '\t'; break;
          case 'u':
            // Only \u00XX control escapes are emitted by json_escape.
            v.string += static_cast<char>(
                std::stoi(s_.substr(pos_ + 1, 4), nullptr, 16));
            pos_ += 4;
            break;
          default: v.string += s_[pos_];
        }
      } else {
        v.string += s_[pos_];
      }
      ++pos_;
    }
    expect('"');
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Bool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  JsonValue null() {
    if (s_.compare(pos_, 4, "null") != 0)
      throw std::runtime_error("bad literal");
    pos_ += 4;
    JsonValue v;
    v.kind = JsonValue::Null;
    return v;
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Number;
    std::size_t used = 0;
    v.number = std::stod(s_.substr(pos_), &used);
    if (used == 0) throw std::runtime_error("bad number");
    pos_ += used;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------

constexpr std::uint64_t kBase = 0x5eedULL;

std::vector<SweepCell> tiny_cells() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {32ull, 128ull})
    cells.push_back({.key = "n=" + std::to_string(n),
                     .trials = 3,
                     .lb = 1.0,
                     .ub = static_cast<double>(2 * n),
                     .run = [n](std::uint64_t seed) {
                       Rng rng(seed);
                       // A fractional cost so %.17g round-tripping is
                       // actually exercised.
                       return static_cast<double>(rng.next_below(n)) +
                              1.0 / 3.0;
                     }});
  return cells;
}

BenchReport tiny_report(unsigned jobs) {
  ExperimentRunner runner({.jobs = jobs});
  BenchReport report;
  report.bench = "bench_schema_probe";
  report.jobs = jobs;
  report.seed = kBase;
  report.sweeps.push_back(run_sweep(runner, "tiny sweep", kBase, tiny_cells()));
  return report;
}

/// The object's key set, sorted (std::map order).
std::vector<std::string> keys(const JsonValue& v) {
  std::vector<std::string> out;
  for (const auto& kv : v.object) out.push_back(kv.first);
  return out;
}

using Keys = std::vector<std::string>;

TEST(BenchJson, RequiredKeysAndTypes) {
  const auto doc = JsonParser(to_json(tiny_report(2))).parse();
  ASSERT_EQ(doc.kind, JsonValue::Object);
  // Exactly these keys: nothing that depends on the wall clock, the
  // host or the --jobs/--threads/--workers setting.
  EXPECT_EQ(keys(doc), (Keys{"bench", "schema", "seed", "sweeps"}));
  EXPECT_EQ(doc.at("schema").string, "parbounds-bench-v2");
  EXPECT_EQ(doc.at("bench").string, "bench_schema_probe");
  EXPECT_EQ(doc.at("seed").number, static_cast<double>(kBase));

  ASSERT_EQ(doc.at("sweeps").array.size(), 1u);
  const JsonValue& sweep = *doc.at("sweeps").array[0];
  EXPECT_EQ(keys(sweep), (Keys{"base_seed", "cells", "title"}));
  EXPECT_EQ(sweep.at("title").string, "tiny sweep");

  ASSERT_EQ(sweep.at("cells").array.size(), 2u);
  for (const auto& cellp : sweep.at("cells").array) {
    const JsonValue& cell = *cellp;
    EXPECT_EQ(keys(cell), (Keys{"costs", "key", "lb", "mean", "p50", "p99",
                                "trials", "ub"}));
    EXPECT_EQ(cell.at("trials").number, 3.0);
    EXPECT_EQ(cell.at("costs").array.size(), 3u);
  }
}

TEST(BenchJson, CostsRoundTripExactly) {
  const auto report = tiny_report(4);
  const auto doc = JsonParser(to_json(report)).parse();
  const JsonValue& sweep = *doc.at("sweeps").array[0];
  for (std::size_t ci = 0; ci < report.sweeps[0].cells.size(); ++ci) {
    const auto& want = report.sweeps[0].cells[ci];
    const JsonValue& got = *sweep.at("cells").array[ci];
    EXPECT_EQ(got.at("key").string, want.key);
    EXPECT_EQ(got.at("mean").number, want.mean);  // %.17g: exact
    EXPECT_EQ(got.at("p99").number, want.p99);
    for (std::size_t t = 0; t < want.costs.size(); ++t)
      EXPECT_EQ(got.at("costs").array[t]->number, want.costs[t])
          << "cost " << t << " did not round-trip";
  }
}

TEST(BenchJson, NamedValuesRoundTripExactlyAndOnlyWhenPresent) {
  ExperimentRunner runner({.jobs = 2});
  BenchReport report;
  report.bench = "bench_values_probe";
  std::vector<SweepCell> cells = tiny_cells();
  cells.push_back({.key = "audit",
                   .trials = 3,
                   .run = [](std::uint64_t seed) {
                     Rng rng(seed);
                     const double rounds =
                         static_cast<double>(rng.next_below(50)) + 0.1;
                     return Trial(rounds, {{"rounds", rounds / 7.0},
                                           {"all_rounds", 1.0}});
                   }});
  report.sweeps.push_back(
      run_sweep(runner, "values sweep", kBase, std::move(cells)));
  const auto doc = JsonParser(to_json(report)).parse();
  const auto& got_cells = doc.at("sweeps").array[0]->at("cells").array;
  ASSERT_EQ(got_cells.size(), 3u);
  // Cost-only cells carry no "values" key at all.
  EXPECT_FALSE(got_cells[0]->has("values"));
  EXPECT_FALSE(got_cells[1]->has("values"));

  const auto& want = report.sweeps[0].cells[2];
  const JsonValue& values = got_cells[2]->at("values");
  ASSERT_EQ(values.object.size(), 2u);
  for (const auto& [name, per_trial] : want.values) {
    ASSERT_TRUE(values.has(name)) << name;
    const auto& arr = values.at(name).array;
    ASSERT_EQ(arr.size(), per_trial.size());
    for (std::size_t t = 0; t < per_trial.size(); ++t)
      EXPECT_EQ(arr[t]->number, per_trial[t])  // %.17g: exact
          << name << " trial " << t << " did not round-trip";
  }
  // Declaration order is kept in the document.
  const std::string text = to_json(report);
  EXPECT_LT(text.find("\"rounds\":["), text.find("\"all_rounds\":["));
}

TEST(BenchJson, SerialAndParallelSerializeIdenticallyModuloTiming) {
  // The determinism contract, at the serialization level: a 1-thread
  // and a 4-thread run of the same experiment write the same report
  // bytes as they are. Timing, jobs and threads live in the ops file.
  auto serial = tiny_report(1);
  auto parallel = tiny_report(4);
  parallel.threads = 4;
  parallel.workers = 2;
  parallel.ratios = {{"speedup", 3.0}};
  EXPECT_EQ(to_json(serial), to_json(parallel));
  EXPECT_NE(ops_json(serial), ops_json(parallel));
}

TEST(BenchJson, EscapesStringsSafely) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  // A title with quotes must survive a full round trip.
  BenchReport report = tiny_report(1);
  report.sweeps[0].title = "weird \"title\" with \\ and \n";
  const auto doc = JsonParser(to_json(report)).parse();
  EXPECT_EQ(doc.at("sweeps").array[0]->at("title").string,
            report.sweeps[0].title);
}

TEST(BenchJson, OpsFileCarriesSettingsWallTimesAndRatios) {
  auto report = tiny_report(2);
  report.threads = 3;
  report.workers = 4;
  report.sweeps.push_back(report.sweeps[0]);
  report.sweeps[0].wall_ms = 1.5;
  report.sweeps[1].title = "second";
  report.sweeps[1].wall_ms = 2.25;
  report.ratios = {{"b/speedup", 1.0 / 3.0}, {"a/overhead", 1.02}};
  const std::string text = ops_json(report);
  const auto doc = JsonParser(text).parse();
  EXPECT_EQ(keys(doc), (Keys{"bench", "host", "jobs", "ratios", "schema",
                             "sweeps", "threads", "wall_ms", "workers"}));
  EXPECT_EQ(doc.at("schema").string, "parbounds-ops-v1");
  EXPECT_EQ(doc.at("bench").string, "bench_schema_probe");
  EXPECT_EQ(doc.at("jobs").number, 2.0);
  EXPECT_EQ(doc.at("threads").number, 3.0);
  EXPECT_EQ(doc.at("workers").number, 4.0);
  EXPECT_EQ(doc.at("wall_ms").number, 3.75);  // the sum of the sweeps'

  const auto& sweeps = doc.at("sweeps").array;
  ASSERT_EQ(sweeps.size(), 2u);
  EXPECT_EQ(keys(*sweeps[0]), (Keys{"title", "wall_ms"}));
  EXPECT_EQ(sweeps[0]->at("title").string, "tiny sweep");
  EXPECT_EQ(sweeps[1]->at("title").string, "second");
  EXPECT_EQ(sweeps[1]->at("wall_ms").number, 2.25);

  const JsonValue& ratios = doc.at("ratios");
  ASSERT_EQ(ratios.object.size(), 2u);
  EXPECT_EQ(ratios.at("b/speedup").number, 1.0 / 3.0);  // %.17g: exact
  EXPECT_EQ(ratios.at("a/overhead").number, 1.02);
  // Recording order is kept in the document.
  EXPECT_LT(text.find("\"b/speedup\""), text.find("\"a/overhead\""));

  // With nothing measured the ratios object is still there, empty.
  EXPECT_TRUE(
      JsonParser(ops_json(tiny_report(1))).parse().at("ratios").object.empty());
}

TEST(BenchJson, OpsPathSitsNextToTheReport) {
  EXPECT_EQ(ops_path("BENCH_hotpath.json"), "BENCH_hotpath.ops.json");
  EXPECT_EQ(ops_path("out/r.json"), "out/r.ops.json");
  EXPECT_EQ(ops_path("report"), "report.ops.json");
  EXPECT_EQ(ops_path("r.json.bak"), "r.json.bak.ops.json");
}

TEST(BenchJson, HostBlockCarriesProvenanceOnlyWhenTimed) {
  // The timed document is the ops file; the report never carries a host.
  const auto doc = JsonParser(ops_json(tiny_report(2))).parse();
  ASSERT_TRUE(doc.has("host"));
  const JsonValue& host = doc.at("host");
  for (const char* key : {"hardware_concurrency", "build_type", "compiler",
                          "dispatch", "cpu_features"})
    EXPECT_TRUE(host.has(key)) << "missing host key " << key;
  EXPECT_GE(host.at("hardware_concurrency").number, 1.0);
  EXPECT_FALSE(host.at("compiler").string.empty());
  // The dispatch level is one of the three tier names, and the feature
  // list is never empty ("none" when the probe finds nothing).
  const std::string& dispatch = host.at("dispatch").string;
  EXPECT_TRUE(dispatch == "portable" || dispatch == "avx2" ||
              dispatch == "avx512")
      << "unexpected dispatch level " << dispatch;
  EXPECT_FALSE(host.at("cpu_features").string.empty());
  // The host describes the machine that produced the WALL numbers; the
  // report (the cross-jobs byte-identity contract) must not carry it.
  EXPECT_FALSE(JsonParser(to_json(tiny_report(2))).parse().has("host"));
}

TEST(BenchJson, PinnedPortableDispatchReportedInHostBlock) {
  // What PARBOUNDS_SIMD=portable resolves to at startup: the host block
  // must report the PINNED level, not the probe's maximum — that's what
  // makes a recorded portable-baseline run distinguishable from a SIMD
  // run on the same machine.
  const SimdLevel entry = active_simd_level();
  set_simd_level(SimdLevel::kPortable);
  const auto doc = JsonParser(ops_json(tiny_report(1))).parse();
  set_simd_level(entry);
  EXPECT_EQ(doc.at("host").at("dispatch").string, "portable");
}

TEST(SimdLevelPin, ValidNamesParse) {
  SimdLevel out = SimdLevel::kAvx512;
  std::string err;
  ASSERT_TRUE(parse_simd_level("portable", out, err));
  EXPECT_EQ(out, SimdLevel::kPortable);
  ASSERT_TRUE(parse_simd_level("avx2", out, err));
  EXPECT_EQ(out, SimdLevel::kAvx2);
  ASSERT_TRUE(parse_simd_level("avx512", out, err));
  EXPECT_EQ(out, SimdLevel::kAvx512);
}

TEST(SimdLevelPin, UnknownValueIsTypedErrorWithHint) {
  SimdLevel out = SimdLevel::kPortable;
  std::string err;
  ASSERT_FALSE(parse_simd_level("avx51", out, err));
  EXPECT_NE(err.find("PARBOUNDS_SIMD=avx51"), std::string::npos) << err;
  EXPECT_NE(err.find("did you mean 'avx512'"), std::string::npos) << err;
  EXPECT_NE(err.find("portable, avx2, avx512"), std::string::npos) << err;

  ASSERT_FALSE(parse_simd_level("portble", out, err));
  EXPECT_NE(err.find("did you mean 'portable'"), std::string::npos) << err;
}

TEST(SimdLevelPin, UnsupportedTierIsRejected) {
  // set_simd_level must refuse tiers above the probe's maximum; levels
  // up to the maximum (the oracle's sweep domain) must all take.
  const SimdLevel entry = active_simd_level();
  for (const SimdLevel level : supported_simd_levels())
    EXPECT_NO_THROW(set_simd_level(level));
  if (max_supported_simd_level() < SimdLevel::kAvx512) {
    EXPECT_THROW(set_simd_level(SimdLevel::kAvx512), std::invalid_argument);
  }
  set_simd_level(entry);
}

TEST(BenchJson, MetricsBlockSerializedOnlyWhenPopulated) {
  auto report = tiny_report(1);
  EXPECT_FALSE(JsonParser(to_json(report)).parse().has("metrics"));

  report.metrics_json =
      "{\"counters\":{\"qsm.phases\":3},\"gauges\":{},\"histograms\":{}}";
  const auto doc = JsonParser(to_json(report)).parse();
  ASSERT_TRUE(doc.has("metrics"));
  EXPECT_EQ(doc.at("metrics").at("counters").at("qsm.phases").number, 3.0);
  EXPECT_EQ(keys(doc), (Keys{"bench", "metrics", "schema", "seed", "sweeps"}));
}

// ---------------------------------------------------------------------
// parse_harness_flags (runtime/harness_flags.hpp): the --jobs/--json/
// --trace stripping every bench binary shares. The `--json -out.json`
// case is the regression this suite pins — the old in-harness parser
// silently treated a path beginning with '-' as "no path given".

struct Argv {
  explicit Argv(std::initializer_list<const char*> args) {
    for (const char* a : args) store.emplace_back(a);
    for (auto& s : store) ptrs.push_back(s.data());
    argc = static_cast<int>(ptrs.size());
  }
  HarnessFlags parse() {
    return parse_harness_flags(argc, ptrs.data(), "default.json",
                               "default_trace.json");
  }
  std::vector<std::string> store;
  std::vector<char*> ptrs;
  int argc = 0;
};

TEST(HarnessFlags, JobsBothSpellings) {
  Argv split({"bench", "--jobs", "4"});
  const auto a = split.parse();
  EXPECT_FALSE(a.error);
  EXPECT_EQ(a.jobs, 4u);
  EXPECT_EQ(split.argc, 1);

  Argv equals({"bench", "--jobs=8"});
  EXPECT_EQ(equals.parse().jobs, 8u);
}

TEST(HarnessFlags, JobsWithoutValueIsAnError) {
  Argv bad({"bench", "--jobs"});
  const auto f = bad.parse();
  EXPECT_TRUE(f.error);
  EXPECT_NE(f.error_message.find("--jobs"), std::string::npos);
}

TEST(HarnessFlags, JobsRejectsNegativesGarbageAndOverflow) {
  // A sign, trailing text, an empty value and 2^32 are typed errors in
  // the --threads style, never some other worker count. Only the parser
  // runs: nothing here builds a runner or a pool.
  for (const char* value : {"-1", "abc", "4x", "", "4294967296"}) {
    Argv split({"bench", "--jobs", value});
    Argv equals({"bench", ("--jobs=" + std::string(value)).c_str()});
    for (Argv* argv : {&split, &equals}) {
      const auto f = argv->parse();
      EXPECT_TRUE(f.error) << "--jobs '" << value << "'";
      EXPECT_NE(f.error_message.find("--jobs"), std::string::npos)
          << f.error_message;
      EXPECT_NE(f.error_message.find("non-negative integer"),
                std::string::npos)
          << f.error_message;
    }
  }
  // 0 keeps meaning all cores; the largest `unsigned` is still a count.
  Argv zero({"bench", "--jobs", "0"});
  EXPECT_FALSE(zero.parse().error);
  Argv top({"bench", "--jobs=4294967295"});
  const auto t = top.parse();
  EXPECT_FALSE(t.error);
  EXPECT_EQ(t.jobs, 4294967295u);
}

TEST(HarnessFlags, ParseCountTakesWholeDigitStringsThatFit) {
  std::uint64_t v = 7;
  EXPECT_TRUE(runtime::parse_count("0", 10, v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(runtime::parse_count("18446744073709551615", ~std::uint64_t{0},
                                   v));
  EXPECT_EQ(v, ~std::uint64_t{0});
  v = 7;
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "11", "0x1",
                          "18446744073709551616"})
    EXPECT_FALSE(runtime::parse_count(bad, 10, v)) << "'" << bad << "'";
  EXPECT_EQ(v, 7u);  // untouched by every rejection
}

TEST(HarnessFlags, BareJsonTakesTheDefaultPath) {
  Argv bare({"bench", "--json"});
  const auto f = bare.parse();
  EXPECT_FALSE(f.error);
  EXPECT_EQ(f.json_path, "default.json");
}

TEST(HarnessFlags, JsonConsumesAPlainPath) {
  Argv argv({"bench", "--json", "out.json", "--trace", "spans.json"});
  const auto f = argv.parse();
  EXPECT_FALSE(f.error);
  EXPECT_EQ(f.json_path, "out.json");
  EXPECT_EQ(f.trace_path, "spans.json");
  EXPECT_EQ(argv.argc, 1);
}

TEST(HarnessFlags, BareJsonBeforeAnotherFlagKeepsTheDefault) {
  Argv argv({"bench", "--json", "--jobs", "2"});
  const auto f = argv.parse();
  EXPECT_FALSE(f.error);
  EXPECT_EQ(f.json_path, "default.json");
  EXPECT_EQ(f.jobs, 2u);
  EXPECT_EQ(argv.argc, 1);
}

TEST(HarnessFlags, SingleDashPathIsRejectedWithTheEqualsHint) {
  // Regression: this used to silently mean "no path".
  Argv argv({"bench", "--json", "-out.json"});
  const auto f = argv.parse();
  EXPECT_TRUE(f.error);
  EXPECT_NE(f.error_message.find("--json=-out.json"), std::string::npos)
      << f.error_message;
}

TEST(HarnessFlags, EqualsFormForcesADashPath) {
  Argv argv({"bench", "--json=-out.json", "--trace=-t.json"});
  const auto f = argv.parse();
  EXPECT_FALSE(f.error);
  EXPECT_EQ(f.json_path, "-out.json");
  EXPECT_EQ(f.trace_path, "-t.json");
}

TEST(HarnessFlags, ThreadsBothSpellingsAndDefault) {
  Argv split({"bench", "--threads", "4"});
  const auto a = split.parse();
  EXPECT_FALSE(a.error);
  EXPECT_TRUE(a.threads_set);
  EXPECT_EQ(a.threads, 4u);
  EXPECT_EQ(a.resolved_threads(/*resolved_jobs=*/2), 4u);  // explicit wins
  EXPECT_EQ(split.argc, 1);

  Argv equals({"bench", "--threads=8"});
  EXPECT_EQ(equals.parse().resolved_threads(2), 8u);

  Argv absent({"bench", "--jobs", "3"});
  const auto d = absent.parse();
  EXPECT_FALSE(d.threads_set);
  EXPECT_EQ(d.resolved_threads(/*resolved_jobs=*/3), 3u);  // follows jobs
}

TEST(HarnessFlags, ThreadsZeroIsRejectedWithAClearError) {
  // Unlike --jobs there is no "auto" spelling for the pool; a literal 0
  // must fail loudly, not silently remap.
  Argv split({"bench", "--threads", "0"});
  Argv equals({"bench", "--threads=0"});
  for (Argv* argv : {&split, &equals}) {
    const auto f = argv->parse();
    EXPECT_TRUE(f.error);
    EXPECT_NE(f.error_message.find("--threads"), std::string::npos);
    EXPECT_NE(f.error_message.find("positive"), std::string::npos)
        << f.error_message;
  }
}

TEST(HarnessFlags, ThreadsGarbageIsRejected) {
  Argv argv({"bench", "--threads", "two"});
  EXPECT_TRUE(argv.parse().error);
  Argv trailing({"bench", "--threads=4x"});
  EXPECT_TRUE(trailing.parse().error);
  Argv missing({"bench", "--threads"});
  const auto f = missing.parse();
  EXPECT_TRUE(f.error);
  EXPECT_NE(f.error_message.find("--threads"), std::string::npos);
}

TEST(HarnessFlags, UnrecognizedTokensAreRejected) {
  // Nothing passes through any more: an unknown flag and a positional
  // token are both named errors with a did-you-mean hint.
  for (const char* token : {"--benchmark_filter=OR", "positional"}) {
    Argv argv({"bench", "--jobs", "2", token});
    const auto f = argv.parse();
    EXPECT_TRUE(f.error) << token;
    EXPECT_NE(f.error_message.find("unknown argument"), std::string::npos)
        << f.error_message;
    EXPECT_NE(f.error_message.find("did you mean '--"), std::string::npos)
        << f.error_message;
  }
}

TEST(HarnessFlags, CacheFlagsBothSpellingsRequireWorkers) {
  Argv split({"bench", "--workers", "2", "--cache-dir", "cachedir",
              "--cache-bytes", "1024"});
  const auto f = split.parse();
  EXPECT_FALSE(f.error) << f.error_message;
  EXPECT_EQ(f.cache_dir, "cachedir");
  EXPECT_EQ(f.cache_bytes, 1024u);
  EXPECT_EQ(split.argc, 1);  // all stripped

  Argv equals({"bench", "--workers=2", "--cache-dir=d2", "--cache-bytes=2048"});
  const auto e = equals.parse();
  EXPECT_FALSE(e.error);
  EXPECT_EQ(e.cache_dir, "d2");
  EXPECT_EQ(e.cache_bytes, 2048u);

  Argv absent({"bench"});
  const auto d = absent.parse();
  EXPECT_TRUE(d.cache_dir.empty());
  EXPECT_EQ(d.cache_bytes, 0u);  // 0 = library default

  // The cache is the fleet's shared cell cache: without --workers
  // either flag would silently do nothing, so each is a typed error.
  for (const auto& [flag, value] : {std::pair{"--cache-dir", "cachedir"},
                                    std::pair{"--cache-bytes", "1024"}}) {
    Argv alone({"bench", flag, value});
    const auto a = alone.parse();
    EXPECT_TRUE(a.error) << flag;
    EXPECT_NE(a.error_message.find(std::string(flag) + " without --workers"),
              std::string::npos)
        << a.error_message;
    EXPECT_NE(a.error_message.find("add --workers"), std::string::npos)
        << a.error_message;
  }
}

TEST(HarnessFlags, CacheBytesRejectsZeroAndGarbage) {
  // 0 is spelled by omitting the flag; a literal 0 is always a mistake.
  for (const char* v : {"0", "lots", "12x"}) {
    Argv argv({"bench", "--cache-bytes", v});
    const auto f = argv.parse();
    EXPECT_TRUE(f.error) << v;
    EXPECT_NE(f.error_message.find("--cache-bytes"), std::string::npos)
        << f.error_message;
  }
  Argv missing_bytes({"bench", "--cache-bytes"});
  EXPECT_TRUE(missing_bytes.parse().error);
  Argv missing_dir({"bench", "--cache-dir"});
  EXPECT_TRUE(missing_dir.parse().error);
}

TEST(HarnessFlags, WorkersBothSpellingsAndDefault) {
  Argv split({"bench", "--workers", "4"});
  const auto a = split.parse();
  EXPECT_FALSE(a.error) << a.error_message;
  EXPECT_EQ(a.workers, 4u);
  EXPECT_EQ(split.argc, 1);  // stripped

  Argv equals({"bench", "--workers=2"});
  const auto b = equals.parse();
  EXPECT_FALSE(b.error);
  EXPECT_EQ(b.workers, 2u);

  Argv absent({"bench"});
  EXPECT_EQ(absent.parse().workers, 0u);  // 0 = in-process execution
}

TEST(HarnessFlags, WorkersRejectsZeroAndGarbage) {
  // --workers 0 would mean "a fleet of no workers"; in-process execution
  // is spelled by omitting the flag, so 0 is always a mistake — as is
  // anything that is not a positive integer.
  for (const char* v : {"0", "two", "4x"}) {
    Argv argv({"bench", "--workers", v});
    const auto f = argv.parse();
    EXPECT_TRUE(f.error) << v;
    EXPECT_NE(f.error_message.find("--workers"), std::string::npos)
        << f.error_message;
    EXPECT_NE(f.error_message.find("positive integer"), std::string::npos)
        << f.error_message;
  }
  Argv missing({"bench", "--workers"});
  EXPECT_TRUE(missing.parse().error);
  Argv equals_zero({"bench", "--workers=0"});
  EXPECT_TRUE(equals_zero.parse().error);
}

TEST(HarnessFlags, WorkersTyposGetADidYouMeanHint) {
  // --worker and --wokers are near-misses of --workers; they must be
  // named errors with the right hint, not silently ignored.
  for (const char* typo : {"--worker", "--wokers", "--worker=4"}) {
    Argv argv({"bench", typo});
    const auto f = argv.parse();
    EXPECT_TRUE(f.error) << typo;
    EXPECT_NE(f.error_message.find("did you mean '--workers'"),
              std::string::npos)
        << f.error_message;
  }
  // ...and so is an unrelated unknown flag: nothing falls through.
  Argv unrelated({"bench", "--benchmark_filter=NONE"});
  const auto f = unrelated.parse();
  EXPECT_TRUE(f.error);
  EXPECT_NE(f.error_message.find("did you mean"), std::string::npos)
      << f.error_message;
}

TEST(HarnessFlags, FleetWindowIsAnUnknownFlag) {
  // The fleet's credit window is FleetConfig::window alone; there is no
  // harness flag for it, so --fleet-window is rejected like any typo
  // rather than silently dropped.
  Argv split({"bench", "--workers", "2", "--fleet-window", "4"});
  Argv equals({"bench", "--workers=2", "--fleet-window=4"});
  for (Argv* argv : {&split, &equals}) {
    const auto f = argv->parse();
    EXPECT_TRUE(f.error);
    EXPECT_NE(f.error_message.find("unknown argument '--fleet-window'"),
              std::string::npos)
        << f.error_message;
  }
}

TEST(HarnessFlags, TakeFloorFlagStripsOnlyItsOwnFlag) {
  Argv argv({"bench", "--min-phase-speedup=1.5", "--jobs", "2",
             "--min-phase-speedup-x=3", "--min-degree-speedup=2.5e0"});
  EXPECT_DOUBLE_EQ(
      take_floor_flag(argv.argc, argv.ptrs.data(), "--min-phase-speedup", 0.0),
      1.5);
  EXPECT_DOUBLE_EQ(take_floor_flag(argv.argc, argv.ptrs.data(),
                                   "--min-degree-speedup", 0.0),
                   2.5);
  // Absent: the fallback. What is left goes to the harness, which
  // rejects the near-miss by name.
  EXPECT_DOUBLE_EQ(
      take_floor_flag(argv.argc, argv.ptrs.data(), "--max-overhead", 1.05),
      1.05);
  ASSERT_EQ(argv.argc, 4);
  EXPECT_STREQ(argv.ptrs[1], "--jobs");
  EXPECT_STREQ(argv.ptrs[3], "--min-phase-speedup-x=3");
  EXPECT_TRUE(argv.parse().error);

  // The last spelling wins, as with every other harness flag.
  Argv twice({"bench", "--max-overhead=2", "--max-overhead=1.25"});
  EXPECT_DOUBLE_EQ(
      take_floor_flag(twice.argc, twice.ptrs.data(), "--max-overhead", 1.05),
      1.25);
  EXPECT_EQ(twice.argc, 1);
}

TEST(HarnessFlags, MalformedGateFloorsExit2NamingTheFlag) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // The whole value must be a finite positive number: a trailing unit, a
  // word, a sign, zero, infinity or no value at all is a typed error,
  // never an abort or a silently different floor.
  for (const char* arg :
       {"--min-pipeline-speedup=abc", "--min-pipeline-speedup=1.5x",
        "--min-pipeline-speedup=", "--min-pipeline-speedup",
        "--min-pipeline-speedup=0", "--min-pipeline-speedup=-1",
        "--min-pipeline-speedup=inf", "--min-pipeline-speedup=nan",
        "--min-pipeline-speedup= 1.5"}) {
    Argv argv({"bench", arg});
    EXPECT_EXIT(take_floor_flag(argv.argc, argv.ptrs.data(),
                                "--min-pipeline-speedup", 1.0),
                ::testing::ExitedWithCode(2), "--min-pipeline-speedup")
        << arg;
  }
}

TEST(HarnessFlags, ServiceNamespaceTyposGetADidYouMeanHint) {
  // A typo in the --cache- namespace must name the flag it meant, not
  // just fail.
  struct Case {
    const char* arg;
    const char* hint;
  };
  for (const Case& c : {Case{"--cache-dirs", "--cache-dir"},
                        Case{"--cache-byte", "--cache-bytes"},
                        Case{"--cach-dir=d", "--cache-dir"}}) {
    Argv argv({"bench", c.arg});
    const auto f = argv.parse();
    EXPECT_TRUE(f.error) << c.arg;
    EXPECT_NE(f.error_message.find("did you mean"), std::string::npos)
        << f.error_message;
    EXPECT_NE(f.error_message.find(c.hint), std::string::npos)
        << f.error_message;
  }
}

}  // namespace
}  // namespace parbounds::runtime
