// Content-addressed result cache (runtime/sweep_service/cache.hpp): the
// on-disk contract every cached cost depends on. Pinned here:
//
//   * the cache key recipe — a golden canonical string and its sha256,
//     so a silent change to the keying breaks a test, not a cache;
//   * hit/miss/evict sequences, including LRU recency across fetches;
//   * corruption handling — a truncated or garbled entry is detected,
//     unlinked and re-run, NEVER served;
//   * crash hygiene — tmp droppings are swept on startup, and a
//     reopened cache indexes its directory deterministically.
//
// Every test uses its own directory under the gtest temp root so runs
// are hermetic and order-independent.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "runtime/sweep_service/cache.hpp"
#include "runtime/sweep_service/protocol.hpp"
#include "util/sha256.hpp"

namespace parbounds::service {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty per-test directory under the gtest temp root.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sweep_cache_" + name);
  fs::remove_all(dir);
  return dir;
}

/// Whole-file read, for inspecting entries the cache wrote.
std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

void spit(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------
// Key recipe goldens. These bytes are the compatibility contract of the
// on-disk cache: if either assertion fires, previously cached results
// are stale and kCodeVersion must be bumped alongside the fix.

TEST(CacheKey, Sha256KnownAnswers) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(CacheKey, CanonicalRequestAndKeyAreStable) {
  Request req;
  req.id = 7;  // excluded from the key: ids are transport plumbing
  req.op = Op::Run;
  req.spec = {.engine = "qsm",
              .workload = "parity_circuit",
              .params = {{"n", 1024}, {"g", 4}}};
  req.seed = 42;
  // Params serialize sorted by name (g before n), after the version tag.
  EXPECT_EQ(canonical_request(req),
            "parbounds-service-v3|engine=qsm|workload=parity_circuit"
            "|g=4|n=1024|seed=42");
  EXPECT_EQ(cache_key(req),
            "605a52cb347002c31638b8b22b0a4c59e01af4e455639c4b317e2d5ff0024ae7");

  // Param declaration order must not matter — same content, same key.
  Request swapped = req;
  swapped.spec.params = {{"g", 4}, {"n", 1024}};
  EXPECT_EQ(cache_key(swapped), cache_key(req));

  // ... but every content field must: one different value, different key.
  Request other_seed = req;
  other_seed.seed = 43;
  EXPECT_NE(cache_key(other_seed), cache_key(req));
  Request other_engine = req;
  other_engine.spec.engine = "sqsm";
  EXPECT_NE(cache_key(other_engine), cache_key(req));
}

// ---------------------------------------------------------------------
// Hit / miss / evict sequences.

TEST(ResultCache, MissInsertHitRoundTrip) {
  ResultCache cache({.dir = fresh_dir("roundtrip")});
  std::string payload;
  EXPECT_EQ(cache.fetch("k1", payload), FetchResult::Miss);

  EXPECT_EQ(cache.insert("k1", "41.5"), 0u);
  EXPECT_EQ(cache.fetch("k1", payload), FetchResult::Hit);
  EXPECT_EQ(payload, "41.5");

  const auto t = cache.totals();
  EXPECT_EQ(t.entries, 1u);
  EXPECT_GT(t.bytes, 4u);  // header + payload
}

TEST(ResultCache, InsertingAnExistingKeyOnlyRefreshesRecency) {
  ResultCache cache({.dir = fresh_dir("reinsert")});
  cache.insert("k1", "1");
  const auto before = cache.totals();
  EXPECT_EQ(cache.insert("k1", "1"), 0u);
  const auto after = cache.totals();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes);
}

TEST(ResultCache, EvictionIsLruOverLogicalTicks) {
  // Learn the exact on-disk size of one entry (keys and payloads below
  // all have the same lengths), then bound a second cache to exactly two
  // entries so the third insert must evict.
  const fs::path probe_dir = fresh_dir("evict_probe");
  std::uint64_t entry_bytes = 0;
  {
    ResultCache probe({.dir = probe_dir});
    probe.insert("a", "1");
    entry_bytes = probe.totals().bytes;
  }

  const fs::path dir = fresh_dir("evict");
  ResultCache cache({.dir = dir, .max_bytes = 2 * entry_bytes});
  EXPECT_EQ(cache.insert("a", "1"), 0u);
  EXPECT_EQ(cache.insert("b", "2"), 0u);

  // Touch "a": it becomes the freshest entry, so the overflow victim is
  // "b" — least-recently-used, not first-inserted.
  std::string payload;
  EXPECT_EQ(cache.fetch("a", payload), FetchResult::Hit);
  EXPECT_EQ(cache.insert("c", "3"), 1u);

  EXPECT_EQ(cache.fetch("b", payload), FetchResult::Miss);
  EXPECT_FALSE(fs::exists(dir / "b"));  // evicted entries leave the disk
  EXPECT_EQ(cache.fetch("a", payload), FetchResult::Hit);
  EXPECT_EQ(cache.fetch("c", payload), FetchResult::Hit);
  EXPECT_EQ(cache.totals().entries, 2u);
  EXPECT_LE(cache.totals().bytes, 2 * entry_bytes);
}

// ---------------------------------------------------------------------
// Corruption: detected, unlinked, re-run — never served.

TEST(ResultCache, TruncatedEntryIsCorruptThenMiss) {
  const fs::path dir = fresh_dir("truncated");
  ResultCache cache({.dir = dir});
  cache.insert("k1", "3.25e2");

  const std::string raw = slurp(dir / "k1");
  spit(dir / "k1", raw.substr(0, raw.size() - 2));  // lose payload bytes

  std::string payload = "sentinel";
  EXPECT_EQ(cache.fetch("k1", payload), FetchResult::Corrupt);
  EXPECT_EQ(payload, "sentinel");  // nothing was served
  EXPECT_FALSE(fs::exists(dir / "k1"));

  // The entry is gone for good: plain miss, and a re-insert heals it.
  EXPECT_EQ(cache.fetch("k1", payload), FetchResult::Miss);
  cache.insert("k1", "3.25e2");
  EXPECT_EQ(cache.fetch("k1", payload), FetchResult::Hit);
  EXPECT_EQ(payload, "3.25e2");
}

TEST(ResultCache, GarbledPayloadFailsTheChecksum) {
  const fs::path dir = fresh_dir("garbled");
  ResultCache cache({.dir = dir});
  cache.insert("k1", "1234");

  std::string raw = slurp(dir / "k1");
  raw.back() = raw.back() == '9' ? '8' : '9';  // one flipped payload byte
  spit(dir / "k1", raw);

  std::string payload;
  EXPECT_EQ(cache.fetch("k1", payload), FetchResult::Corrupt);
  EXPECT_EQ(cache.totals().entries, 0u);
}

TEST(ResultCache, TamperedHeaderIsCorrupt) {
  const fs::path dir = fresh_dir("header");
  ResultCache cache({.dir = dir});
  cache.insert("k1", "77");

  // A header claiming the wrong size must fail even though the payload
  // bytes themselves are intact.
  std::string raw = slurp(dir / "k1");
  const std::size_t pos = raw.find(" 2\n");
  ASSERT_NE(pos, std::string::npos);
  raw.replace(pos, 3, " 3\n");
  spit(dir / "k1", raw);

  std::string payload;
  EXPECT_EQ(cache.fetch("k1", payload), FetchResult::Corrupt);
}

TEST(ResultCache, EntryForADifferentKeyIsCorrupt) {
  // A file renamed by hand holds a self-consistent entry — for the
  // WRONG key. The key-in-header check catches it.
  const fs::path dir = fresh_dir("renamed");
  ResultCache cache({.dir = dir});
  cache.insert("k1", "5");
  fs::rename(dir / "k1", dir / "k2");
  {
    // Reopen so "k2" is indexed from the directory scan.
    ResultCache reopened({.dir = dir});
    std::string payload;
    EXPECT_EQ(reopened.fetch("k2", payload), FetchResult::Corrupt);
  }
}

// ---------------------------------------------------------------------
// Startup: tmp sweeping and deterministic re-indexing.

TEST(ResultCache, StartupSweepsTmpDroppingsAndIndexesEntries) {
  const fs::path dir = fresh_dir("startup");
  {
    ResultCache cache({.dir = dir});
    cache.insert("k1", "1");
    cache.insert("k2", "2");
  }
  // Simulate a writer that crashed mid-insert: a tmp file whose pid is
  // PROVABLY dead (a fork(2)ed child we already reaped — its pid cannot
  // name a live process until recycled, which cannot happen while this
  // test still holds it). A name without a parseable pid is treated as
  // a dropping too.
  pid_t dead = fork();
  if (dead == 0) _exit(0);
  int status = 0;
  waitpid(dead, &status, 0);
  const std::string crashed = "tmp-" + std::to_string(dead) + "-1-k3";
  spit(dir / crashed, "half-written");
  spit(dir / "tmp-junk", "no pid here");

  ResultCache reopened({.dir = dir});
  EXPECT_FALSE(fs::exists(dir / crashed));
  EXPECT_FALSE(fs::exists(dir / "tmp-junk"));
  EXPECT_EQ(reopened.totals().entries, 2u);
  std::string payload;
  EXPECT_EQ(reopened.fetch("k1", payload), FetchResult::Hit);
  EXPECT_EQ(payload, "1");
  EXPECT_EQ(reopened.fetch("k3", payload), FetchResult::Miss);
}

TEST(ResultCache, StartupSweepSparesALiveWritersTmpFiles) {
  // The flip side: a tmp file stamped with a LIVE pid (our own) must
  // survive the scan — it may be another process's in-flight publish,
  // and sweeping it would race that writer out of its rename.
  const fs::path dir = fresh_dir("startup_live");
  const std::string inflight =
      "tmp-" + std::to_string(getpid()) + "-1-k9";
  {
    ResultCache cache({.dir = dir});
    cache.insert("k1", "1");
  }
  spit(dir / inflight, "in flight");

  ResultCache reopened({.dir = dir});
  EXPECT_TRUE(fs::exists(dir / inflight));
  EXPECT_EQ(reopened.totals().entries, 1u);  // tmp files are not entries
}

TEST(ResultCache, ReopenedCacheEvictsInSortedFilenameOrder) {
  // The startup scan assigns recency in sorted-filename order, so two
  // caches opened on the same directory agree on the first victim:
  // lexicographically smallest key = oldest tick.
  const fs::path probe_dir = fresh_dir("reopen_probe");
  std::uint64_t entry_bytes = 0;
  {
    ResultCache probe({.dir = probe_dir});
    probe.insert("a", "1");
    entry_bytes = probe.totals().bytes;
  }

  const fs::path dir = fresh_dir("reopen");
  {
    ResultCache cache({.dir = dir, .max_bytes = 3 * entry_bytes});
    // Insertion order deliberately differs from name order.
    cache.insert("c", "1");
    cache.insert("a", "2");
    cache.insert("b", "3");
  }
  ResultCache reopened({.dir = dir, .max_bytes = 2 * entry_bytes});
  // Over budget already at open; the next insert settles the books and
  // must evict "a" then "b" — name order, not original insertion order.
  std::string payload;
  EXPECT_EQ(reopened.insert("d", "4"), 2u);
  EXPECT_EQ(reopened.fetch("a", payload), FetchResult::Miss);
  EXPECT_EQ(reopened.fetch("b", payload), FetchResult::Miss);
  EXPECT_EQ(reopened.fetch("c", payload), FetchResult::Hit);
  EXPECT_EQ(reopened.fetch("d", payload), FetchResult::Hit);
}

// ---------------------------------------------------------------------
// Shared directory (docs/SERVICE.md#fleet): one cache directory used by
// several PROCESSES at once. The atomic tmp+rename publish plus the
// pid-qualified tmp names are what make this safe; these tests drive it
// with real fork(2)ed writers, not threads.

/// Run `body` in a fork(2)ed child; the child exits 0 on success and
/// dies nonzero on a failed ASSERT/EXPECT or an exception.
template <typename Fn>
pid_t spawn_child(Fn&& body) {
  const pid_t pid = fork();
  if (pid == 0) {
    int rc = 0;
    try {
      body();
      rc = ::testing::Test::HasFailure() ? 3 : 0;
    } catch (...) {
      rc = 4;
    }
    _exit(rc);
  }
  return pid;
}

int wait_child(pid_t pid) {
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 100 + WTERMSIG(status);
}

TEST(SharedCache, ConcurrentWritersRacingTheSameKeyBothWin) {
  // Two child processes insert the SAME (key, payload) into the same
  // directory at once. The content address makes the race benign — the
  // loser renames identical bytes over the winner — and the parent must
  // then read exactly those bytes, never a torn mix of two writers.
  const fs::path dir = fresh_dir("race_same_key");
  const std::string payload(4096, 'p');  // big enough to tear if unsafe

  std::vector<pid_t> kids;
  for (int c = 0; c < 2; ++c)
    kids.push_back(spawn_child([&] {
      ResultCache cache({.dir = dir});
      for (int round = 0; round < 50; ++round)
        cache.insert("hot-key", payload);
    }));
  for (const pid_t pid : kids) EXPECT_EQ(wait_child(pid), 0);

  ResultCache parent({.dir = dir});
  std::string got;
  ASSERT_EQ(parent.fetch("hot-key", got), FetchResult::Hit);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(parent.totals().entries, 1u);
  // No tmp droppings survive either writer.
  for (const auto& e : fs::directory_iterator(dir))
    EXPECT_EQ(e.path().filename().string().rfind("tmp-", 0),
              std::string::npos)
        << e.path();
}

TEST(SharedCache, ConcurrentWritersOnDistinctKeysAllLand) {
  const fs::path dir = fresh_dir("race_distinct");
  std::vector<pid_t> kids;
  for (int c = 0; c < 4; ++c)
    kids.push_back(spawn_child([&, c] {
      ResultCache cache({.dir = dir});
      for (int k = 0; k < 8; ++k)
        cache.insert("w" + std::to_string(c) + "-k" + std::to_string(k),
                     std::to_string(c * 100 + k));
    }));
  for (const pid_t pid : kids) EXPECT_EQ(wait_child(pid), 0);

  ResultCache parent({.dir = dir});
  EXPECT_EQ(parent.totals().entries, 32u);
  std::string got;
  for (int c = 0; c < 4; ++c)
    for (int k = 0; k < 8; ++k) {
      ASSERT_EQ(parent.fetch(
                    "w" + std::to_string(c) + "-k" + std::to_string(k), got),
                FetchResult::Hit);
      EXPECT_EQ(got, std::to_string(c * 100 + k));
    }
}

TEST(SharedCache, EntryPublishedAfterStartupScanIsAdoptedNotReRun) {
  // The parent cache opens an EMPTY directory; only then does another
  // process publish an entry. fetch() must disk-probe and adopt it —
  // this is the warm-path contract that lets fleet workers share work.
  const fs::path dir = fresh_dir("adoption");
  ResultCache parent({.dir = dir});
  std::string got;
  EXPECT_EQ(parent.fetch("late-key", got), FetchResult::Miss);

  const pid_t pid = spawn_child([&] {
    ResultCache writer({.dir = dir});
    writer.insert("late-key", "42.5");
  });
  ASSERT_EQ(wait_child(pid), 0);

  ASSERT_EQ(parent.fetch("late-key", got), FetchResult::Hit);
  EXPECT_EQ(got, "42.5");
  // Adopted entries join the index: totals and recency see them.
  EXPECT_EQ(parent.totals().entries, 1u);
}

TEST(SharedCache, CorruptEntryFromAnotherProcessIsStillNeverServed) {
  // Sharing must not weaken the corruption contract: a garbled entry
  // published by "someone else" (simulated by hand) is detected on the
  // adoption probe, unlinked, and reported Corrupt — never served.
  const fs::path dir = fresh_dir("shared_corrupt");
  ResultCache parent({.dir = dir});

  const pid_t pid = spawn_child([&] {
    ResultCache writer({.dir = dir});
    writer.insert("bad-key", "123456");
  });
  ASSERT_EQ(wait_child(pid), 0);
  std::string raw = slurp(dir / "bad-key");
  raw.back() = raw.back() == '9' ? '8' : '9';
  spit(dir / "bad-key", raw);

  std::string got = "sentinel";
  EXPECT_EQ(parent.fetch("bad-key", got), FetchResult::Corrupt);
  EXPECT_EQ(got, "sentinel");
  EXPECT_FALSE(fs::exists(dir / "bad-key"));
  EXPECT_EQ(parent.fetch("bad-key", got), FetchResult::Miss);
}

}  // namespace
}  // namespace parbounds::service
