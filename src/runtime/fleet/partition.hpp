#pragma once
// Static work partition for the sweep fleet (docs/SERVICE.md).
//
// The unit of distribution is one request (for a bench sweep: one
// cell). Everything that determines a request's RESULT — its spec, its
// base seed, its trial0/trials repetition block — is a pure function of
// the request list, fixed before any worker exists; the discipline of
// ParallelFor's static partition (shard boundaries a pure function of
// the problem, never of pool size). The worker count decides only
// PLACEMENT: request
// i initially goes to owner_of(total, workers, i), the same contiguous
// block map the ExperimentRunner seeds its shards with. Placement can
// change at runtime (a crashed worker's block is reassigned to
// survivors) without touching any result byte, which is exactly why the
// merged report is byte-identical at any worker count and across
// failures. The same argument covers COMPLETION ORDER: with credit
// windows (coordinator.hpp) different workers finish interleaved and a
// requeued window replays cells late, so the coordinator slots every
// response by the request's placement index — never arrival order — and
// the merge is insensitive to both where and when a request ran.

#include <cstdint>
#include <utility>

namespace parbounds::fleet {

/// Contiguous block owned by shard s of `shards` over [0, total):
/// [s*total/shards, (s+1)*total/shards). Blocks tile the range exactly
/// and differ in size by at most one.
std::pair<std::uint64_t, std::uint64_t> shard_range(std::uint64_t total,
                                                    unsigned shards,
                                                    unsigned s);

/// The shard whose block contains index i (inverse of shard_range).
unsigned owner_of(std::uint64_t total, unsigned shards, std::uint64_t i);

}  // namespace parbounds::fleet
