#pragma once
// Wire form of a MetricsSnapshot, carried inside cell responses and
// stored in the shared cell cache (docs/SERVICE.md). JSON's to_json()
// is a one-way rendering — it drops the flat registration order
// merge_from() keys on — so the fleet ships snapshots in a trivially
// invertible binary form instead:
//
//   varint metric count, then per metric: a kind byte (0 counter,
//   1 gauge, 2 histogram), a varint-length name, and varint values
//   (a counter/gauge value; a histogram's bound count, bounds, and
//   bounds+1 bucket counts)
//
// in registration order — bit-exact over the full u64 range, and one
// byte for the small counter values snapshots mostly carry. The format
// is strict the same way the service codecs are: unknown kind bytes,
// empty names, truncation and trailing bytes are all typed decode
// errors. Two workers running the same TelemetryObserver construction
// encode snapshots with identical record sequences, which is the
// precondition merge_from() checks.

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace parbounds::fleet {

std::string encode_snapshot(const obs::MetricsSnapshot& snap);

/// Strict decode; on failure returns false and sets `err`.
bool decode_snapshot(std::string_view wire, obs::MetricsSnapshot& out,
                     std::string& err);

}  // namespace parbounds::fleet
