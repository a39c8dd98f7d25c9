#include "runtime/fleet/snapshot_wire.hpp"

namespace parbounds::fleet {

namespace {

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

/// Minimal strict reader for the snapshot form (the service codec has
/// its own richer twin; a snapshot only needs these few).
struct SnapReader {
  std::string_view s;
  std::size_t pos = 0;

  bool get_u8(std::uint8_t& out) {
    if (pos >= s.size()) return false;
    out = static_cast<std::uint8_t>(s[pos++]);
    return true;
  }
  bool get_varint(std::uint64_t& out) {
    out = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (pos >= s.size()) return false;
      const auto b = static_cast<std::uint8_t>(s[pos++]);
      if (shift == 63 && (b & 0x7E) != 0) return false;
      out |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return true;
    }
    return false;
  }
  bool get_name(std::string& out) {
    std::uint64_t n = 0;
    if (!get_varint(n) || n == 0 || n > s.size() - pos) return false;
    out.assign(s.substr(pos, static_cast<std::size_t>(n)));
    pos += static_cast<std::size_t>(n);
    return true;
  }
};

}  // namespace

std::string encode_snapshot(const obs::MetricsSnapshot& snap) {
  std::string out;
  put_varint(out, snap.metrics.size());
  for (const auto& m : snap.metrics) {
    switch (m.kind) {
      case obs::MetricKind::Counter:
        out += '\x00';
        break;
      case obs::MetricKind::Gauge:
        out += '\x01';
        break;
      case obs::MetricKind::Histogram:
        out += '\x02';
        break;
    }
    put_varint(out, m.name.size());
    out += m.name;
    if (m.kind == obs::MetricKind::Histogram) {
      put_varint(out, m.bounds.size());
      for (const std::uint64_t b : m.bounds) put_varint(out, b);
      for (const std::uint64_t c : m.counts) put_varint(out, c);
    } else {
      put_varint(out, m.value);
    }
  }
  return out;
}

bool decode_snapshot(std::string_view wire, obs::MetricsSnapshot& out,
                     std::string& err) {
  out.metrics.clear();
  SnapReader r{wire, 0};
  std::uint64_t count = 0;
  const auto fail = [&](std::uint64_t record, const char* what) {
    err = "snapshot record " + std::to_string(record) + ": " + what;
    return false;
  };
  if (!r.get_varint(count) || count > wire.size())
    return fail(0, "malformed metric count");
  for (std::uint64_t i = 1; i <= count; ++i) {
    obs::MetricValue m;
    std::uint8_t kind = 0;
    if (!r.get_u8(kind) || kind > 2) return fail(i, "bad metric kind");
    if (!r.get_name(m.name)) return fail(i, "malformed metric name");
    switch (kind) {
      case 0:
        m.kind = obs::MetricKind::Counter;
        break;
      case 1:
        m.kind = obs::MetricKind::Gauge;
        break;
      default:
        m.kind = obs::MetricKind::Histogram;
        break;
    }
    if (m.kind == obs::MetricKind::Histogram) {
      std::uint64_t nbounds = 0;
      if (!r.get_varint(nbounds) || nbounds > wire.size())
        return fail(i, "malformed bounds count");
      for (std::uint64_t b = 0; b < nbounds; ++b) {
        std::uint64_t v = 0;
        if (!r.get_varint(v)) return fail(i, "truncated bounds");
        m.bounds.push_back(v);
      }
      for (std::uint64_t b = 0; b <= nbounds; ++b) {
        std::uint64_t v = 0;
        if (!r.get_varint(v)) return fail(i, "truncated counts");
        m.counts.push_back(v);
      }
    } else if (!r.get_varint(m.value)) {
      return fail(i, "truncated value");
    }
    out.metrics.push_back(std::move(m));
  }
  if (r.pos != wire.size())
    return fail(count, "trailing bytes after snapshot");
  return true;
}

}  // namespace parbounds::fleet
