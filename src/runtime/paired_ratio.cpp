#include "runtime/paired_ratio.hpp"

#include <algorithm>
#include <cstddef>

namespace parbounds::runtime {

namespace {

// DETLINT(det.wall-clock): paired wall-clock ratios for the ops file only
using Clock = std::chrono::steady_clock;

// Setup, then the body until the region reaches kMinRegion.
void time_region(const TimedSide& side, double& ns, std::uint64_t& reps) {
  if (side.setup) side.setup();
  reps = 0;
  const auto t0 = Clock::now();
  Clock::duration elapsed{};
  do {
    side.body();
    ++reps;
    elapsed = Clock::now() - t0;
  } while (elapsed < kMinRegion);
  ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

// At least two thirds of the pairs' ratios satisfy `holds`.
template <class Holds>
bool two_thirds(const PairedRatio& r, Holds holds) {
  const auto n = std::count_if(r.pairs.begin(), r.pairs.end(),
                               [&](const TimedPair& p) { return holds(p.ratio()); });
  return 3 * static_cast<std::size_t>(n) >= 2 * r.pairs.size();
}

}  // namespace

Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long long>(values.size());
  if (ld == 0) return {};
  if (ld == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(n=4, method="exclusive"), term for term; the
  // clamp makes delta negative on very short inputs, as in Python.
  double q[3];
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * (ld + 1) / 4, 1LL, ld - 1);
    const long long delta = i * (ld + 1) - j * 4;
    q[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
               4;
  }
  return {q[0], q[1], q[2]};
}

PairedRatio summarize(std::vector<TimedPair> pairs) {
  PairedRatio out;
  std::vector<double> ratios, a_ms, b_ms;
  for (const TimedPair& p : pairs) {
    ratios.push_back(p.ratio());
    a_ms.push_back(p.a_ns / 1e6 / static_cast<double>(p.a_reps));
    b_ms.push_back(p.b_ns / 1e6 / static_cast<double>(p.b_reps));
  }
  out.pairs = std::move(pairs);
  out.ratio = quartiles(std::move(ratios));
  if (out.ratio.median != 0.0)
    out.spread = (out.ratio.q3 - out.ratio.q1) / out.ratio.median;
  out.a_ms = quartiles(std::move(a_ms)).median;
  out.b_ms = quartiles(std::move(b_ms)).median;
  return out;
}

PairedRatio paired_ratio(const TimedSide& a, const TimedSide& b,
                         unsigned min_pairs) {
  std::vector<TimedPair> pairs(min_pairs);
  for (unsigned i = 0; i < min_pairs; ++i) {
    TimedPair& p = pairs[i];
    p.a_first = i % 2 == 0;
    if (!p.a_first) time_region(b, p.b_ns, p.b_reps);
    time_region(a, p.a_ns, p.a_reps);
    if (p.a_first) time_region(b, p.b_ns, p.b_reps);
  }
  return summarize(std::move(pairs));
}

bool holds_floor(const PairedRatio& r, double floor) {
  return r.ratio.median >= floor &&
         two_thirds(r, [floor](double x) { return x >= floor; });
}

bool holds_ceiling(const PairedRatio& r, double ceiling) {
  return r.ratio.median <= ceiling &&
         two_thirds(r, [ceiling](double x) { return x <= ceiling; });
}

}  // namespace parbounds::runtime
