#pragma once
// Paired wall-clock ratios: the one timing primitive behind every
// wall-clock gate (docs/PERF.md, "How a wall-clock gate reads").
//
// paired_ratio() runs sides A and B in alternating order (A B, B A,
// ...), so a slow drift of the host falls on both alike. Each side runs
// its untimed setup, then repeats its body until the region lasts at
// least kMinRegion; a pair's ratio is time(A) / time(B) per
// repetition. The summary is the median of those ratios, their spread
// (Q3 - Q1) / median with the quartiles of Python's
// statistics.quantiles(n=4) (as perfbench/spread.py), and the pairs.
// A gate holds only when the median AND two thirds of the pairs are on
// the right side of its bound.

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace parbounds::runtime {

/// The shortest measured region a side may have.
inline constexpr std::chrono::milliseconds kMinRegion{100};

/// One side of a pair.
struct TimedSide {
  std::function<void()> setup{};  ///< untimed, before each region; may be empty
  std::function<void()> body{};   ///< one repetition of the measured work
};

/// One timed pair, in run order.
struct TimedPair {
  bool a_first = true;
  double a_ns = 0.0;  ///< A's measured region
  double b_ns = 0.0;
  std::uint64_t a_reps = 0;  ///< repetitions of A's body in its region
  std::uint64_t b_reps = 0;

  /// time(A) / time(B), each side's region per repetition.
  double ratio() const {
    return (a_ns / static_cast<double>(a_reps)) /
           (b_ns / static_cast<double>(b_reps));
  }
};

/// Quartiles as statistics.quantiles(values, n=4) computes them (the
/// middle one is the median); one value is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

struct PairedRatio {
  std::vector<TimedPair> pairs;  ///< run order
  Quartiles ratio;               ///< of the per-pair ratios
  double spread = 0.0;           ///< (Q3 - Q1) / median
  double a_ms = 0.0;             ///< median time of one repetition of A
  double b_ms = 0.0;
};

/// Quartiles and spread of the pairs' ratios, each side's median time.
PairedRatio summarize(std::vector<TimedPair> pairs);

/// Time `min_pairs` alternating pairs of `a` and `b` and summarize them.
PairedRatio paired_ratio(const TimedSide& a, const TimedSide& b,
                         unsigned min_pairs);

/// The median and at least 2/3 of the pairs read >= `floor`.
bool holds_floor(const PairedRatio& r, double floor);

/// The median and at least 2/3 of the pairs read <= `ceiling`.
bool holds_ceiling(const PairedRatio& r, double ceiling);

}  // namespace parbounds::runtime
