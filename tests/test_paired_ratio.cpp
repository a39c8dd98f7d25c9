// paired_ratio: the timing primitive behind every wall-clock gate.
//
// The quartile literals below were computed once with Python 3.11's
// statistics.quantiles(values, n=4) (the "exclusive" method that
// perfbench/spread.py uses) and pasted in.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "runtime/paired_ratio.hpp"

namespace pr = parbounds::runtime;

namespace {

pr::PairedRatio from_ratios(const std::vector<double>& ratios) {
  std::vector<pr::TimedPair> pairs;
  for (const double r : ratios)
    pairs.push_back({.a_first = pairs.size() % 2 == 0,
                     .a_ns = r * 1e6,
                     .b_ns = 1e6,
                     .a_reps = 1,
                     .b_reps = 1});
  return pr::summarize(pairs);
}

}  // namespace

TEST(PairedRatio, QuartilesMatchPythonStatisticsQuantiles) {
  const auto odd = pr::quartiles({3.5, 1.25, 9.0, 2.0, 7.75, 4.5, 6.0});
  EXPECT_DOUBLE_EQ(odd.q1, 2.0);
  EXPECT_DOUBLE_EQ(odd.median, 4.5);
  EXPECT_DOUBLE_EQ(odd.q3, 7.75);

  const auto even =
      pr::quartiles({1.1, 0.9, 1.4, 1.05, 0.95, 1.3, 1.2, 1.0});
  EXPECT_DOUBLE_EQ(even.q1, 0.9624999999999999);
  EXPECT_DOUBLE_EQ(even.median, 1.0750000000000002);
  EXPECT_DOUBLE_EQ(even.q3, 1.2750000000000001);

  const auto two = pr::quartiles({2.0, 5.0});
  EXPECT_DOUBLE_EQ(two.q1, 1.25);
  EXPECT_DOUBLE_EQ(two.median, 3.5);
  EXPECT_DOUBLE_EQ(two.q3, 5.75);

  const auto three = pr::quartiles({4.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(three.q1, 1.0);
  EXPECT_DOUBLE_EQ(three.median, 3.0);
  EXPECT_DOUBLE_EQ(three.q3, 4.0);

  // Spread is (Q3 - Q1) / median of the per-pair ratios.
  const auto r = from_ratios({1.1, 0.9, 1.4, 1.05, 0.95, 1.3, 1.2, 1.0});
  EXPECT_DOUBLE_EQ(r.ratio.median, 1.0750000000000002);
  EXPECT_DOUBLE_EQ(r.spread,
                   (1.2750000000000001 - 0.9624999999999999) /
                       1.0750000000000002);
}

TEST(PairedRatio, SidesAlternateAndEveryRegionReachesTheMinimum) {
  using namespace std::chrono_literals;
  constexpr unsigned kMinPairs = 3;
  std::string order;  // one letter per region, from the untimed setups
  std::uint64_t a_calls = 0, b_calls = 0;
  const pr::TimedSide a{.setup = [&] { order += 'A'; },
                        .body = [&] {
                          std::this_thread::sleep_for(1ms);
                          ++a_calls;
                        }};
  const pr::TimedSide b{.setup = [&] { order += 'B'; },
                        .body = [&] {
                          std::this_thread::sleep_for(1ms);
                          ++b_calls;
                        }};
  const auto r = pr::paired_ratio(a, b, kMinPairs);

  ASSERT_GE(r.pairs.size(), kMinPairs);
  std::string want;
  std::uint64_t a_reps = 0, b_reps = 0;
  for (std::size_t i = 0; i < r.pairs.size(); ++i) {
    const auto& p = r.pairs[i];
    EXPECT_EQ(p.a_first, i % 2 == 0) << "pair " << i;
    want += p.a_first ? "AB" : "BA";
    EXPECT_GE(p.a_ns, 1e6 * pr::kMinRegion.count()) << "pair " << i;
    EXPECT_GE(p.b_ns, 1e6 * pr::kMinRegion.count()) << "pair " << i;
    EXPECT_GE(p.a_reps, 1u);
    EXPECT_GE(p.b_reps, 1u);
    a_reps += p.a_reps;
    b_reps += p.b_reps;
  }
  EXPECT_EQ(order, want);
  EXPECT_EQ(a_calls, a_reps);
  EXPECT_EQ(b_calls, b_reps);
  EXPECT_GT(r.a_ms, 0.0);
  EXPECT_GT(r.b_ms, 0.0);
}

TEST(PairedRatio, FloorNeedsTheMedianAndTwoThirdsOfThePairs) {
  // Median 2.0 clears the floor, but only 4 of 7 pairs do.
  const auto split = from_ratios({2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(split.ratio.median, 2.0);
  EXPECT_FALSE(pr::holds_floor(split, 1.5));
  // 5 of 7 is two thirds.
  const auto most = from_ratios({2.0, 1.0, 2.0, 2.0, 2.0, 1.0, 2.0});
  EXPECT_TRUE(pr::holds_floor(most, 1.5));
  EXPECT_FALSE(pr::holds_floor(most, 2.5));
}

TEST(PairedRatio, CeilingNeedsTheMedianAndTwoThirdsOfThePairs) {
  // Median 1.0 is under the ceiling, but only 4 of 7 pairs are.
  const auto split = from_ratios({1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0});
  EXPECT_DOUBLE_EQ(split.ratio.median, 1.0);
  EXPECT_FALSE(pr::holds_ceiling(split, 1.05));
  const auto most = from_ratios({1.0, 1.2, 1.0, 1.0, 1.0, 1.2, 1.0});
  EXPECT_TRUE(pr::holds_ceiling(most, 1.05));
  EXPECT_FALSE(pr::holds_ceiling(most, 0.5));
}
