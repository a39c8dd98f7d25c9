#include "boolfn/boolfn.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/simd_level.hpp"

namespace parbounds {
namespace {

TEST(BoolFn, FamiliesEvaluateCorrectly) {
  const auto par = BoolFn::parity(3);
  EXPECT_FALSE(par(0b000));
  EXPECT_TRUE(par(0b001));
  EXPECT_FALSE(par(0b011));
  EXPECT_TRUE(par(0b111));

  const auto orf = BoolFn::or_fn(3);
  EXPECT_FALSE(orf(0));
  EXPECT_TRUE(orf(0b100));

  const auto andf = BoolFn::and_fn(3);
  EXPECT_FALSE(andf(0b110));
  EXPECT_TRUE(andf(0b111));

  const auto th = BoolFn::threshold(4, 2);
  EXPECT_FALSE(th(0b0001));
  EXPECT_TRUE(th(0b0011));
  EXPECT_TRUE(th(0b1111));
}

TEST(BoolFn, AddressFunction) {
  // k = 1: variables x0 (selector), x1, x2 (data). f = x_{1 + x0}.
  const auto ad = BoolFn::address(1);
  EXPECT_EQ(ad.arity(), 3u);
  EXPECT_TRUE(ad(0b010));   // sel=0 -> data bit x1 = 1
  EXPECT_FALSE(ad(0b100));  // sel=0 -> x1 = 0 (x2 irrelevant)
  EXPECT_TRUE(ad(0b101));   // sel=1 -> x2 = 1
  EXPECT_FALSE(ad(0b011));  // sel=1 -> x2 = 0
}

// ----- Fact 2.1: unique integer multilinear representation --------------------

// f(x) = sum over S subseteq x of alpha_S: the inverse (zeta) transform,
// a plain int64 loop that shares no code with the kernels under test.
std::vector<std::int64_t> zeta(std::vector<std::int64_t> c) {
  for (std::size_t h = 1; h < c.size(); h <<= 1)
    for (std::size_t x = 0; x < c.size(); ++x)
      if ((x & h) != 0) c[x] += c[x ^ h];
  return c;
}

// Arities below, at and above the 16-coefficient register group and
// the 2^16-coefficient depth-first leaf of the transform.
constexpr unsigned kRoundTripArities[] = {3, 4, 5, 12, 16, 17, 18};

// RAII: restore the kernel dispatch level when the scope ends.
struct DispatchRestore {
  runtime::SimdLevel saved = runtime::active_simd_level();
  ~DispatchRestore() { runtime::set_simd_level(saved); }
};

class MoebiusRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(MoebiusRoundTrip, PolynomialAgreesOnEveryInput) {
  const DispatchRestore restore;
  for (const runtime::SimdLevel level : runtime::supported_simd_levels()) {
    runtime::set_simd_level(level);
    Rng rng(GetParam());
    for (const unsigned n : kRoundTripArities) {
      const auto f = BoolFn::random(n, rng);
      const auto coeffs = multilinear_coeffs(f);
      const auto values = zeta(coeffs);
      const char* name = runtime::simd_level_name(level);
      for (std::uint32_t x = 0; x < f.table_size(); ++x) {
        ASSERT_EQ(values[x], f(x) ? 1 : 0) << name << " n=" << n << " x=" << x;
        if (n <= 5) {
          ASSERT_EQ(eval_multilinear(coeffs, x), values[x]) << name;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoebiusRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BoolFn, KnownDegrees) {
  // deg(PARITY_n) = n and deg(OR_n) = n — the facts at the heart of
  // Theorems 3.1 and 7.2.
  for (unsigned n = 1; n <= 10; ++n) {
    EXPECT_EQ(degree(BoolFn::parity(n)), n);
    EXPECT_EQ(degree(BoolFn::or_fn(n)), n);
    EXPECT_EQ(degree(BoolFn::and_fn(n)), n);
  }
  EXPECT_EQ(degree(BoolFn::constant(5, false)), 0u);
  EXPECT_EQ(degree(BoolFn::constant(5, true)), 0u);
  EXPECT_EQ(degree(BoolFn::variable(5, 3)), 1u);
}

TEST(BoolFn, ParityCoefficients) {
  // PARITY = sum_S (-2)^{|S|-1} m_S for |S| >= 1.
  const auto c = multilinear_coeffs(BoolFn::parity(4));
  EXPECT_EQ(c[0], 0);
  EXPECT_EQ(c[0b0001], 1);
  EXPECT_EQ(c[0b0011], -2);
  EXPECT_EQ(c[0b0111], 4);
  EXPECT_EQ(c[0b1111], -8);
}

// ----- Fact 2.2: degree composition -------------------------------------------

class Fact22 : public ::testing::TestWithParam<unsigned> {};

TEST_P(Fact22, CompositionBoundsHold) {
  Rng rng(100 + GetParam());
  const unsigned n = 7;
  const auto f = BoolFn::random(n, rng);
  const auto g = BoolFn::random(n, rng);
  const auto df = degree(f);
  const auto dg = degree(g);

  EXPECT_LE(degree(f & g), df + dg);          // (1)
  EXPECT_EQ(degree(~f), df);                  // (2)
  EXPECT_LE(degree(f | g), df + dg);          // (3)
  for (unsigned i = 0; i < n; ++i) {          // (4)
    EXPECT_LE(degree(f.fix(i, false)), df);
    EXPECT_LE(degree(f.fix(i, true)), df);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fact22,
                         ::testing::Range(0u, 12u));

TEST(BoolFn, FixMakesVariableIrrelevant) {
  const auto f = BoolFn::parity(5);
  const auto g = f.fix(2, true);
  EXPECT_FALSE(g.depends_on(2));
  EXPECT_TRUE(g.depends_on(0));
  EXPECT_EQ(degree(g), 4u);
}

TEST(BoolFn, ConnectiveTruthTables) {
  const auto a = BoolFn::variable(2, 0);
  const auto b = BoolFn::variable(2, 1);
  const auto x = a ^ b;
  EXPECT_EQ(x, BoolFn::parity(2));
  const auto o = a | b;
  EXPECT_EQ(o, BoolFn::or_fn(2));
  const auto n = ~(a & b);
  EXPECT_TRUE(n(0b00));
  EXPECT_FALSE(n(0b11));
}

TEST(BoolFn, ArityMismatchThrows) {
  const auto a = BoolFn::parity(3);
  const auto b = BoolFn::parity(4);
  EXPECT_THROW((void)(a & b), std::invalid_argument);
  EXPECT_THROW(BoolFn(31), std::invalid_argument);
}

// ----- packed high-arity support ----------------------------------------------

TEST(BoolFn, Gf2DegreeKnownValues) {
  // Over GF(2), PARITY is linear while AND stays full-degree — the
  // sharpest way to tell the two polynomial rings apart.
  for (unsigned n = 1; n <= 12; ++n) {
    EXPECT_EQ(gf2_degree(BoolFn::parity(n)), 1u);
    EXPECT_EQ(gf2_degree(BoolFn::and_fn(n)), n);
  }
  EXPECT_EQ(gf2_degree(BoolFn::constant(6, true)), 0u);
  EXPECT_EQ(gf2_degree(BoolFn::constant(6, false)), 0u);
  // GF(2) degree lower-bounds the integer degree (odd => nonzero).
  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    const auto f = BoolFn::random(9, rng);
    EXPECT_LE(gf2_degree(f), degree(f));
  }
}

TEST(BoolFn, MaxAritySupportsDegreeAndConnectives) {
  // Full-degree witnesses at the 30-variable ceiling. PARITY exercises
  // the top-coefficient fast path; OR complements it (alpha_{[n]} of OR
  // is +-1, never cancelling). Scoped so only one 128 MiB table plus
  // its transform scratch is alive at a time.
  ASSERT_EQ(BoolFn::kMaxArity, 30u);
  {
    const auto par = BoolFn::parity(30);
    EXPECT_EQ(par.count_ones(), std::uint64_t{1} << 29);
    EXPECT_EQ(degree(par), 30u);
    EXPECT_EQ(gf2_degree(par), 1u);
  }
  EXPECT_EQ(degree(BoolFn::or_fn(30)), 30u);

  // Word-parallel connectives at 28-variable width (several tables live
  // at once, so stay below the ceiling to bound peak memory).
  const auto par = BoolFn::parity(28);
  const auto a = BoolFn::variable(28, 0);
  const auto b = BoolFn::variable(28, 27);
  const auto f = a | b;
  EXPECT_EQ(f.count_ones(), std::uint64_t{3} << 26);
  EXPECT_EQ((par ^ par), BoolFn::constant(28, false));
  EXPECT_EQ(~(~par), par);
  EXPECT_TRUE(f.depends_on(27));
  EXPECT_FALSE((a & b).depends_on(13));
}

TEST(BoolFn, ChunkedDegreeAboveOldCeiling) {
  // AND of variables 0..24 embedded at n = 29, built from word-parallel
  // connectives (a serial from() lambda over 2^29 entries would dwarf
  // the degree computation itself). The degree 25 = n - 4 defeats every
  // fast tier, so this lands in the chunked slice scan with 2^7 high
  // slices — the out-of-core regime the kMaxArity = 30 raise opened up.
  // Only 16 of the 128 slices are nonzero (those whose high part keeps
  // variables 22..24 set), so the all-zero-slice skip carries the cost.
  auto f = BoolFn::variable(29, 0);
  for (unsigned i = 1; i < 25; ++i) f = f & BoolFn::variable(29, i);
  EXPECT_EQ(f.count_ones(), std::uint64_t{1} << 4);
  EXPECT_EQ(degree(f), 25u);
}

TEST(BoolFn, ChunkedDegreeTierIsExact) {
  // AND of the low 21 variables embedded at n = 23: the true degree
  // (21 = n - 2) defeats every fast tier — the top coefficient is 0,
  // the GF(2) bound answers 21 (not n - 1), and every level-(n-1)
  // coefficient cancels — so degree() must run the chunked slice scan
  // that covers 23 <= n <= 30, and find the witness level exactly.
  const auto f = BoolFn::from(
      23, [](std::uint32_t x) { return (x & 0x1FFFFFu) == 0x1FFFFFu; });
  EXPECT_EQ(degree(f), 21u);
  EXPECT_TRUE(f.depends_on(20));
  EXPECT_FALSE(f.depends_on(21));
  EXPECT_FALSE(f.depends_on(22));

  // Fixing a relevant variable of AND to true drops the degree by one;
  // fixing it to false kills the function.
  EXPECT_EQ(degree(f.fix(0, true)), 20u);
  EXPECT_EQ(degree(f.fix(0, false)), 0u);
}

TEST(BoolFn, DenseChunkedBoundaryCrossCheck) {
  // degree() switches from the dense transform to the chunked slice
  // scan between n = 22 and n = 23. Run BOTH tiers explicitly on both
  // sides of the boundary — parity (degree n), an embedded AND (degree
  // below every fast path) and a seeded random function — and require
  // tier agreement plus agreement with the production ladder.
  for (const unsigned n : {22u, 23u}) {
    const auto check = [n](const BoolFn& f, const char* what) {
      const unsigned dense = detail::degree_via_dense(f);
      const unsigned chunked = detail::degree_via_chunked(f);
      EXPECT_EQ(dense, chunked) << what << " at n=" << n;
      EXPECT_EQ(dense, degree(f)) << what << " at n=" << n;
    };
    check(BoolFn::parity(n), "parity");
    const auto andf = BoolFn::from(n, [](std::uint32_t x) {
      return (x & 0xFFFFFu) == 0xFFFFFu;  // AND of variables 0..19
    });
    check(andf, "embedded AND");
    Rng rng(41 + n);
    check(BoolFn::random(n, rng), "random");
  }
  // Domain guards of the seams themselves.
  EXPECT_THROW((void)detail::degree_via_dense(BoolFn::parity(25)),
               std::invalid_argument);
  EXPECT_THROW((void)detail::degree_via_chunked(BoolFn::parity(6)),
               std::invalid_argument);
}

TEST(BoolFn, HighArityDegreeMatchesLowArityEmbedding) {
  // Padding irrelevant variables must never change the degree: the same
  // function computed in the dense-Moebius tier (n = 10) and re-embedded
  // where the chunked tier operates must agree.
  Rng rng(17);
  const auto small = BoolFn::random(10, rng);
  const auto embedded = BoolFn::from(
      23, [&](std::uint32_t x) { return small(x & 0x3FFu); });
  EXPECT_EQ(degree(embedded), degree(small));
}

}  // namespace
}  // namespace parbounds
