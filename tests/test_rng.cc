/**
 * @file
 * Unit tests for the deterministic PCG32 RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "trace/rng.hh"

namespace storemlp
{
namespace
{

TEST(Pcg32, DeterministicForSameSeed)
{
    Pcg32 a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 4);
}

TEST(Pcg32, DifferentStreamsDiffer)
{
    Pcg32 a(7, 1), b(7, 2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 4);
}

TEST(Pcg32, BelowRespectsBound)
{
    Pcg32 r(42);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Pcg32, Below64RespectsBound)
{
    Pcg32 r(42);
    uint64_t bound = 1234567891011ULL;
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below64(bound), bound);
}

TEST(Pcg32, Below64TrivialBounds)
{
    Pcg32 r(42);
    EXPECT_EQ(r.below64(0), 0u);
    EXPECT_EQ(r.below64(1), 0u);
}

TEST(Pcg32, UniformInUnitInterval)
{
    Pcg32 r(42);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Pcg32, UniformMeanNearHalf)
{
    Pcg32 r(42);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Pcg32, ChanceExtremes)
{
    Pcg32 r(42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Pcg32, ChanceFrequency)
{
    Pcg32 r(42);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Pcg32, GeometricMean)
{
    Pcg32 r(42);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.geometric(0.5);
    // Mean of geometric >= 1 with continuation 0.5 is 2.
    EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Pcg32, GeometricRespectsCap)
{
    Pcg32 r(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(r.geometric(0.99, 8), 8u);
}

TEST(Pcg32, GeometricAtLeastOne)
{
    Pcg32 r(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(r.geometric(0.0), 1u);
}

TEST(Pcg32, ThresholdMatchesUniformCompareExactly)
{
    // uniform() is r * 2^-32 for the drawn r, so chance(p) is
    // `r * 2^-32 < p`; threshold(p) must make `r < threshold(p)` the
    // same predicate for every r, at the edges around the threshold.
    const double two32 = 4294967296.0;
    std::vector<double> ps = {0.0,
                              -0.0,
                              std::ldexp(1.0, -40),
                              std::ldexp(1.0, -33),
                              0.5,
                              1.0 - std::ldexp(1.0, -53),
                              1.0,
                              1.5,
                              -0.25,
                              std::numeric_limits<double>::quiet_NaN()};
    for (double k : {1.0, 3.0, 12345.0, 2147483648.0, 2147483655.0,
                     4294967295.0}) {
        double p = k / two32;
        ps.push_back(p);
        ps.push_back(std::nextafter(p, 0.0));
        ps.push_back(std::nextafter(p, 2.0));
    }
    for (double p : ps) {
        uint64_t t = Pcg32::threshold(p);
        ASSERT_LE(t, uint64_t{1} << 32) << p;
        std::vector<uint64_t> rs = {0, t, t + 1, 0xffffffffULL};
        if (t > 0)
            rs.push_back(t - 1);
        for (uint64_t r : rs) {
            if (r > 0xffffffffULL)
                continue;
            bool via_double = static_cast<double>(r) / two32 < p;
            EXPECT_EQ(r < t, via_double) << "p=" << p << " r=" << r;
        }
    }
    EXPECT_EQ(Pcg32::threshold(0.0), 0u);
    EXPECT_EQ(Pcg32::threshold(std::numeric_limits<double>::quiet_NaN()),
              0u);
    EXPECT_EQ(Pcg32::threshold(1.0), uint64_t{1} << 32);
    EXPECT_EQ(Pcg32::threshold(0.5), uint64_t{1} << 31);
}

TEST(Pcg32, ThresholdDrawsMatchDoubleDraws)
{
    Pcg32 a(99), b(99);
    for (double p : {0.0, 0.013, 0.25, 0.5, 0.97, 1.0}) {
        uint64_t t = Pcg32::threshold(p);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(a.chance(p), b.chanceT(t)) << p;
    }
}

} // namespace
} // namespace storemlp
