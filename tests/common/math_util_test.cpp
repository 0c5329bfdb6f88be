/**
 * @file
 * Unit tests for the small numeric helpers.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.hpp"

namespace rog {
namespace {

TEST(MathUtilTest, MeanOfEmptyIsZero)
{
    EXPECT_EQ(mean({}), 0.0);
}

TEST(MathUtilTest, MeanOfKnownValues)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(MathUtilTest, StddevOfConstantIsZero)
{
    EXPECT_DOUBLE_EQ(stddev({5.0, 5.0, 5.0}), 0.0);
}

TEST(MathUtilTest, StddevOfKnownValues)
{
    // Population stddev of {2, 4, 4, 4, 5, 5, 7, 9} is 2.
    EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
}

TEST(MathUtilTest, ClampWithinAndOutside)
{
    EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(clamp(2.0, 0.0, 1.0), 1.0);
}

TEST(MathUtilTest, BisectFindsSqrtTwo)
{
    const double root =
        bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
    EXPECT_NEAR(root, std::sqrt(2.0), 1e-9);
}

TEST(MathUtilTest, BisectFindsLinearRoot)
{
    const double root =
        bisect([](double x) { return 3.0 * x - 6.0; }, -10.0, 10.0);
    EXPECT_NEAR(root, 2.0, 1e-9);
}

TEST(MathUtilTest, BisectDiesWithoutSignChange)
{
    EXPECT_DEATH(bisect([](double) { return 1.0; }, 0.0, 1.0), "sign");
}

TEST(MathUtilTest, EwmaFirstObservationSeeds)
{
    Ewma e(0.5);
    EXPECT_FALSE(e.seeded());
    e.observe(10.0);
    EXPECT_TRUE(e.seeded());
    EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(MathUtilTest, EwmaBlendsObservations)
{
    Ewma e(0.25);
    e.observe(0.0);
    e.observe(8.0);
    EXPECT_DOUBLE_EQ(e.value(), 2.0);
    e.observe(2.0);
    EXPECT_DOUBLE_EQ(e.value(), 2.0);
}

TEST(MathUtilTest, EwmaConvergesToConstantStream)
{
    Ewma e(0.3, 100.0);
    for (int i = 0; i < 100; ++i)
        e.observe(7.0);
    EXPECT_NEAR(e.value(), 7.0, 1e-9);
}

} // namespace
} // namespace rog
