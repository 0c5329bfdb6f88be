/**
 * @file
 * Unit tests for the Tensor container.
 */
#include <gtest/gtest.h>
#include <cmath>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace rog {
namespace tensor {
namespace {

TEST(TensorTest, DefaultIsEmpty)
{
    Tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0u);
}

TEST(TensorTest, ConstructionZeroInitializes)
{
    Tensor t(3, 4);
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 4u);
    EXPECT_EQ(t.size(), 12u);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FillValueConstruction)
{
    Tensor t(2, 2);
    t.fill(7.5f);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], 7.5f);
}

TEST(TensorTest, AtIsRowMajor)
{
    Tensor t(2, 3);
    t.at(1, 2) = 42.0f;
    EXPECT_EQ(t[1 * 3 + 2], 42.0f);
    EXPECT_EQ(t.at(1, 2), 42.0f);
}

TEST(TensorTest, RowSpanViewsUnderlyingData)
{
    Tensor t(3, 4);
    auto row = t.row(1);
    ASSERT_EQ(row.size(), 4u);
    row[0] = 9.0f;
    EXPECT_EQ(t.at(1, 0), 9.0f);
}

TEST(TensorTest, ConstRowSpan)
{
    Tensor t(2, 2);
    t.fill(3.0f);
    const Tensor &ct = t;
    auto row = ct.row(0);
    EXPECT_EQ(row[1], 3.0f);
}

TEST(TensorTest, FillAndZero)
{
    Tensor t(2, 2);
    t.fill(5.0f);
    EXPECT_EQ(t.at(1, 1), 5.0f);
    t.zero();
    EXPECT_EQ(t.at(1, 1), 0.0f);
}

TEST(TensorTest, SameShape)
{
    Tensor a(2, 3), b(2, 3), c(3, 2);
    EXPECT_TRUE(a.sameShape(b));
    EXPECT_FALSE(a.sameShape(c));
}

TEST(TensorTest, RandomNormalHasRequestedSpread)
{
    Rng rng(5);
    Tensor t(100, 100);
    t.randomNormal(rng, 2.0f);
    double sum = 0.0, sq = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        sum += t[i];
        sq += static_cast<double>(t[i]) * t[i];
    }
    const double n = static_cast<double>(t.size());
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(std::sqrt(sq / n), 2.0, 0.05);
}

TEST(TensorTest, RandomUniformRespectsBound)
{
    Rng rng(6);
    Tensor t(10, 10);
    t.randomUniform(rng, 0.5f);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], -0.5f);
        EXPECT_LT(t[i], 0.5f);
    }
}

TEST(TensorTest, OutOfRangeAccessDies)
{
    Tensor t(2, 2);
    EXPECT_DEATH(t.at(2, 0), "out of range");
    EXPECT_DEATH(t.row(5), "out of range");
}

} // namespace
} // namespace tensor
} // namespace rog
