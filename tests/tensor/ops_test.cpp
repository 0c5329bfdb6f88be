/**
 * @file
 * Unit tests for tensor operations, including matmul identities used
 * by backprop (A@B, A^T@B, A@B^T must agree with hand computation).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace rog {
namespace tensor {
namespace {

Tensor
make(std::size_t r, std::size_t c, std::initializer_list<float> vals)
{
    Tensor t(r, c);
    std::size_t i = 0;
    for (float v : vals)
        t[i++] = v;
    return t;
}

TEST(OpsTest, MatmulKnownValues)
{
    const Tensor a = make(2, 3, {1, 2, 3, 4, 5, 6});
    const Tensor b = make(3, 2, {7, 8, 9, 10, 11, 12});
    Tensor out(2, 2);
    matmul(a, b, out);
    EXPECT_FLOAT_EQ(out.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), 154.0f);
}

TEST(OpsTest, MatmulTransAMatchesExplicitTranspose)
{
    Rng rng(3);
    Tensor a(5, 4), b(5, 6);
    a.randomNormal(rng, 1.0f);
    b.randomNormal(rng, 1.0f);

    // Explicit transpose then multiply.
    Tensor at(4, 5);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            at.at(j, i) = a.at(i, j);
    Tensor expect(4, 6), got(4, 6);
    matmul(at, b, expect);
    matmulTransA(a, b, got);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], expect[i], 1e-4f);
}

TEST(OpsTest, MatmulTransBMatchesExplicitTranspose)
{
    Rng rng(4);
    Tensor a(3, 7), b(5, 7);
    a.randomNormal(rng, 1.0f);
    b.randomNormal(rng, 1.0f);

    Tensor bt(7, 5);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 7; ++j)
            bt.at(j, i) = b.at(i, j);
    Tensor expect(3, 5), got(3, 5);
    matmul(a, bt, expect);
    matmulTransB(a, b, got);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], expect[i], 1e-4f);
}

TEST(OpsTest, MatmulShapeMismatchDies)
{
    Tensor a(2, 3), b(4, 2), out(2, 2);
    EXPECT_DEATH(matmul(a, b, out), "shape");
}

TEST(OpsTest, AxpyAddsScaled)
{
    Tensor x = make(1, 3, {1, 2, 3});
    Tensor y = make(1, 3, {10, 20, 30});
    axpy(2.0f, x, y);
    EXPECT_FLOAT_EQ(y[0], 12.0f);
    EXPECT_FLOAT_EQ(y[1], 24.0f);
    EXPECT_FLOAT_EQ(y[2], 36.0f);
}

TEST(OpsTest, CopyMatchesSource)
{
    Tensor x = make(1, 2, {3, -4});
    Tensor y(1, 2);
    copy(x, y);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
    EXPECT_FLOAT_EQ(y[1], -4.0f);
}

TEST(OpsTest, AddRowBiasBroadcasts)
{
    Tensor x(2, 3);
    x.fill(1.0f);
    Tensor bias = make(1, 3, {1, 2, 3});
    addRowBias(x, bias);
    EXPECT_FLOAT_EQ(x.at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(x.at(1, 2), 4.0f);
}

TEST(OpsTest, ReluForwardBackward)
{
    Tensor x = make(1, 4, {-1, 0, 2, -3});
    Tensor out(1, 4), dout(1, 4), din(1, 4);
    dout.fill(1.0f);
    relu(x, out);
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[2], 2.0f);
    reluBackward(x, dout, din);
    EXPECT_FLOAT_EQ(din[0], 0.0f);
    EXPECT_FLOAT_EQ(din[2], 1.0f);
    EXPECT_FLOAT_EQ(din[3], 0.0f);
}

TEST(OpsTest, TanhForwardBackward)
{
    Tensor x = make(1, 2, {0.0f, 1.0f});
    Tensor out(1, 2), dout(1, 2), din(1, 2);
    dout.fill(1.0f);
    tanhForward(x, out);
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_NEAR(out[1], std::tanh(1.0f), 1e-6f);
    tanhBackward(out, dout, din);
    EXPECT_FLOAT_EQ(din[0], 1.0f);
    EXPECT_NEAR(din[1], 1.0f - std::tanh(1.0f) * std::tanh(1.0f), 1e-6f);
}

TEST(OpsTest, SoftmaxRowsSumToOneAndOrder)
{
    Tensor x = make(2, 3, {1, 2, 3, 0, 0, 0});
    softmaxRows(x);
    for (std::size_t r = 0; r < 2; ++r) {
        float sum = 0.0f;
        for (std::size_t c = 0; c < 3; ++c)
            sum += x.at(r, c);
        EXPECT_NEAR(sum, 1.0f, 1e-6f);
    }
    EXPECT_GT(x.at(0, 2), x.at(0, 1));
    EXPECT_NEAR(x.at(1, 0), 1.0f / 3.0f, 1e-6f);
}

TEST(OpsTest, SoftmaxIsShiftInvariantAndStable)
{
    Tensor x = make(1, 2, {1000.0f, 1001.0f});
    softmaxRows(x);
    EXPECT_NEAR(x[0] + x[1], 1.0f, 1e-6f);
    EXPECT_GT(x[1], x[0]);
}

TEST(OpsTest, Reductions)
{
    Tensor x = make(1, 4, {1, -2, 3, -4});
    EXPECT_FLOAT_EQ(meanAbs(std::span<const float>(x.data(), x.size())),
                    2.5f);
    EXPECT_EQ(argmaxRow(x, 0), 2u);
}

TEST(OpsTest, MeanAbsOfEmptySpanIsZero)
{
    EXPECT_EQ(meanAbs(std::span<const float>{}), 0.0f);
}

/**
 * meanAbs accumulates in double: on a large tensor whose exact mean
 * is representable, a float accumulator would drift visibly, a double
 * one is exact. Pins the value so a revert to float accumulation
 * fails loudly.
 */
TEST(OpsTest, MeanAbsLargeTensorIsDoubleAccurate)
{
    // 1e6 elements alternating +/- around |v| = 0.1: exact mean(|v|)
    // is 0.1, but sum in float loses ~1e-3 relative accuracy here.
    const std::size_t n = 1'000'000;
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = (i % 2 == 0) ? 0.1f : -0.1f;
    const float m = meanAbs(std::span<const float>(v.data(), n));
    EXPECT_FLOAT_EQ(m, 0.1f);

    // And a harder mix: values spanning orders of magnitude.
    for (std::size_t i = 0; i < n; ++i)
        v[i] = (i % 4 == 0) ? 1000.0f : 0.001f;
    const double exact = (250000.0 * 1000.0 + 750000.0 * 0.001) / 1e6;
    const float got = meanAbs(std::span<const float>(v.data(), n));
    EXPECT_NEAR(got, static_cast<float>(exact), 1e-3f);
}

} // namespace
} // namespace tensor
} // namespace rog
