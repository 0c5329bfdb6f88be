/**
 * @file
 * Unit tests for loss functions.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/loss.hpp"

namespace rog {
namespace nn {
namespace {

TEST(LossTest, CrossEntropyUniformLogits)
{
    // All-zero logits over k classes: loss = log(k), accuracy chance.
    Tensor logits(4, 5);
    std::vector<std::uint32_t> labels = {0, 1, 2, 3};
    auto res = softmaxCrossEntropy(logits, labels);
    EXPECT_NEAR(res.loss, std::log(5.0f), 1e-5f);
}

TEST(LossTest, CrossEntropyPerfectPrediction)
{
    Tensor logits(2, 3);
    logits.at(0, 1) = 50.0f;
    logits.at(1, 2) = 50.0f;
    std::vector<std::uint32_t> labels = {1, 2};
    auto res = softmaxCrossEntropy(logits, labels);
    EXPECT_NEAR(res.loss, 0.0f, 1e-4f);
    EXPECT_FLOAT_EQ(res.accuracy, 1.0f);
}

TEST(LossTest, CrossEntropyAccuracyCountsTopOne)
{
    Tensor logits(2, 2);
    logits.at(0, 0) = 1.0f; // predicts 0, label 0: correct.
    logits.at(1, 0) = 1.0f; // predicts 0, label 1: wrong.
    std::vector<std::uint32_t> labels = {0, 1};
    auto res = softmaxCrossEntropy(logits, labels);
    EXPECT_FLOAT_EQ(res.accuracy, 0.5f);
}

TEST(LossTest, CrossEntropyGradRowsSumToZero)
{
    Rng rng(9);
    Tensor logits(6, 4);
    logits.randomNormal(rng, 2.0f);
    std::vector<std::uint32_t> labels = {0, 1, 2, 3, 0, 1};
    auto res = softmaxCrossEntropy(logits, labels);
    for (std::size_t r = 0; r < 6; ++r) {
        float sum = 0.0f;
        for (std::size_t c = 0; c < 4; ++c)
            sum += res.grad.at(r, c);
        EXPECT_NEAR(sum, 0.0f, 1e-6f);
    }
}

TEST(LossTest, CrossEntropyLabelOutOfRangeDies)
{
    Tensor logits(1, 3);
    std::vector<std::uint32_t> labels = {7};
    EXPECT_DEATH(softmaxCrossEntropy(logits, labels), "label");
}

TEST(LossTest, MseKnownValue)
{
    Tensor pred(1, 2);
    pred[0] = 1.0f;
    pred[1] = 3.0f;
    Tensor target(1, 2);
    target[0] = 0.0f;
    target[1] = 1.0f;
    auto res = meanSquaredError(pred, target);
    // ((1)^2 + (2)^2) / 2 = 2.5.
    EXPECT_NEAR(res.loss, 2.5f, 1e-6f);
    // grad = 2 * (pred - target) / n.
    EXPECT_NEAR(res.grad[0], 1.0f, 1e-6f);
    EXPECT_NEAR(res.grad[1], 2.0f, 1e-6f);
}

TEST(LossTest, MseZeroAtPerfectFit)
{
    Tensor pred(2, 2);
    pred.fill(3.0f);
    Tensor target = pred;
    auto res = meanSquaredError(pred, target);
    EXPECT_FLOAT_EQ(res.loss, 0.0f);
    for (std::size_t i = 0; i < res.grad.size(); ++i)
        EXPECT_FLOAT_EQ(res.grad[i], 0.0f);
}

TEST(LossTest, MseShapeMismatchDies)
{
    Tensor a(2, 2), b(2, 3);
    EXPECT_DEATH(meanSquaredError(a, b), "shape");
}

} // namespace
} // namespace nn
} // namespace rog
