/**
 * @file
 * Unit tests for the Model container and factories.
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace rog {
namespace nn {
namespace {

TEST(ModelTest, ClassifierShapeAndCounts)
{
    Rng rng(1);
    ClassifierConfig cfg;
    cfg.input_dim = 10;
    cfg.hidden = {16, 8};
    cfg.classes = 4;
    Model m = makeClassifier(cfg, rng);
    // weights: 10x16 + 16x8 + 8x4; biases: 16 + 8 + 4.
    EXPECT_EQ(m.parameterCount(),
              10u * 16 + 16u * 8 + 8u * 4 + 16 + 8 + 4);
    // rows: 10 + 16 + 8 weight rows + 3 bias rows.
    EXPECT_EQ(m.rowCount(), 10u + 16 + 8 + 3);
    Tensor x(2, 10);
    const Tensor &out = m.forward(x);
    EXPECT_EQ(out.rows(), 2u);
    EXPECT_EQ(out.cols(), 4u);
}

TEST(ModelTest, ImplicitMapShape)
{
    Rng rng(2);
    ImplicitMapConfig cfg;
    cfg.input_dim = 3;
    cfg.encoding_octaves = 2;
    cfg.hidden = {8};
    cfg.output_dim = 1;
    Model m = makeImplicitMap(cfg, rng);
    Tensor x(5, 3);
    const Tensor &out = m.forward(x);
    EXPECT_EQ(out.rows(), 5u);
    EXPECT_EQ(out.cols(), 1u);
}

TEST(ModelTest, SameSeedSameInitialization)
{
    ClassifierConfig cfg;
    cfg.input_dim = 6;
    cfg.hidden = {8};
    cfg.classes = 3;
    Rng rng1(42), rng2(42);
    Model a = makeClassifier(cfg, rng1);
    Model b = makeClassifier(cfg, rng2);
    auto pa = a.parameters();
    auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        for (std::size_t j = 0; j < pa[i]->value.size(); ++j)
            EXPECT_EQ(pa[i]->value[j], pb[i]->value[j]);
}

TEST(ModelTest, CopyParametersFrom)
{
    ClassifierConfig cfg;
    cfg.input_dim = 6;
    cfg.hidden = {8};
    cfg.classes = 3;
    Rng rng1(1), rng2(2);
    Model a = makeClassifier(cfg, rng1);
    Model b = makeClassifier(cfg, rng2);
    b.copyParametersFrom(a);
    auto pa = a.parameters();
    auto pb = b.parameters();
    for (std::size_t i = 0; i < pa.size(); ++i)
        for (std::size_t j = 0; j < pa[i]->value.size(); ++j)
            EXPECT_EQ(pa[i]->value[j], pb[i]->value[j]);
}

TEST(ModelTest, ZeroGradClearsAccumulators)
{
    Rng rng(3);
    ClassifierConfig cfg;
    cfg.input_dim = 4;
    cfg.hidden = {6};
    cfg.classes = 2;
    Model m = makeClassifier(cfg, rng);
    Tensor x(3, 4);
    x.randomNormal(rng, 1.0f);
    std::vector<std::uint32_t> y = {0, 1, 0};
    auto res = softmaxCrossEntropy(m.forward(x), y);
    m.backward(res.grad);
    bool any_nonzero = false;
    for (Parameter *p : m.parameters())
        for (std::size_t i = 0; i < p->grad.size(); ++i)
            if (p->grad[i] != 0.0f)
                any_nonzero = true;
    EXPECT_TRUE(any_nonzero);
    m.zeroGrad();
    for (Parameter *p : m.parameters())
        for (std::size_t i = 0; i < p->grad.size(); ++i)
            EXPECT_EQ(p->grad[i], 0.0f);
}

TEST(ModelTest, TrainingReducesLossOnToyTask)
{
    // Two well-separated classes in 2D must be learnable.
    Rng rng(4);
    ClassifierConfig cfg;
    cfg.input_dim = 2;
    cfg.hidden = {16};
    cfg.classes = 2;
    Model m = makeClassifier(cfg, rng);
    SgdMomentum opt(m, {0.1f, 0.9f});

    Tensor x(40, 2);
    std::vector<std::uint32_t> y(40);
    for (std::size_t i = 0; i < 40; ++i) {
        const bool pos = i % 2 == 0;
        x.at(i, 0) = (pos ? 2.0f : -2.0f) +
                     static_cast<float>(rng.gaussian(0.0, 0.3));
        x.at(i, 1) = (pos ? -2.0f : 2.0f) +
                     static_cast<float>(rng.gaussian(0.0, 0.3));
        y[i] = pos ? 1 : 0;
    }

    float first_loss = 0.0f, last_loss = 0.0f;
    for (int step = 0; step < 60; ++step) {
        m.zeroGrad();
        auto res = softmaxCrossEntropy(m.forward(x), y);
        if (step == 0)
            first_loss = res.loss;
        last_loss = res.loss;
        m.backward(res.grad);
        for (std::size_t r = 0; r < opt.rowCount(); ++r) {
            auto g = opt.rowGrad(r);
            opt.applyRow(r, {g.data(), g.size()});
        }
    }
    EXPECT_LT(last_loss, 0.3f * first_loss);
    auto final_res = softmaxCrossEntropy(m.forward(x), y);
    EXPECT_GT(final_res.accuracy, 0.95f);
}

} // namespace
} // namespace nn
} // namespace rog
