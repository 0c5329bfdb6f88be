/**
 * @file
 * Unit tests for Conv2d and the miniature ConvMLP, including numerical
 * gradient checks of the im2col forward/backward pair.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace rog {
namespace nn {
namespace {

TEST(ConvTest, OutputShape)
{
    Rng rng(1);
    Conv2d conv("c", 3, 8, 8, 5, 3, rng);
    EXPECT_EQ(conv.inputDim(), 3u * 64);
    EXPECT_EQ(conv.outputDim(0), 5u * 64);
    Tensor x(2, 3 * 64);
    Tensor out;
    conv.forward(x, out);
    EXPECT_EQ(out.rows(), 2u);
    EXPECT_EQ(out.cols(), 5u * 64);
}

TEST(ConvTest, ParameterShapes)
{
    Rng rng(2);
    Conv2d conv("c", 4, 6, 6, 7, 3, rng);
    auto params = conv.parameters();
    ASSERT_EQ(params.size(), 2u);
    EXPECT_EQ(params[0]->value.rows(), 4u * 9);
    EXPECT_EQ(params[0]->value.cols(), 7u);
    EXPECT_EQ(params[1]->value.rows(), 1u);
    EXPECT_EQ(params[1]->value.cols(), 7u);
}

TEST(ConvTest, IdentityKernelCopiesInput)
{
    // A 1-channel 3x3 kernel with only the center weight set to 1
    // reproduces the input exactly (same padding, stride 1).
    Rng rng(3);
    Conv2d conv("c", 1, 4, 4, 1, 3, rng);
    auto params = conv.parameters();
    params[0]->value.zero();
    params[0]->value.at(4, 0) = 1.0f; // kernel center (ky=0, kx=0).
    params[1]->value.zero();

    Tensor x(1, 16);
    for (std::size_t i = 0; i < 16; ++i)
        x[i] = static_cast<float>(i) * 0.25f;
    Tensor out;
    conv.forward(x, out);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_NEAR(out[i], x[i], 1e-6f) << i;
}

TEST(ConvTest, ShiftKernelRespectsPaddingZeros)
{
    // Kernel that reads the pixel to the left: output column 0 must be
    // zero (padding), other columns shift.
    Rng rng(4);
    Conv2d conv("c", 1, 3, 3, 1, 3, rng);
    auto params = conv.parameters();
    params[0]->value.zero();
    params[0]->value.at(3, 0) = 1.0f; // (ky=0, kx=-1).
    params[1]->value.zero();

    Tensor x(1, 9);
    x.fill(1.0f);
    Tensor out;
    conv.forward(x, out);
    // Column 0 of every row looks at padding.
    EXPECT_NEAR(out[0], 0.0f, 1e-6f);
    EXPECT_NEAR(out[3], 0.0f, 1e-6f);
    EXPECT_NEAR(out[6], 0.0f, 1e-6f);
    EXPECT_NEAR(out[1], 1.0f, 1e-6f);
}

TEST(ConvTest, GradientCheck)
{
    Rng rng(5);
    Model m;
    m.add(std::make_unique<Conv2d>("c", 2, 4, 4, 3, 3, rng));
    Tensor x(2, 2 * 16);
    x.randomNormal(rng, 1.0f);

    m.zeroGrad();
    const Tensor &out = m.forward(x);
    Tensor dloss(out.rows(), out.cols());
    for (std::size_t i = 0; i < dloss.size(); ++i)
        dloss[i] = out[i];
    m.backward(dloss);

    auto loss_of = [&]() {
        const Tensor &o = m.forward(x);
        float s = 0.0f;
        for (std::size_t i = 0; i < o.size(); ++i)
            s += o[i] * o[i];
        return 0.5f * s;
    };

    Rng pick(99);
    for (Parameter *p : m.parameters()) {
        for (int k = 0; k < 10; ++k) {
            const std::size_t i = pick.uniformInt(p->value.size());
            const float eps = 1e-2f;
            const float orig = p->value[i];
            p->value[i] = orig + eps;
            const float up = loss_of();
            p->value[i] = orig - eps;
            const float down = loss_of();
            p->value[i] = orig;
            const float numeric = (up - down) / (2.0f * eps);
            const float analytic = p->grad[i];
            const float scale = std::max(
                {std::fabs(numeric), std::fabs(analytic), 1.0f});
            EXPECT_NEAR(numeric / scale, analytic / scale, 3e-2f)
                << p->name << "[" << i << "]";
        }
    }
}

TEST(ConvTest, InputGradientCheck)
{
    Rng rng(6);
    Conv2d conv("c", 1, 3, 3, 2, 3, rng);
    Tensor x(1, 9);
    x.randomNormal(rng, 1.0f);

    Tensor out;
    conv.forward(x, out);
    Tensor dout(out.rows(), out.cols());
    dout.fill(1.0f);
    Tensor din;
    conv.backward(dout, din);

    for (std::size_t i = 0; i < 9; ++i) {
        const float eps = 1e-2f;
        Tensor up_x = x, down_x = x;
        up_x[i] += eps;
        down_x[i] -= eps;
        Tensor up_out, down_out;
        conv.forward(up_x, up_out);
        float up = 0.0f;
        for (std::size_t j = 0; j < up_out.size(); ++j)
            up += up_out[j];
        conv.forward(down_x, down_out);
        float down = 0.0f;
        for (std::size_t j = 0; j < down_out.size(); ++j)
            down += down_out[j];
        // Restore the forward cache for consistency.
        conv.forward(x, out);
        EXPECT_NEAR((up - down) / (2.0f * eps), din[i], 5e-2f) << i;
    }
}

TEST(ConvTest, EvenKernelDies)
{
    Rng rng(7);
    EXPECT_DEATH(Conv2d("c", 1, 4, 4, 1, 2, rng), "odd");
}

TEST(ConvMlpTest, BuildsAndClassifies)
{
    Rng rng(8);
    ConvMlpConfig cfg;
    cfg.channels = 2;
    cfg.height = 6;
    cfg.width = 6;
    cfg.conv_channels = 4;
    cfg.mlp_hidden = {16};
    cfg.classes = 3;
    Model m = makeConvMlp(cfg, rng);
    Tensor x(4, 2 * 36);
    x.randomNormal(rng, 1.0f);
    const Tensor &out = m.forward(x);
    EXPECT_EQ(out.cols(), 3u);
    EXPECT_GT(m.rowCount(), 2u * 9); // conv rows are exposed to ROG.
}

TEST(ConvMlpTest, LearnsToyImageTask)
{
    // Two classes: bright top half vs bright bottom half.
    Rng rng(9);
    ConvMlpConfig cfg;
    cfg.channels = 1;
    cfg.height = 6;
    cfg.width = 6;
    cfg.conv_channels = 4;
    cfg.conv_layers = 1;
    cfg.mlp_hidden = {16};
    cfg.classes = 2;
    Model m = makeConvMlp(cfg, rng);
    SgdMomentum opt(m, {0.05f, 0.9f});

    Tensor x(20, 36);
    std::vector<std::uint32_t> y(20);
    for (std::size_t i = 0; i < 20; ++i) {
        const bool top = i % 2 == 0;
        for (std::size_t p = 0; p < 36; ++p) {
            const bool in_top = p < 18;
            x.at(i, p) = (top == in_top ? 1.0f : 0.0f) +
                         static_cast<float>(rng.gaussian(0.0, 0.1));
        }
        y[i] = top ? 1 : 0;
    }
    for (int step = 0; step < 80; ++step) {
        m.zeroGrad();
        auto res = softmaxCrossEntropy(m.forward(x), y);
        m.backward(res.grad);
        for (std::size_t r = 0; r < opt.rowCount(); ++r) {
            auto g = opt.rowGrad(r);
            opt.applyRow(r, {g.data(), g.size()});
        }
    }
    auto final_res = softmaxCrossEntropy(m.forward(x), y);
    EXPECT_GT(final_res.accuracy, 0.9f);
}

} // namespace
} // namespace nn
} // namespace rog
