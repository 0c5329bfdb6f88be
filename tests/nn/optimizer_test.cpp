/**
 * @file
 * Unit tests for the per-row SGD-momentum optimizer. Rows are read
 * through core::FlatModel, which numbers the model's parameter rows
 * in the order the optimizer does, so each check also sees the update
 * land in the model.
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/flat_model.hpp"
#include "nn/optimizer.hpp"

namespace rog {
namespace nn {
namespace {

Model
tinyModel(Rng &rng)
{
    ClassifierConfig cfg;
    cfg.input_dim = 3;
    cfg.hidden = {4};
    cfg.classes = 2;
    return makeClassifier(cfg, rng);
}

TEST(OptimizerTest, RowCountMatchesModel)
{
    Rng rng(1);
    Model m = tinyModel(rng);
    SgdMomentum opt(m, {0.1f, 0.0f});
    EXPECT_EQ(opt.rowCount(), m.rowCount());
}

TEST(OptimizerTest, PlainSgdStep)
{
    Rng rng(2);
    Model m = tinyModel(rng);
    SgdMomentum opt(m, {0.5f, 0.0f});
    core::FlatModel flat(m);
    auto w = flat.rowValues(0);
    const float before = w[0];
    std::vector<float> g(flat.rowInfo(0).width, 2.0f);
    opt.applyRow(0, g);
    EXPECT_FLOAT_EQ(flat.rowValues(0)[0], before - 0.5f * 2.0f);
}

TEST(OptimizerTest, MomentumAccumulates)
{
    Rng rng(3);
    Model m = tinyModel(rng);
    SgdMomentum opt(m, {1.0f, 0.5f});
    core::FlatModel flat(m);
    const float before = flat.rowValues(0)[0];
    std::vector<float> g(flat.rowInfo(0).width, 1.0f);
    opt.applyRow(0, g); // v=1, w -= 1.
    opt.applyRow(0, g); // v=1.5, w -= 1.5.
    EXPECT_FLOAT_EQ(flat.rowValues(0)[0], before - 1.0f - 1.5f);
}

TEST(OptimizerTest, MomentumIsPerRow)
{
    Rng rng(4);
    Model m = tinyModel(rng);
    SgdMomentum opt(m, {1.0f, 0.9f});
    core::FlatModel flat(m);
    std::vector<float> g0(flat.rowInfo(0).width, 1.0f);
    const float before1 = flat.rowValues(1)[0];
    // Updating row 0 must not build momentum on row 1.
    opt.applyRow(0, g0);
    opt.applyRow(0, g0);
    std::vector<float> g1(flat.rowInfo(1).width, 1.0f);
    opt.applyRow(1, g1);
    EXPECT_FLOAT_EQ(flat.rowValues(1)[0], before1 - 1.0f);
}

TEST(OptimizerTest, ApplyRowRangeTouchesOnlyRange)
{
    Rng rng(5);
    Model m = tinyModel(rng);
    SgdMomentum opt(m, {1.0f, 0.0f});
    core::FlatModel flat(m);
    ASSERT_GE(flat.rowInfo(0).width, 3u);
    auto w = flat.rowValues(0);
    const float before0 = w[0];
    const float before1 = w[1];
    std::vector<float> g = {10.0f};
    opt.applyRowRange(0, 1, g);
    EXPECT_FLOAT_EQ(flat.rowValues(0)[0], before0);
    EXPECT_FLOAT_EQ(flat.rowValues(0)[1], before1 - 10.0f);
}

TEST(OptimizerTest, ApplyRowRangeMomentumMatchesFullRow)
{
    // Applying a row in two half-ranges must equal one full apply.
    Rng rng(6);
    Model ma = tinyModel(rng);
    Rng rng2(6);
    Model mb = tinyModel(rng2);
    SgdMomentum oa(ma, {0.3f, 0.7f});
    SgdMomentum ob(mb, {0.3f, 0.7f});
    core::FlatModel fa(ma);
    core::FlatModel fb(mb);

    const std::size_t width = fa.rowInfo(0).width;
    std::vector<float> g(width);
    for (std::size_t i = 0; i < width; ++i)
        g[i] = static_cast<float>(i) - 1.5f;

    for (int step = 0; step < 3; ++step) {
        oa.applyRow(0, g);
        const std::size_t half = width / 2;
        ob.applyRowRange(0, 0, {g.data(), half});
        ob.applyRowRange(0, half, {g.data() + half, width - half});
    }
    for (std::size_t i = 0; i < width; ++i)
        EXPECT_FLOAT_EQ(fa.rowValues(0)[i], fb.rowValues(0)[i]);
}

TEST(OptimizerTest, WidthMismatchDies)
{
    Rng rng(7);
    Model m = tinyModel(rng);
    SgdMomentum opt(m, {0.1f, 0.0f});
    core::FlatModel flat(m);
    std::vector<float> g(flat.rowInfo(0).width + 3, 0.0f);
    EXPECT_DEATH(opt.applyRow(0, g), "bounds");
}

TEST(OptimizerTest, BadHyperparametersDie)
{
    Rng rng(8);
    Model m = tinyModel(rng);
    EXPECT_DEATH(SgdMomentum(m, {-0.1f, 0.0f}), "learning rate");
    EXPECT_DEATH(SgdMomentum(m, {0.1f, 1.5f}), "momentum");
}

TEST(OptimizerTest, SetLearningRate)
{
    Rng rng(9);
    Model m = tinyModel(rng);
    SgdMomentum opt(m, {0.1f, 0.0f});
    core::FlatModel flat(m);
    opt.setLearningRate(1.0f);
    const float before = flat.rowValues(0)[0];
    std::vector<float> g(flat.rowInfo(0).width, 1.0f);
    opt.applyRow(0, g);
    EXPECT_FLOAT_EQ(flat.rowValues(0)[0], before - 1.0f);
}

} // namespace
} // namespace nn
} // namespace rog
