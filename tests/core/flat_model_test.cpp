/**
 * @file
 * Unit tests for the flattened model view.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/flat_model.hpp"
#include "nn/model.hpp"

namespace rog {
namespace core {
namespace {

nn::Model
testModel()
{
    Rng rng(2);
    nn::ClassifierConfig cfg;
    cfg.input_dim = 4;
    cfg.hidden = {5};
    cfg.classes = 3;
    return nn::makeClassifier(cfg, rng);
}

TEST(FlatModelTest, SizesMatchModel)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    EXPECT_EQ(flat.flatSize(), m.parameterCount());
    EXPECT_EQ(flat.rowCount(), m.rowCount());
}

TEST(FlatModelTest, RowInfoIsContiguous)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    std::size_t expect = 0;
    for (std::size_t r = 0; r < flat.rowCount(); ++r) {
        const RowInfo &info = flat.rowInfo(r);
        EXPECT_EQ(info.flat_begin, expect);
        expect += info.width;
    }
    EXPECT_EQ(expect, flat.flatSize());
}

TEST(FlatModelTest, RowOfOffsetInvertsRowInfo)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    for (std::size_t r = 0; r < flat.rowCount(); ++r) {
        const RowInfo &info = flat.rowInfo(r);
        EXPECT_EQ(flat.rowOfOffset(info.flat_begin), r);
        EXPECT_EQ(flat.rowOfOffset(info.flat_begin + info.width - 1), r);
    }
}

TEST(FlatModelTest, RowValuesAliasParameters)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    auto params = m.parameters();
    flat.rowValues(0)[0] = 123.0f;
    EXPECT_EQ(params[0]->value.at(0, 0), 123.0f);
}

TEST(FlatModelTest, GatherGradReadsGradients)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    auto params = m.parameters();
    // Mark every gradient element with its flat index.
    std::size_t flat_idx = 0;
    for (auto *p : params)
        for (std::size_t i = 0; i < p->grad.size(); ++i)
            p->grad[i] = static_cast<float>(flat_idx++);
    std::vector<float> out(10);
    flat.gatherGrad(flat.rowChunks(3, out.size()), out);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<float>(3 + i));
}

TEST(FlatModelTest, RowChunksTileRange)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    // A range spanning several rows.
    const std::size_t begin = 2;
    const std::size_t length = flat.flatSize() - 5;
    std::size_t covered = 0;
    std::size_t last_off = 0;
    for (const RowChunk &c : flat.rowChunks(begin, length)) {
        const RowInfo &info = flat.rowInfo(c.row);
        EXPECT_EQ(info.flat_begin + c.col, begin + c.off);
        EXPECT_LE(c.col + c.count, info.width);
        EXPECT_EQ(c.off, last_off);
        last_off = c.off + c.count;
        covered += c.count;
    }
    EXPECT_EQ(covered, length);
}

TEST(FlatModelTest, RowChunksSingleElement)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    const auto chunks = flat.rowChunks(7, 1);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].count, 1u);
}

TEST(FlatModelTest, OutOfBoundsDies)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    EXPECT_DEATH(flat.rowOfOffset(flat.flatSize()), "range");
    EXPECT_DEATH(flat.rowChunks(0, flat.flatSize() + 1), "bounds");
    std::vector<float> small(5);
    EXPECT_DEATH(flat.gatherGrad(flat.rowChunks(0, 10), small), "bounds");
}

} // namespace
} // namespace core
} // namespace rog
