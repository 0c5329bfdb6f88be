/**
 * @file
 * Unit tests for synchronization-unit partitioning and the Sec. III-A
 * granularity trade-off.
 */
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "core/row_partition.hpp"
#include "core/workloads.hpp"
#include "nn/model.hpp"

namespace rog {
namespace core {
namespace {

nn::Model
testModel()
{
    Rng rng(1);
    nn::ClassifierConfig cfg;
    cfg.input_dim = 6;
    cfg.hidden = {8};
    cfg.classes = 3;
    return nn::makeClassifier(cfg, rng);
}

TEST(RowPartitionTest, UnitCountsPerGranularity)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    // Parameters: W1 (6x8), b1 (1x8), W2 (8x3), b2 (1x3).
    EXPECT_EQ(RowPartition(flat, Granularity::WholeModel).unitCount(),
              1u);
    EXPECT_EQ(RowPartition(flat, Granularity::Layer).unitCount(), 4u);
    EXPECT_EQ(RowPartition(flat, Granularity::Row).unitCount(),
              6u + 1 + 8 + 1);
    EXPECT_EQ(RowPartition(flat, Granularity::Element).unitCount(),
              flat.flatSize());
}

/** Property: every granularity exactly tiles the flat element space. */
class PartitionCoverage : public ::testing::TestWithParam<Granularity>
{
};

TEST_P(PartitionCoverage, UnitsTileFlatSpace)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    RowPartition p(flat, GetParam());
    std::size_t expect_begin = 0;
    for (const Unit &u : p.units()) {
        EXPECT_EQ(u.begin, expect_begin);
        EXPECT_GT(u.width, 0u);
        expect_begin += u.width;
    }
    EXPECT_EQ(expect_begin, flat.flatSize());
    EXPECT_EQ(p.totalElements(), flat.flatSize());
}

INSTANTIATE_TEST_SUITE_P(AllGranularities, PartitionCoverage,
                         ::testing::Values(Granularity::Element,
                                           Granularity::Row,
                                           Granularity::Layer,
                                           Granularity::WholeModel));

/** The paper workloads' replica architectures (weights irrelevant). */
nn::Model
paperModel(bool crimp)
{
    Rng rng(3);
    return crimp ? nn::makeImplicitMap(CrimpWorkloadConfig{}.model, rng)
                 : nn::makeClassifier(CrudaWorkloadConfig{}.model, rng);
}

/** Property: each unit's chunk table tiles the unit exactly once, in
 *  ascending order, and every chunk agrees with FlatModel::rowInfo. */
class ChunkTableTiling
    : public ::testing::TestWithParam<std::tuple<Granularity, bool>>
{
};

TEST_P(ChunkTableTiling, EveryUnitOnPaperModels)
{
    const auto [granularity, crimp] = GetParam();
    nn::Model m = paperModel(crimp);
    FlatModel flat(m);
    RowPartition p(flat, granularity);
    std::size_t total = 0;
    for (std::size_t u = 0; u < p.unitCount(); ++u) {
        const Unit &unit = p.unit(u);
        const auto chunks = p.chunks(u);
        ASSERT_FALSE(chunks.empty()) << "unit " << u;
        std::size_t next_off = 0;
        for (const RowChunk &c : chunks) {
            ASSERT_LT(c.row, flat.rowCount()) << "unit " << u;
            const RowInfo &info = flat.rowInfo(c.row);
            EXPECT_EQ(c.off, next_off) << "unit " << u;
            EXPECT_GT(c.count, 0u) << "unit " << u;
            EXPECT_LE(c.col + c.count, info.width) << "unit " << u;
            EXPECT_EQ(info.flat_begin + c.col, unit.begin + c.off)
                << "unit " << u;
            // A chunk ends at its row's end or at the unit's end.
            if (c.off + c.count < unit.width) {
                EXPECT_EQ(c.col + c.count, info.width) << "unit " << u;
            }
            next_off = c.off + c.count;
        }
        EXPECT_EQ(next_off, unit.width) << "unit " << u;
        total += next_off;
    }
    EXPECT_EQ(total, flat.flatSize());
    if (granularity == Granularity::Row) {
        for (std::size_t u = 0; u < p.unitCount(); ++u) {
            ASSERT_EQ(p.chunks(u).size(), 1u);
            EXPECT_EQ(p.chunks(u)[0].row, u);
            EXPECT_EQ(p.chunks(u)[0].col, 0u);
        }
    }
}

std::string
chunkTableName(
    const ::testing::TestParamInfo<ChunkTableTiling::ParamType> &info)
{
    static const char *const kNames[] = {"Element", "Row", "Layer",
                                         "WholeModel"};
    return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
           (std::get<1>(info.param) ? "_Crimp" : "_Cruda");
}

INSTANTIATE_TEST_SUITE_P(
    PaperModels, ChunkTableTiling,
    ::testing::Combine(::testing::Values(Granularity::Element,
                                         Granularity::Row,
                                         Granularity::Layer,
                                         Granularity::WholeModel),
                       ::testing::Bool()),
    chunkTableName);

TEST(RowPartitionTest, ChunksOfOutOfRangeUnitDies)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    RowPartition p(flat, Granularity::Row);
    EXPECT_DEATH(p.chunks(p.unitCount()), "range");
}

TEST(RowPartitionTest, RowUnitsMatchMatrixRows)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    RowPartition p(flat, Granularity::Row);
    for (std::size_t u = 0; u < p.unitCount(); ++u) {
        const RowInfo &info = flat.rowInfo(u);
        EXPECT_EQ(p.unit(u).begin, info.flat_begin);
        EXPECT_EQ(p.unit(u).width, info.width);
    }
}

TEST(RowPartitionTest, IndexOverheadOrderingMatchesSecIIIA)
{
    // Element >> Row > Layer > WholeModel in management cost.
    nn::Model m = testModel();
    FlatModel flat(m);
    const double elem =
        RowPartition(flat, Granularity::Element).indexOverheadFraction();
    const double row =
        RowPartition(flat, Granularity::Row).indexOverheadFraction();
    const double layer =
        RowPartition(flat, Granularity::Layer).indexOverheadFraction();
    const double whole =
        RowPartition(flat, Granularity::WholeModel)
            .indexOverheadFraction();
    EXPECT_GT(elem, row);
    EXPECT_GT(row, layer);
    EXPECT_GT(layer, whole);
    // Element indexing costs about as much as the model itself
    // ("the transmission data volume will be doubled", Sec. III-A).
    EXPECT_NEAR(elem, 1.0, 0.05);
}

TEST(RowPartitionTest, GranularityNames)
{
    EXPECT_EQ(granularityName(Granularity::Element), "element");
    EXPECT_EQ(granularityName(Granularity::Row), "row");
    EXPECT_EQ(granularityName(Granularity::Layer), "layer");
    EXPECT_EQ(granularityName(Granularity::WholeModel), "whole-model");
}

TEST(RowPartitionTest, CustomOverheadBytes)
{
    nn::Model m = testModel();
    FlatModel flat(m);
    RowPartition p(flat, Granularity::Row, 16.0);
    EXPECT_DOUBLE_EQ(p.perUnitOverheadBytes(), 16.0);
}

} // namespace
} // namespace core
} // namespace rog
