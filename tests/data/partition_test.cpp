/**
 * @file
 * Unit tests for dataset partitioning, including the property that the
 * Dirichlet concentration controls non-IID skew.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "data/partition.hpp"

namespace rog {
namespace data {
namespace {

/**
 * Label distribution skew of a partition: mean over workers of the
 * total-variation distance between the shard's label histogram and the
 * global histogram. 0 = perfectly IID.
 */
double
partitionSkew(const Dataset &dataset,
              const std::vector<std::vector<std::size_t>> &shards)
{
    ROG_ASSERT(dataset.isClassification(), "partitionSkew needs labels");
    std::uint32_t classes = 0;
    for (auto y : dataset.labels)
        classes = std::max(classes, y + 1);

    std::vector<double> global(classes, 0.0);
    for (auto y : dataset.labels)
        global[y] += 1.0;
    for (auto &v : global)
        v /= static_cast<double>(dataset.labels.size());

    double total = 0.0;
    for (const auto &shard : shards) {
        std::vector<double> hist(classes, 0.0);
        for (auto idx : shard)
            hist[dataset.labels[idx]] += 1.0;
        double tv = 0.0;
        for (std::uint32_t c = 0; c < classes; ++c) {
            const double p = shard.empty()
                ? 0.0
                : hist[c] / static_cast<double>(shard.size());
            tv += std::fabs(p - global[c]);
        }
        total += 0.5 * tv;
    }
    return total / static_cast<double>(shards.size());
}

Dataset
labeledDataset(std::size_t n, std::uint32_t classes, std::uint64_t seed)
{
    Dataset d;
    d.features = tensor::Tensor(n, 2);
    d.labels.resize(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i)
        d.labels[i] = static_cast<std::uint32_t>(rng.uniformInt(classes));
    return d;
}

TEST(PartitionTest, DirichletCoversEverySampleExactlyOnce)
{
    const auto d = labeledDataset(1000, 10, 1);
    Rng rng(2);
    const auto shards = dirichletPartition(d, 4, 0.5, rng);
    ASSERT_EQ(shards.size(), 4u);
    std::vector<int> seen(1000, 0);
    for (const auto &s : shards)
        for (auto i : s)
            seen[i]++;
    for (int c : seen)
        EXPECT_EQ(c, 1);
}

TEST(PartitionTest, DirichletNoEmptyShards)
{
    const auto d = labeledDataset(200, 4, 3);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Rng rng(seed);
        const auto shards = dirichletPartition(d, 8, 0.05, rng);
        for (const auto &s : shards)
            EXPECT_FALSE(s.empty());
    }
}

/** Property: smaller alpha gives larger label skew. */
class DirichletSkew : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DirichletSkew, SmallAlphaMoreSkewedThanLarge)
{
    const auto d = labeledDataset(4000, 10, GetParam());
    Rng rng_small(GetParam() * 3 + 1);
    Rng rng_large(GetParam() * 3 + 2);
    const auto skew_small =
        partitionSkew(d, dirichletPartition(d, 4, 0.05, rng_small));
    const auto skew_large =
        partitionSkew(d, dirichletPartition(d, 4, 100.0, rng_large));
    EXPECT_GT(skew_small, skew_large);
    EXPECT_GT(skew_small, 0.3);
    EXPECT_LT(skew_large, 0.2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirichletSkew,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(PartitionTest, IidPartitionIsBalanced)
{
    Rng rng(5);
    const auto shards = iidPartition(1001, 4, rng);
    ASSERT_EQ(shards.size(), 4u);
    std::size_t total = 0;
    for (const auto &s : shards) {
        EXPECT_GE(s.size(), 250u);
        EXPECT_LE(s.size(), 251u);
        total += s.size();
    }
    EXPECT_EQ(total, 1001u);
}

TEST(PartitionTest, IidPartitionNearZeroSkew)
{
    const auto d = labeledDataset(4000, 10, 9);
    Rng rng(6);
    const auto shards = iidPartition(4000, 4, rng);
    EXPECT_LT(partitionSkew(d, shards), 0.1);
}

TEST(PartitionTest, RegressionDatasetDies)
{
    Dataset d;
    d.features = tensor::Tensor(10, 2);
    d.targets = tensor::Tensor(10, 1);
    Rng rng(7);
    EXPECT_DEATH(dirichletPartition(d, 2, 1.0, rng), "labels");
}

} // namespace
} // namespace data
} // namespace rog
