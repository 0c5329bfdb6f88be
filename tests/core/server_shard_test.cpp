/**
 * @file
 * Unit tests for the parameter server's two halves, run on a
 * ShardedServer with one shard and with three: the gradient outbox
 * (ServerStateTest) and the RSP version matrix, Fig. 5's "Version
 * Storage" (VersionStorageTest).
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/flat_model.hpp"
#include "core/row_partition.hpp"
#include "core/server_shard.hpp"
#include "nn/model.hpp"

namespace rog {
namespace core {
namespace {

constexpr std::size_t kShardCounts[] = {1, 3};

struct Fixture
{
    Fixture()
        : model(makeModel()), flat(model),
          partition(flat, Granularity::Row)
    {
    }

    static nn::Model
    makeModel()
    {
        Rng rng(3);
        nn::ClassifierConfig cfg;
        cfg.input_dim = 4;
        cfg.hidden = {4};
        cfg.classes = 2;
        return nn::makeClassifier(cfg, rng);
    }

    nn::Model model;
    FlatModel flat;
    RowPartition partition;
};

/** A server over @p units units of width 2 (widths do not matter to
 *  the version matrix). */
ShardedServer
versionServer(std::size_t workers, std::size_t units, std::size_t shards)
{
    return ShardedServer(workers, std::vector<std::size_t>(units, 2),
                         shards);
}

TEST(ServerStateTest, AccumulateAveragesIntoEveryWorkerCopy)
{
    Fixture f;
    for (std::size_t shards : kShardCounts) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        ShardedServer server(4, f.partition, shards);
        ASSERT_EQ(server.shardCount(), shards);
        std::vector<float> g(f.partition.unit(0).width, 8.0f);
        server.accumulate(0, g);
        for (std::size_t w = 0; w < 4; ++w) {
            EXPECT_TRUE(server.hasPending(w, 0));
            EXPECT_FLOAT_EQ(server.pending(w, 0)[0], 2.0f); // 8 / 4.
        }
        EXPECT_FALSE(server.hasPending(0, 1));
    }
}

TEST(ServerStateTest, AccumulationAdds)
{
    Fixture f;
    for (std::size_t shards : kShardCounts) {
        ShardedServer server(2, f.partition, shards);
        std::vector<float> g(f.partition.unit(0).width, 4.0f);
        server.accumulate(0, g);
        server.accumulate(0, g);
        EXPECT_FLOAT_EQ(server.pending(0, 0)[0], 4.0f); // 2 + 2.
    }
}

TEST(ServerStateTest, ClearPendingIsPerWorker)
{
    // Sec. III-B: sending to one worker zeroes only that copy.
    Fixture f;
    for (std::size_t shards : kShardCounts) {
        ShardedServer server(3, f.partition, shards);
        std::vector<float> g(f.partition.unit(2).width, 3.0f);
        server.accumulate(2, g);
        server.clearPending(1, 2);
        EXPECT_FALSE(server.hasPending(1, 2));
        EXPECT_FLOAT_EQ(server.pending(1, 2)[0], 0.0f);
        EXPECT_TRUE(server.hasPending(0, 2));
        EXPECT_FLOAT_EQ(server.pending(0, 2)[0], 1.0f);
    }
}

TEST(ServerStateTest, ClearWorkerDropsEveryUnitOfThatWorkerOnly)
{
    Fixture f;
    const std::size_t units = f.partition.unitCount();
    for (std::size_t shards : kShardCounts) {
        ShardedServer server(2, f.partition, shards);
        for (std::size_t u = 0; u < units; ++u)
            server.accumulate(
                u, std::vector<float>(f.partition.unit(u).width, 1.0f));
        server.clearWorker(1);
        for (std::size_t u = 0; u < units; ++u) {
            EXPECT_TRUE(server.hasPending(0, u));
            EXPECT_FALSE(server.hasPending(1, u));
            EXPECT_EQ(server.pendingMeanAbs(1, u), 0.0);
        }
    }
}

TEST(ServerStateTest, PendingMeanAbs)
{
    Fixture f;
    for (std::size_t shards : kShardCounts) {
        ShardedServer server(1, f.partition, shards);
        const std::size_t width = f.partition.unit(0).width;
        std::vector<float> g(width);
        for (std::size_t i = 0; i < width; ++i)
            g[i] = (i % 2 == 0) ? 2.0f : -2.0f;
        server.accumulate(0, g);
        EXPECT_NEAR(server.pendingMeanAbs(0, 0), 2.0, 1e-6);
    }
}

TEST(ServerStateTest, LastUpdateTracksMax)
{
    Fixture f;
    for (std::size_t shards : kShardCounts) {
        ShardedServer server(2, f.partition, shards);
        EXPECT_EQ(server.lastUpdate(0), 0);
        server.noteUpdate(0, 5);
        server.noteUpdate(0, 3); // older update must not regress.
        EXPECT_EQ(server.lastUpdate(0), 5);
    }
}

TEST(ServerStateTest, WidthMismatchDies)
{
    Fixture f;
    for (std::size_t shards : kShardCounts) {
        ShardedServer server(2, f.partition, shards);
        std::vector<float> bad(f.partition.unit(0).width + 1, 1.0f);
        EXPECT_DEATH(server.accumulate(0, bad), "width");
    }
}

TEST(VersionStorageTest, StartsAtZero)
{
    for (std::size_t shards : kShardCounts) {
        const ShardedServer v = versionServer(3, 5, shards);
        EXPECT_EQ(v.workers(), 3u);
        EXPECT_EQ(v.units(), 5u);
        EXPECT_EQ(v.minWorkerIteration(), 0);
        EXPECT_EQ(v.version(2, 4), 0);
    }
}

TEST(VersionStorageTest, UpdateAndGet)
{
    for (std::size_t shards : kShardCounts) {
        ShardedServer v = versionServer(2, 3, shards);
        v.updateVersion(1, 2, 7);
        EXPECT_EQ(v.version(1, 2), 7);
        EXPECT_EQ(v.version(0, 2), 0);
    }
}

TEST(VersionStorageTest, RetiredWorkerExcludedFromMins)
{
    for (std::size_t shards : kShardCounts) {
        ShardedServer v = versionServer(2, 2, shards);
        v.updateVersion(0, 0, 10);
        v.updateVersion(0, 1, 10);
        // Worker 1 never pushed; retiring it must unblock the gate.
        EXPECT_EQ(v.minWorkerIteration(), 0);
        v.retireWorker(1);
        EXPECT_TRUE(v.retired(1));
        EXPECT_FALSE(v.retired(0));
        EXPECT_EQ(v.minWorkerIteration(), 10);
    }
}

TEST(VersionStorageTest, PerWorkerExtremes)
{
    for (std::size_t shards : kShardCounts) {
        ShardedServer v = versionServer(2, 3, shards);
        v.updateVersion(0, 0, 4);
        v.updateVersion(0, 1, 9);
        EXPECT_EQ(v.maxVersionOfWorker(0), 9);
        EXPECT_EQ(v.maxVersionOfWorker(1), 0);
    }
}

TEST(VersionStorageTest, MinWorkerIterationTracksSlowestWorker)
{
    for (std::size_t shards : kShardCounts) {
        ShardedServer v = versionServer(3, 2, shards);
        v.updateVersion(0, 0, 10);
        v.updateVersion(1, 0, 6);
        v.updateVersion(2, 1, 8);
        // Last pushed iterations: 10, 6, 8 -> min is 6.
        EXPECT_EQ(v.minWorkerIteration(), 6);
        v.retireWorker(1);
        EXPECT_EQ(v.minWorkerIteration(), 8);
    }
}

TEST(VersionStorageTest, MinWorkerIterationIsZeroOnceAllRetired)
{
    for (std::size_t shards : kShardCounts) {
        ShardedServer v = versionServer(2, 3, shards);
        v.updateVersion(0, 2, 5);
        v.updateVersion(1, 0, 7);
        v.retireWorker(0);
        EXPECT_EQ(v.minWorkerIteration(), 7);
        v.retireWorker(1);
        EXPECT_EQ(v.minWorkerIteration(), 0);
    }
}

TEST(VersionStorageTest, RejoinJumpsEveryVersionAndUnretires)
{
    for (std::size_t shards : kShardCounts) {
        ShardedServer v = versionServer(2, 3, shards);
        v.updateVersion(0, 0, 2);
        v.updateVersion(0, 2, 4);
        v.updateVersion(1, 1, 3);
        v.retireWorker(0);
        v.rejoinWorker(0, 5);
        EXPECT_FALSE(v.retired(0));
        for (std::size_t u = 0; u < 3; ++u)
            EXPECT_EQ(v.version(0, u), 5);
        EXPECT_EQ(v.minWorkerIteration(), 3);
        v.retireWorker(1);
        EXPECT_DEATH(v.rejoinWorker(1, 2), "backwards");
    }
}

TEST(VersionStorageTest, VersionsMustBeMonotone)
{
    for (std::size_t shards : kShardCounts) {
        ShardedServer v = versionServer(1, 3, shards);
        v.updateVersion(0, 2, 5);
        EXPECT_DEATH(v.updateVersion(0, 2, 3), "monotone");
    }
}

TEST(VersionStorageTest, OutOfRangeDies)
{
    for (std::size_t shards : kShardCounts) {
        ShardedServer v = versionServer(2, 3, shards);
        EXPECT_DEATH(v.version(2, 0), "range");
        EXPECT_DEATH(v.updateVersion(0, 5, 1), "range");
        EXPECT_DEATH(v.maxVersionOfWorker(2), "range");
    }
}

} // namespace
} // namespace core
} // namespace rog
