/**
 * @file
 * Unit tests for the parameter server's two halves, run on a
 * ShardedServer with one shard and with three: the gradient outbox
 * (ServerStateTest) and the RSP version matrix, Fig. 5's "Version
 * Storage" (VersionStorageTest); and for the fixed-point format the
 * outbox keeps its running sums in (FixedPointTest).
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

/** The first element of @p worker's copy of @p unit as a float,
 *  without taking it. */
float
pendingAt(const ShardedServer &server, std::size_t worker,
          std::size_t unit)
{
    return fixed::dequantise(server.pending(worker, unit)[0]);
}

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
            EXPECT_FLOAT_EQ(pendingAt(server, w, 0), 2.0f); // 8 / 4.
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
        EXPECT_FLOAT_EQ(pendingAt(server, 0, 0), 4.0f); // 2 + 2.
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
        EXPECT_FLOAT_EQ(pendingAt(server, 1, 2), 0.0f);
        EXPECT_TRUE(server.hasPending(0, 2));
        EXPECT_FLOAT_EQ(pendingAt(server, 0, 2), 1.0f);
    }
}

TEST(ServerStateTest, TakePendingReturnsTheCopyAndClearsIt)
{
    Fixture f;
    for (std::size_t shards : kShardCounts) {
        ShardedServer server(2, f.partition, shards);
        const std::size_t width = f.partition.unit(1).width;
        server.accumulate(1, std::vector<float>(width, 3.0f));
        server.accumulate(1, std::vector<float>(width, -1.0f));
        std::vector<float> out(width, 7.0f);
        server.takePending(0, 1, out);
        for (float v : out)
            EXPECT_EQ(v, 1.0f); // (3 - 1) / 2.
        EXPECT_FALSE(server.hasPending(0, 1));
        EXPECT_EQ(server.pending(0, 1), std::vector<std::int64_t>(width));
        // Worker 1's copy is untouched, and a later push is new.
        EXPECT_EQ(pendingAt(server, 1, 1), 1.0f);
        server.accumulate(1, std::vector<float>(width, 4.0f));
        server.takePending(0, 1, out);
        EXPECT_EQ(out[0], 2.0f);
        server.takePending(1, 1, out);
        EXPECT_EQ(out[0], 3.0f);
        EXPECT_DEATH(server.takePending(0, 1, std::span<float>(out).first(
                                                  width - 1)),
                     "width");
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

/**
 * Wrap-around: S is a 64-bit running sum and may overflow any number
 * of times; pending stays exact as long as it is below 2^63 units.
 * Maximum-range pushes (every product clamps to +kMaxQuantum) carry S
 * past 2^63 after 2^13 of them and wrap it modulo 2^64 after 2^14.
 */
TEST(ServerStateTest, PendingStaysExactWhenTheRunningSumWraps)
{
    const std::size_t width = 3;
    ShardedServer server(2, std::vector<std::size_t>{width}, 1);
    const std::vector<float> big(width, 1e30f);
    const std::vector<float> small(width, -0.75f);
    const std::int64_t small_q = fixed::quantise(-0.75f, fixed::scaleFor(2));
    std::vector<float> out(width);
    // Worker 1 takes after every pair of pushes; worker 0 only after
    // every 4096 pairs, when its pending has reached 2^62.
    const std::size_t pushes = (std::size_t{1} << 14) + 100;
    for (std::size_t i = 1; i <= pushes; ++i) {
        server.accumulate(0, big);
        server.accumulate(0, small);
        const std::vector<std::int64_t> q = server.pending(1, 0);
        ASSERT_EQ(q[0], fixed::kMaxQuantum + small_q) << "push " << i;
        server.takePending(1, 0, out);
        ASSERT_EQ(out[0], fixed::dequantise(fixed::kMaxQuantum + small_q));
        if (i % 4096 == 0) {
            const std::int64_t want =
                4096 * (fixed::kMaxQuantum + small_q);
            ASSERT_EQ(server.pending(0, 0)[2], want);
            server.clearPending(0, 0);
        }
    }
    // After the wrap, worker 0 holds exactly the pushes since its clear.
    const auto rest = static_cast<std::int64_t>(pushes % 4096);
    EXPECT_EQ(server.pending(0, 0)[1], rest * (fixed::kMaxQuantum + small_q));
    EXPECT_NEAR(server.pendingMeanAbs(0, 0),
                std::ldexp(static_cast<double>(rest) *
                               static_cast<double>(fixed::kMaxQuantum +
                                                   small_q),
                           -fixed::kFracBits),
                1e-3);
}

TEST(FixedPointTest, QuantiseRoundsHalfToEven)
{
    const double one = 1.0; // 1 unit per unit of decoded * scale.
    EXPECT_EQ(fixed::quantise(0.5f, one), 0);
    EXPECT_EQ(fixed::quantise(1.5f, one), 2);
    EXPECT_EQ(fixed::quantise(2.5f, one), 2);
    EXPECT_EQ(fixed::quantise(-0.5f, one), 0);
    EXPECT_EQ(fixed::quantise(-1.5f, one), -2);
    EXPECT_EQ(fixed::quantise(-2.75f, one), -3);
    EXPECT_EQ(fixed::quantise(0.375f, std::ldexp(1.0, fixed::kFracBits)),
              std::int64_t{3} << (fixed::kFracBits - 3));
    // Against the C library's round-to-nearest-even, over every scale.
    Rng rng(17);
    for (int i = 0; i < 20000; ++i) {
        const auto v = static_cast<float>(
            rng.uniform(-1.0, 1.0) *
            std::ldexp(1.0, static_cast<int>(rng.uniformInt(40)) - 30));
        const double scale = fixed::scaleFor(1 + rng.uniformInt(5000));
        const double x = static_cast<double>(v) * scale;
        ASSERT_EQ(fixed::quantise(v, scale), std::llrint(x)) << v;
    }
}

TEST(FixedPointTest, NonFiniteAndOutOfRangeClampOrDrop)
{
    const double scale = fixed::scaleFor(1);
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(fixed::quantise(std::numeric_limits<float>::quiet_NaN(),
                              scale),
              0);
    EXPECT_EQ(fixed::quantise(-std::numeric_limits<float>::quiet_NaN(),
                              scale),
              0);
    EXPECT_EQ(fixed::quantise(inf, scale), fixed::kMaxQuantum);
    EXPECT_EQ(fixed::quantise(-inf, scale), -fixed::kMaxQuantum);
    EXPECT_EQ(fixed::quantise(std::numeric_limits<float>::max(), scale),
              fixed::kMaxQuantum);
    EXPECT_EQ(fixed::quantise(-1e20f, scale), -fixed::kMaxQuantum);
    // The edge of the range is still exact.
    const float edge = std::ldexp(1.0f, 50 - fixed::kFracBits);
    EXPECT_EQ(fixed::quantise(edge, scale), fixed::kMaxQuantum);
    EXPECT_EQ(fixed::quantise(edge * 0.75f, scale),
              fixed::kMaxQuantum / 4 * 3);
}

TEST(FixedPointTest, DequantiseIsCorrectlyRoundedOverTheFullRange)
{
    const double unit = std::ldexp(1.0, -fixed::kFracBits);
    EXPECT_EQ(fixed::dequantise(0), 0.0f);
    EXPECT_FALSE(std::signbit(fixed::dequantise(0)));
    EXPECT_EQ(fixed::dequantise(std::int64_t{1} << fixed::kFracBits),
              1.0f);
    EXPECT_EQ(fixed::dequantise(-(std::int64_t{3} << fixed::kFracBits)),
              -3.0f);
    const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(fixed::dequantise(lo), std::ldexp(-1.0f, 63 - fixed::kFracBits));
    EXPECT_EQ(fixed::dequantise(hi), std::ldexp(1.0f, 63 - fixed::kFracBits));
    // Against the language's int64 -> double conversion (correctly
    // rounded), scaled, then rounded to float.
    Rng rng(23);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t bits =
            (static_cast<std::uint64_t>(rng.uniformInt(1u << 31)) << 33) ^
            (static_cast<std::uint64_t>(rng.uniformInt(1u << 31)) << 2) ^
            rng.uniformInt(4);
        const auto q = static_cast<std::int64_t>(
            bits >> rng.uniformInt(63));
        const auto neg =
            static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(q));
        for (const std::int64_t v : {q, neg}) {
            const auto d = static_cast<double>(v);
            ASSERT_EQ(std::bit_cast<std::uint32_t>(fixed::dequantise(v)),
                      std::bit_cast<std::uint32_t>(
                          static_cast<float>(d * unit)))
                << v;
        }
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
