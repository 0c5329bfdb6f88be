/**
 * @file
 * Sharded parameter server equivalence: the ShardedServer facade must
 * be observably — and for full engine runs bit-for-bit — identical to
 * the unsharded server for every shard count. Sharding only changes
 * the storage layout (ROADMAP item 1 / DESIGN.md Sec. 17); the
 * training computation must not notice.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/row_partition.hpp"
#include "core/legacy_server.hpp"
#include "core/server_shard.hpp"
#include "core/workloads.hpp"
#include "net/trace_generator.hpp"

namespace rog {
namespace core {
namespace {

CrudaWorkloadConfig
tinyCruda(std::size_t workers)
{
    CrudaWorkloadConfig cfg;
    cfg.data.train_samples = 800;
    cfg.data.test_samples = 200;
    cfg.model.hidden = {16, 12};
    cfg.workers = workers;
    cfg.pretrain_iters = 40;
    cfg.eval_subset = 200;
    cfg.batch_size = 8;
    cfg.opt.learning_rate = 0.01f;
    return cfg;
}

NetworkSetup
unstableNetwork(std::size_t workers, double mean = 20e3)
{
    NetworkSetup net;
    const auto model = net::TraceModel::outdoor(mean);
    for (std::size_t i = 0; i < workers; ++i)
        net.link_traces.push_back(
            net::generateTrace(model, 120.0, 17 + i * 1000));
    return net;
}

/**
 * Differential driver: the legacy trio (the legacy::VersionStorage +
 * legacy::EagerFixedServer oracle and one MtaTimeTracker) against a
 * ShardedServer with @p shards, fed the same random operation trace;
 * every observable value must match bit-for-bit (integer and float
 * equality, not tolerance).
 */
void
runDifferentialTrace(std::size_t shards, std::uint32_t seed)
{
    // A real partition from a real flat model, so unit widths are the
    // uneven ones the engine sees.
    CrudaWorkloadConfig wcfg = tinyCruda(3);
    CrudaWorkload workload(wcfg);
    auto model = workload.buildReplica();
    FlatModel flat(*model);
    RowPartition partition(flat, Granularity::Row);

    const std::size_t workers = 3;
    const std::size_t units = partition.unitCount();
    ASSERT_GT(units, shards);

    legacy::VersionStorage versions(workers, units);
    legacy::EagerFixedServer server(workers, partition);
    MtaTimeTracker tracker(workers);
    ShardedServer sharded(workers, partition, shards);
    ASSERT_EQ(sharded.shardCount(), shards);

    Rng rng(seed);
    std::vector<float> grad, a, b;
    for (int op = 0; op < 4000; ++op) {
        const std::size_t w = rng.uniformInt(workers);
        const std::size_t u = rng.uniformInt(units);
        switch (rng.uniformInt(8)) {
        case 0: { // push: accumulate + version bump
            grad.resize(partition.unit(u).width);
            for (auto &g : grad)
                g = static_cast<float>(rng.uniform(-1.0, 1.0));
            server.accumulate(u, grad);
            sharded.accumulate(u, grad);
            const std::int64_t iter = versions.get(w, u) + 1;
            versions.update(w, u, iter);
            sharded.updateVersion(w, u, iter);
            server.noteUpdate(u, iter);
            sharded.noteUpdate(u, iter);
            break;
        }
        case 1: // pull: read + clear one copy
            ASSERT_EQ(server.hasPending(w, u),
                      sharded.hasPending(w, u));
            if (server.hasPending(w, u)) {
                ASSERT_EQ(server.pending(w, u), sharded.pending(w, u))
                    << "row " << u;
                a.resize(partition.unit(u).width);
                b.resize(a.size());
                server.takePending(w, u, a);
                sharded.takePending(w, u, b);
                for (std::size_t j = 0; j < a.size(); ++j)
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[j]),
                              std::bit_cast<std::uint32_t>(b[j]))
                        << "row " << u;
                ASSERT_FALSE(sharded.hasPending(w, u));
            }
            break;
        case 2:
            ASSERT_DOUBLE_EQ(server.pendingMeanAbs(w, u),
                             sharded.pendingMeanAbs(w, u));
            break;
        case 3:
            ASSERT_EQ(server.lastUpdate(u), sharded.lastUpdate(u));
            ASSERT_EQ(versions.get(w, u), sharded.version(w, u));
            break;
        case 4: { // MTA report (replicated into every shard tracker)
            const double bytes = rng.uniform(1e3, 1e6);
            const double secs = rng.uniform(0.01, 2.0);
            const double mta = rng.uniform(1e3, 1e5);
            tracker.report(w, bytes, secs, mta);
            sharded.report(w, bytes, secs, mta);
            ASSERT_EQ(tracker.mtaTime(), sharded.mtaTime());
            ASSERT_EQ(tracker.estimateFor(w), sharded.estimateFor(w));
            break;
        }
        case 5:
            if (!versions.retired(w)) {
                versions.retireWorker(w);
                sharded.retireWorker(w);
            }
            break;
        case 6:
            if (versions.retired(w)) {
                const std::int64_t at = versions.maxVersionOfWorker(w);
                versions.rejoinWorker(w, at);
                sharded.rejoinWorker(w, at);
                server.clearWorker(w);
                sharded.clearWorker(w);
            }
            break;
        default:
            ASSERT_EQ(versions.retired(w), sharded.retired(w));
            ASSERT_EQ(versions.maxVersionOfWorker(w),
                      sharded.maxVersionOfWorker(w));
            ASSERT_EQ(versions.minWorkerIteration(),
                      sharded.minWorkerIteration());
            break;
        }
    }

    // Full sweep at the end: every cell identical.
    for (std::size_t w = 0; w < workers; ++w) {
        for (std::size_t u = 0; u < units; ++u) {
            ASSERT_EQ(versions.get(w, u), sharded.version(w, u));
            ASSERT_EQ(server.hasPending(w, u), sharded.hasPending(w, u));
            ASSERT_EQ(server.pending(w, u), sharded.pending(w, u));
        }
    }
}

TEST(ShardedServerTest, TwoShardsMatchLegacyTrio)
{
    runDifferentialTrace(2, 0xA11CEu);
}

TEST(ShardedServerTest, FourShardsMatchLegacyTrio)
{
    runDifferentialTrace(4, 0xB0B0u);
}

TEST(ShardedServerTest, SingleShardMatchesLegacyTrio)
{
    runDifferentialTrace(1, 0xCAFEu);
}

TEST(ShardedServerTest, ShardCountClampsToUnitCount)
{
    CrudaWorkload workload(tinyCruda(2));
    auto model = workload.buildReplica();
    FlatModel flat(*model);
    RowPartition partition(flat, Granularity::Row);
    ShardedServer s(2, partition, 100000);
    EXPECT_EQ(s.shardCount(), partition.unitCount());
    ShardedServer s0(2, partition, 0);
    EXPECT_EQ(s0.shardCount(), 1u);
}

TEST(ShardedServerTest, ShardRangesAreContiguousAndCoverEveryUnit)
{
    CrudaWorkload workload(tinyCruda(2));
    auto model = workload.buildReplica();
    FlatModel flat(*model);
    RowPartition partition(flat, Granularity::Row);
    ShardedServer s(2, partition, 4);
    std::size_t last = 0;
    for (std::size_t u = 0; u < s.units(); ++u) {
        const std::size_t sh = s.shardOf(u);
        EXPECT_GE(sh, last) << "unit " << u;
        EXPECT_LE(sh, last + 1) << "unit " << u;
        last = sh;
    }
    EXPECT_EQ(last, s.shardCount() - 1);
}

/** Random pushes, pulls, version bumps and MTA reports on one shard. */
void
churnShard(ServerShard &shard, Rng &rng, int ops)
{
    std::vector<float> grad;
    for (int op = 0; op < ops; ++op) {
        const std::size_t w = rng.uniformInt(shard.workers());
        const std::size_t u = rng.uniformInt(shard.units());
        switch (rng.uniformInt(4)) {
        case 0:
        case 1: {
            grad.resize(shard.pending(w, u).size());
            for (auto &g : grad)
                g = static_cast<float>(rng.uniform(-1.0, 1.0));
            shard.accumulate(u, grad);
            const std::int64_t iter = shard.version(w, u) + 1;
            shard.updateVersion(w, u, iter);
            shard.noteUpdate(u, iter);
            break;
        }
        case 2:
            shard.clearPending(w, u);
            break;
        default:
            shard.report(w, rng.uniform(1e3, 1e6), rng.uniform(0.01, 2.0),
                         rng.uniform(1e3, 1e5));
            break;
        }
    }
}

void
expectSameSnapshots(const ServerShard &a, const ServerShard &b)
{
    const VersionSnapshot va = a.versionSnapshot();
    const VersionSnapshot vb = b.versionSnapshot();
    EXPECT_EQ(va.versions, vb.versions);
    EXPECT_EQ(va.retired, vb.retired);
    const ServerStateSnapshot sa = a.serverSnapshot();
    const ServerStateSnapshot sb = b.serverSnapshot();
    EXPECT_EQ(sa.outbox, sb.outbox);
    EXPECT_EQ(sa.has_pending, sb.has_pending);
    EXPECT_EQ(sa.last_update, sb.last_update);
    const MtaTrackerSnapshot ta = a.trackerSnapshot();
    const MtaTrackerSnapshot tb = b.trackerSnapshot();
    EXPECT_EQ(ta.rate, tb.rate);
    EXPECT_EQ(ta.seeded, tb.seeded);
    EXPECT_EQ(ta.mta_bytes, tb.mta_bytes);
}

TEST(ShardedServerTest, ShardSnapshotRoundTripsRaggedWidths)
{
    const std::vector<std::size_t> widths = {3, 8, 1, 17, 70};
    const std::size_t workers = 5;
    ServerShard src(workers, widths);
    Rng rng(0x5EEDu);
    churnShard(src, rng, 600);
    src.retireWorker(3);

    const ServerStateSnapshot snap = src.serverSnapshot();
    ASSERT_EQ(snap.outbox.size(), workers);
    ASSERT_EQ(snap.has_pending.size(), workers);
    for (std::size_t w = 0; w < workers; ++w) {
        ASSERT_EQ(snap.outbox[w].size(), widths.size());
        for (std::size_t u = 0; u < widths.size(); ++u) {
            ASSERT_EQ(snap.outbox[w][u].size(), widths[u]);
            const auto p = src.pending(w, u);
            EXPECT_TRUE(std::equal(p.begin(), p.end(),
                                   snap.outbox[w][u].begin()));
            EXPECT_EQ(snap.has_pending[w][u] != 0, src.hasPending(w, u));
        }
    }

    ServerShard dst(workers, widths);
    dst.restore(src.versionSnapshot(), snap, src.trackerSnapshot());
    expectSameSnapshots(src, dst);
    for (std::size_t w = 0; w < workers; ++w) {
        EXPECT_EQ(src.retired(w), dst.retired(w));
        for (std::size_t u = 0; u < widths.size(); ++u) {
            EXPECT_EQ(src.hasPending(w, u), dst.hasPending(w, u));
            EXPECT_EQ(src.version(w, u), dst.version(w, u));
            EXPECT_EQ(src.pendingMeanAbs(w, u), dst.pendingMeanAbs(w, u));
        }
    }

    // The restored shard carries on exactly as the original does.
    Rng ra(0xD1CEu), rb(0xD1CEu);
    churnShard(src, ra, 300);
    churnShard(dst, rb, 300);
    expectSameSnapshots(src, dst);
}

TEST(ShardedServerTest, ShardSnapshotsMatchLegacyServerState)
{
    // Rows of 32, 80 and 12 floats over 7 workers, ragged across
    // three shards.
    const std::size_t workers = 7;
    CrudaWorkloadConfig wcfg = tinyCruda(workers);
    wcfg.model.hidden = {80, 12};
    CrudaWorkload workload(wcfg);
    auto model = workload.buildReplica();
    FlatModel flat(*model);
    RowPartition partition(flat, Granularity::Row);
    const std::size_t units = partition.unitCount();

    legacy::EagerFixedServer legacy(workers, partition);
    ShardedServer sharded(workers, partition, 3);
    ASSERT_EQ(sharded.shardCount(), 3u);

    Rng rng(0xFEEDu);
    std::vector<float> grad;
    for (int op = 0; op < 3000; ++op) {
        const std::size_t w = rng.uniformInt(workers);
        const std::size_t u = rng.uniformInt(units);
        if (rng.uniformInt(3) != 0) {
            grad.resize(partition.unit(u).width);
            for (auto &g : grad)
                g = static_cast<float>(rng.uniform(-1.0, 1.0));
            legacy.accumulate(u, grad);
            sharded.accumulate(u, grad);
            legacy.noteUpdate(u, op);
            sharded.noteUpdate(u, op);
        } else {
            legacy.clearPending(w, u);
            sharded.clearPending(w, u);
        }
    }

    // Concatenating the shards' snapshots along the unit axis must
    // reproduce the legacy snapshot exactly.
    ServerStateSnapshot joined;
    joined.outbox.resize(workers);
    joined.has_pending.resize(workers);
    for (std::size_t s = 0; s < sharded.shardCount(); ++s) {
        const ServerStateSnapshot part = sharded.shard(s).serverSnapshot();
        for (std::size_t w = 0; w < workers; ++w) {
            joined.outbox[w].insert(joined.outbox[w].end(),
                                    part.outbox[w].begin(),
                                    part.outbox[w].end());
            joined.has_pending[w].insert(joined.has_pending[w].end(),
                                         part.has_pending[w].begin(),
                                         part.has_pending[w].end());
        }
        joined.last_update.insert(joined.last_update.end(),
                                  part.last_update.begin(),
                                  part.last_update.end());
    }
    const ServerStateSnapshot want = legacy.snapshot();
    EXPECT_EQ(joined.outbox, want.outbox);
    EXPECT_EQ(joined.has_pending, want.has_pending);
    EXPECT_EQ(joined.last_update, want.last_update);
}

/**
 * The error bound of server_shard.hpp, against exact summation and
 * against the float server the fixed-point one replaced: for k pushes
 * of in-range products p_i since the last take, a take returns
 * sum(p_i) within k * 2^-F + 2^-24 (1 + 2^-28) |sum(p_i)|. The float
 * oracle's own error is gamma_(k+2) * sum|p_i| (one rounding for the
 * 1/workers scale, one per product, one per add), so the two servers
 * agree within the sum of the bounds.
 */
TEST(ShardedServerTest, FixedPointStaysWithinBoundOfFloatOracle)
{
    const std::size_t workers = 3;
    CrudaWorkload workload(tinyCruda(workers));
    auto model = workload.buildReplica();
    FlatModel flat(*model);
    RowPartition partition(flat, Granularity::Row);
    const std::size_t units = partition.unitCount();

    legacy::ServerState legacy(workers, partition);
    ShardedServer sharded(workers, partition, 2);
    // Per (worker, unit, element): the exact sum (long double) and the
    // sum of |p_i| of the products since the last take, and k.
    struct Cell
    {
        std::vector<long double> exact, abs;
        std::size_t k = 0;
    };
    std::vector<std::vector<Cell>> cells(workers);
    for (auto &row : cells) {
        row.resize(units);
        for (std::size_t u = 0; u < units; ++u) {
            row[u].exact.assign(partition.unit(u).width, 0.0L);
            row[u].abs.assign(partition.unit(u).width, 0.0L);
        }
    }

    const double unit = std::ldexp(1.0, -fixed::kFracBits);
    const double u24 = std::ldexp(1.0, -24);
    Rng rng(0xB0DEu);
    std::vector<float> grad, got;
    std::size_t checked = 0;
    for (int op = 0; op < 6000; ++op) {
        const std::size_t w = rng.uniformInt(workers);
        const std::size_t u = rng.uniformInt(units);
        const std::size_t width = partition.unit(u).width;
        if (rng.uniformInt(4) != 0) {
            grad.resize(width);
            // Magnitudes from 2^-30 to 2^4, both signs: the range the
            // figure presets push, and well beyond.
            for (auto &g : grad) {
                const int exp = static_cast<int>(rng.uniformInt(35)) - 30;
                g = static_cast<float>(rng.uniform(-1.0, 1.0) *
                                       std::ldexp(1.0, exp));
            }
            legacy.accumulate(u, grad);
            sharded.accumulate(u, grad);
            for (auto &row : cells) {
                Cell &c = row[u];
                ++c.k;
                for (std::size_t j = 0; j < width; ++j) {
                    const long double p =
                        static_cast<long double>(grad[j]) / workers;
                    c.exact[j] += p;
                    c.abs[j] += std::fabs(p);
                }
            }
            continue;
        }
        Cell &c = cells[w][u];
        got.resize(width);
        sharded.takePending(w, u, got);
        const auto old = legacy.pending(w, u);
        const double k = static_cast<double>(c.k);
        for (std::size_t j = 0; j < width; ++j) {
            const long double exact = c.exact[j];
            const double bound =
                k * unit + u24 * (1.0 + std::ldexp(1.0, -28)) *
                               static_cast<double>(std::fabs(exact));
            ASSERT_LE(std::fabs(static_cast<long double>(got[j]) - exact),
                      bound)
                << "k " << c.k << " exact " << static_cast<double>(exact);
            const double gamma = (k + 2) * u24 / (1.0 - (k + 2) * u24);
            const double old_bound =
                gamma * static_cast<double>(c.abs[j]);
            ASSERT_LE(std::fabs(static_cast<double>(got[j]) -
                                static_cast<double>(old[j])),
                      bound + old_bound);
            c.exact[j] = 0.0L;
            c.abs[j] = 0.0L;
            ++checked;
        }
        c.k = 0;
        legacy.clearPending(w, u);
    }
    EXPECT_GT(checked, 1000u);
}

/**
 * Non-finite products (red/green): the float server lets one NaN or
 * infinity reach every worker's copy, and from there the replicas. The
 * fixed-point server neither aborts nor propagates: NaN quantises to 0
 * and drops out, +-inf clamps to +-kMaxQuantum, and the finite
 * products pushed beside them arrive exactly.
 */
TEST(ShardedServerTest, NonFiniteProductsAreDroppedOrClamped)
{
    const std::size_t workers = 2;
    CrudaWorkload workload(tinyCruda(workers));
    auto model = workload.buildReplica();
    FlatModel flat(*model);
    RowPartition partition(flat, Granularity::Row);
    const std::size_t width = partition.unit(0).width;
    ASSERT_GE(width, 4u);

    legacy::ServerState legacy(workers, partition);
    ShardedServer sharded(workers, partition, 1);
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> finite(width, 0.5f);
    std::vector<float> bad(width, 0.25f);
    bad[0] = std::numeric_limits<float>::quiet_NaN();
    bad[1] = inf;
    bad[2] = -inf;
    for (const auto *row : {&finite, &bad}) {
        legacy.accumulate(0, *row);
        sharded.accumulate(0, *row);
    }

    // Red: the float server hands out NaN and infinities.
    const auto old = legacy.pending(0, 0);
    EXPECT_TRUE(std::isnan(old[0]));
    EXPECT_TRUE(std::isinf(old[1]) && std::isinf(old[2]));

    // Green: exact units, every value finite.
    const std::int64_t half = fixed::quantise(0.5f, fixed::scaleFor(2));
    const std::int64_t quarter =
        fixed::quantise(0.25f, fixed::scaleFor(2));
    const std::vector<std::int64_t> q = sharded.pending(0, 0);
    EXPECT_EQ(q[0], half);
    EXPECT_EQ(q[1], half + fixed::kMaxQuantum);
    EXPECT_EQ(q[2], half - fixed::kMaxQuantum);
    for (std::size_t j = 3; j < width; ++j)
        EXPECT_EQ(q[j], half + quarter);
    std::vector<float> got(width);
    sharded.takePending(0, 0, got);
    for (float v : got)
        EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(got[0], 0.25f);
    EXPECT_EQ(got[3], 0.375f);
    EXPECT_TRUE(std::isfinite(sharded.pendingMeanAbs(1, 0)));
}

/**
 * The acceptance bar: a full ROG engine run with a sharded server is
 * row-for-row identical to the single-shard run — same final model
 * bytes, same per-iteration records, same simulated clock.
 */
TEST(ShardedServerTest, EngineRunBitIdenticalAcrossShardCounts)
{
    RunResult base;
    {
        CrudaWorkload workload(tinyCruda(3));
        EngineConfig cfg;
        cfg.system = SystemConfig::rog(4);
        cfg.iterations = 15;
        cfg.eval_every = 5;
        cfg.capture_final_model = true;
        cfg.server_shards = 1;
        base = runDistributedTraining(workload, cfg,
                                      unstableNetwork(3));
    }
    for (std::size_t shards : {2u, 4u}) {
        CrudaWorkload workload(tinyCruda(3));
        EngineConfig cfg;
        cfg.system = SystemConfig::rog(4);
        cfg.iterations = 15;
        cfg.eval_every = 5;
        cfg.capture_final_model = true;
        cfg.server_shards = shards;
        const auto res = runDistributedTraining(workload, cfg,
                                                unstableNetwork(3));
        EXPECT_EQ(res.server_shards, shards);
        ASSERT_EQ(res.final_model_bytes, base.final_model_bytes)
            << "shards=" << shards;
        ASSERT_EQ(res.iterations.size(), base.iterations.size());
        for (std::size_t i = 0; i < res.iterations.size(); ++i) {
            EXPECT_EQ(res.iterations[i].worker,
                      base.iterations[i].worker);
            EXPECT_DOUBLE_EQ(res.iterations[i].comm_s,
                             base.iterations[i].comm_s);
            EXPECT_DOUBLE_EQ(res.iterations[i].stall_s,
                             base.iterations[i].stall_s);
            EXPECT_DOUBLE_EQ(res.iterations[i].end_time_s,
                             base.iterations[i].end_time_s);
        }
        EXPECT_DOUBLE_EQ(res.sim_seconds, base.sim_seconds);
    }
}

} // namespace
} // namespace core
} // namespace rog
