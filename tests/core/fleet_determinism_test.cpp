/**
 * @file
 * Bitwise determinism of the parallel fleet DES (ISSUE 10 satellite,
 * mirroring thread_pool_test's contract for tensor ops): the same
 * FleetConfig must produce byte-identical results — final replica
 * bytes, event logs, simulated clock — for every thread count driving
 * the shard lanes, and for both event-queue implementations (heap
 * core vs std::map oracle).
 */
#include <sys/stat.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "core/fleet.hpp"
#include "core/server_checkpoint.hpp"
#include "parallel/thread_pool.hpp"

namespace rog {
namespace core {
namespace {

FleetConfig
fleetConfig64()
{
    FleetConfig cfg;
    cfg.workers = 64;
    cfg.rows = 96;
    cfg.row_width = 24;
    cfg.shards = 4;
    cfg.iterations = 10;
    cfg.staleness_threshold = 4;
    cfg.atp = true;
    cfg.seed = 2026;
    return cfg;
}

void
expectBitIdentical(const FleetResult &a, const FleetResult &b)
{
    EXPECT_EQ(a.state_digest, b.state_digest);
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.iterations_completed, b.iterations_completed);
    // Exact float comparison on purpose: the determinism contract is
    // bitwise, not approximate.
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    EXPECT_EQ(a.final_metric, b.final_metric);
}

TEST(FleetDeterminismTest, BitwiseIdenticalAcrossThreadCounts)
{
    const FleetConfig cfg = fleetConfig64();

    parallel::ThreadPool p1(1);
    const FleetResult base = runFleetSimulation(cfg, p1);
    EXPECT_EQ(base.workers, 64u);
    EXPECT_EQ(base.shards, 4u);
    EXPECT_EQ(base.iterations_completed, 64u * 10u);
    EXPECT_GT(base.events_processed, 0u);
    EXPECT_GT(base.sim_seconds, 0.0);

    for (std::size_t threads : {2u, 4u, 8u}) {
        parallel::ThreadPool pool(threads);
        const FleetResult r = runFleetSimulation(cfg, pool);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectBitIdentical(base, r);
    }
}

TEST(FleetDeterminismTest, HeapAndMapQueuesProduceIdenticalRuns)
{
    FleetConfig cfg = fleetConfig64();
    cfg.workers = 16;
    cfg.iterations = 6;

    parallel::ThreadPool pool(2);
    const FleetResult heap = runFleetSimulation(cfg, pool);
    cfg.use_map_queue = true;
    const FleetResult map = runFleetSimulation(cfg, pool);
    expectBitIdentical(heap, map);
}

TEST(FleetDeterminismTest, RepeatRunsAreReproducible)
{
    FleetConfig cfg = fleetConfig64();
    cfg.workers = 8;
    cfg.iterations = 5;

    parallel::ThreadPool pool(4);
    const FleetResult a = runFleetSimulation(cfg, pool);
    const FleetResult b = runFleetSimulation(cfg, pool);
    expectBitIdentical(a, b);
}

TEST(FleetDeterminismTest, BspLockstepConvergesTighterThanRog)
{
    FleetConfig cfg = fleetConfig64();
    cfg.workers = 8;
    cfg.iterations = 12;

    parallel::ThreadPool pool(2);
    const FleetResult rog = runFleetSimulation(cfg, pool);

    FleetConfig bsp = cfg;
    bsp.staleness_threshold = 1; // lockstep
    bsp.atp = false;             // full pushes
    const FleetResult bsp_r = runFleetSimulation(bsp, pool);

    // BSP ships every row every iteration, so per-iteration progress
    // dominates ROG's partial pushes...
    EXPECT_LT(bsp_r.final_metric, rog.final_metric);
    // ...but pays for it on the wire: strictly more bytes moved.
    EXPECT_GT(bsp_r.total_bytes, rog.total_bytes);
}

TEST(FleetDeterminismTest, WritesOneCheckpointFilePerShard)
{
    FleetConfig cfg = fleetConfig64();
    cfg.workers = 4;
    cfg.iterations = 6;
    cfg.shards = 3;
    cfg.checkpoint_every = 3;
    cfg.checkpoint_dir = testing::TempDir() + "rog_fleet_ckpt";
    ::mkdir(cfg.checkpoint_dir.c_str(), 0755);

    parallel::ThreadPool pool(2);
    const FleetResult r = runFleetSimulation(cfg, pool);
    // Worker 0 checkpoints at iterations 3 and 6: shards x 2 files.
    EXPECT_EQ(r.checkpoint_files_written, 3u * 2u);

    for (std::size_t s = 0; s < 3; ++s) {
        std::string path = cfg.checkpoint_dir + "/fleet.rogs";
        if (s != 0)
            path += ".shard" + std::to_string(s);
        const ServerCheckpoint ckpt = readServerCheckpointFile(path);
        EXPECT_EQ(ckpt.iteration, 6);
        EXPECT_EQ(ckpt.versions.versions.size(), cfg.workers);
    }
}

// Fingerprints pinned from a known-good build. Storage-layout and
// event-loop optimisations must leave every one of them unchanged.
// x86-64 only: other targets may contract a*b+c into an FMA in the
// libraries built without -ffp-contract=off, which changes the float
// bits the digests cover.
#if defined(__x86_64__)

struct Fingerprint
{
    std::uint32_t state_digest;
    std::uint64_t events_processed;
    double sim_seconds;
    double total_bytes;
};

void
expectFingerprint(const FleetResult &r, const Fingerprint &f)
{
    EXPECT_EQ(r.state_digest, f.state_digest);
    EXPECT_EQ(r.events_processed, f.events_processed);
    EXPECT_EQ(r.sim_seconds, f.sim_seconds);
    EXPECT_EQ(r.total_bytes, f.total_bytes);
}

std::uint32_t
fileCrc(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return crc32c(bytes);
}

TEST(FleetDeterminismTest, PinnedFingerprintFleet64)
{
    parallel::ThreadPool pool(2);
    expectFingerprint(runFleetSimulation(fleetConfig64(), pool),
                      {0xbf681b02u, 82921u, 3.9365555437587898,
                       7100672.0});
}

/** Ragged shapes (37 workers, 29 rows of width 5, 3 uneven shards)
 *  with checkpointing, so the ROGS bytes are pinned too. */
TEST(FleetDeterminismTest, PinnedFingerprintRaggedCheckpoints)
{
    FleetConfig cfg = fleetConfig64();
    cfg.workers = 37;
    cfg.rows = 29;
    cfg.row_width = 5;
    cfg.shards = 3;
    cfg.iterations = 9;
    cfg.checkpoint_every = 3;
    cfg.seed = 1;
    cfg.checkpoint_dir = testing::TempDir() + "rog_fleet_pinned";
    ::mkdir(cfg.checkpoint_dir.c_str(), 0755);

    parallel::ThreadPool pool(2);
    const FleetResult r = runFleetSimulation(cfg, pool);
    expectFingerprint(
        r, {0xb1f327d5u, 14016u, 0.54683425686654163, 248616.0});
    EXPECT_EQ(r.checkpoint_files_written, 3u * 3u);

    const std::uint32_t file_crc[3] = {0xd5a72c64u, 0xc3170cb7u,
                                       0x3b055f20u};
    for (std::size_t s = 0; s < 3; ++s) {
        std::string path = cfg.checkpoint_dir + "/fleet.rogs";
        if (s != 0)
            path += ".shard" + std::to_string(s);
        EXPECT_EQ(fileCrc(path), file_crc[s]) << path;
    }
}

/** The benchmark's fleet shape: 1024 workers, 64 rows of 8, 8
 *  shards. */
TEST(FleetDeterminismTest, PinnedFingerprintFleet1024)
{
    FleetConfig cfg = fleetConfig64();
    cfg.workers = 1024;
    cfg.rows = 64;
    cfg.row_width = 8;
    cfg.shards = 8;
    cfg.iterations = 2;

    parallel::ThreadPool pool(2);
    expectFingerprint(runFleetSimulation(cfg, pool),
                      {0xdb8492aeu, 143511u, 1.7726371717005973,
                       3270304.0});
}

#endif // __x86_64__

} // namespace
} // namespace core
} // namespace rog
