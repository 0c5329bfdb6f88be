/**
 * @file
 * Crash-consistent server recovery, end to end: a `server_crash`
 * fault wipes the server's volatile state mid-run and the engine
 * restores it from the newest write-ahead checkpoint. The tentpole
 * assertion is byte-identity — a run whose server crashes exactly at
 * a checkpoint boundary must produce the *same bytes* (final model of
 * every replica, full timeline CSV) as the uninterrupted run at the
 * same seed — plus clean invariants when the crash is unaligned and
 * real state is rolled back.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "core/engine.hpp"
#include "core/server_checkpoint.hpp"
#include "core/workloads.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariant_checker.hpp"
#include "net/trace_generator.hpp"
#include "stats/timeline.hpp"
#include "tensor/gemm.hpp"

namespace rog {
namespace fault {
namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kIterations = 20;

core::CrudaWorkloadConfig
tinyCruda()
{
    core::CrudaWorkloadConfig cfg;
    cfg.data.train_samples = 800;
    cfg.data.test_samples = 200;
    cfg.model.hidden = {16, 12};
    cfg.workers = kWorkers;
    cfg.pretrain_iters = 60;
    cfg.eval_subset = 200;
    cfg.batch_size = 8;
    cfg.opt.learning_rate = 0.01f;
    return cfg;
}

core::NetworkSetup
unstableNetwork()
{
    core::NetworkSetup net;
    const auto model = net::TraceModel::outdoor(20e3);
    for (std::size_t i = 0; i < kWorkers; ++i)
        net.link_traces.push_back(
            net::generateTrace(model, 120.0, 17 + i * 1000));
    return net;
}

std::string
ckptPath(const char *tag)
{
    return testing::TempDir() + "rog_recovery_" + tag + ".rogs";
}

struct RecoveryRun
{
    core::RunResult result;
    InvariantChecker checker;
    std::string timeline;
};

RecoveryRun
runOnce(const FaultPlan *plan, const std::string &checkpoint_path,
        std::size_t checkpoint_every)
{
    core::CrudaWorkload workload(tinyCruda());
    RecoveryRun out;
    core::EngineConfig cfg;
    cfg.system = core::SystemConfig::rog(4);
    cfg.iterations = kIterations;
    cfg.eval_every = 10;
    cfg.checkpoint_every = checkpoint_every;
    cfg.checkpoint_path = checkpoint_path;
    cfg.capture_final_model = true;
    cfg.fault_plan = plan;
    cfg.invariants = &out.checker;
    out.result =
        core::runDistributedTraining(workload, cfg, unstableNetwork());
    std::ostringstream os;
    stats::writeTimelineCsv(os, stats::buildTimeline(out.result));
    out.timeline = os.str();
    return out;
}

TEST(EngineRecovery, AlignedCrashIsByteIdenticalToUninterrupted)
{
    // Crash at iteration 15 with a checkpoint cadence of 5: the
    // write-ahead checkpoint of iteration 15 is cut immediately
    // before the crash fires, so recovery restores the exact present
    // state and the continuation must not differ in a single byte.
    const RecoveryRun base = runOnce(nullptr, ckptPath("base"), 5);
    EXPECT_TRUE(base.checker.clean()) << base.checker.report();
    EXPECT_TRUE(base.result.recoveries.empty());

    const FaultPlan plan = FaultPlan::parse("server_crash iter=15\n");
    const RecoveryRun crashed = runOnce(&plan, ckptPath("aligned"), 5);
    EXPECT_TRUE(crashed.checker.clean()) << crashed.checker.report();

    ASSERT_EQ(crashed.result.recoveries.size(), 1u);
    const auto &rr = crashed.result.recoveries[0];
    EXPECT_EQ(rr.crash_iter, 15);
    EXPECT_EQ(rr.checkpoint_iter, 15);
    EXPECT_FALSE(rr.rolled_back);

    // The tentpole: final model bytes and the full per-iteration
    // timeline compare equal as strings, not within tolerance.
    ASSERT_FALSE(base.result.final_model_bytes.empty());
    EXPECT_EQ(base.result.final_model_bytes,
              crashed.result.final_model_bytes);
    EXPECT_EQ(base.timeline, crashed.timeline);

    std::remove(ckptPath("base").c_str());
    std::remove(ckptPath("aligned").c_str());
}

TEST(EngineRecovery, AlignedCrashReplaysDeterministically)
{
    const FaultPlan plan = FaultPlan::parse("server_crash iter=15\n");
    const RecoveryRun a = runOnce(&plan, ckptPath("replay"), 5);
    const RecoveryRun b = runOnce(&plan, ckptPath("replay"), 5);
    EXPECT_EQ(a.timeline, b.timeline);
    EXPECT_EQ(a.result.final_model_bytes, b.result.final_model_bytes);
    std::remove(ckptPath("replay").c_str());
}

TEST(EngineRecovery, UnalignedCrashRollsBackAndStaysClean)
{
    // Crash at 13 against a cadence of 10: iterations 11..13 of
    // server state are lost and recovery really rolls back. The run
    // must absorb that — workers re-push forward, nothing is applied
    // twice, every invariant stays clean, the budget completes.
    const FaultPlan plan = FaultPlan::parse("server_crash iter=13\n");
    const RecoveryRun run = runOnce(&plan, ckptPath("unaligned"), 10);
    EXPECT_TRUE(run.checker.clean()) << run.checker.report();

    ASSERT_EQ(run.result.recoveries.size(), 1u);
    const auto &rr = run.result.recoveries[0];
    EXPECT_EQ(rr.crash_iter, 13);
    EXPECT_EQ(rr.checkpoint_iter, 10);
    EXPECT_TRUE(rr.rolled_back);
    for (std::size_t w = 0; w < kWorkers; ++w)
        EXPECT_EQ(run.result.worker_iterations[w], kIterations);

    // The newest checkpoint on disk is from a post-recovery write.
    const auto ckpt =
        core::readServerCheckpointFile(ckptPath("unaligned"));
    EXPECT_GT(ckpt.iteration, 10);
    std::remove(ckptPath("unaligned").c_str());
}

TEST(EngineRecovery, GenesisCrashRecoversWithoutAnyCheckpoint)
{
    // No checkpoint path configured: a crash before any checkpoint
    // falls back to the genesis snapshot (iteration 0) and the run
    // still completes cleanly.
    const FaultPlan plan = FaultPlan::parse("server_crash iter=2\n");
    const RecoveryRun run = runOnce(&plan, "", 0);
    EXPECT_TRUE(run.checker.clean()) << run.checker.report();

    ASSERT_EQ(run.result.recoveries.size(), 1u);
    EXPECT_EQ(run.result.recoveries[0].checkpoint_iter, 0);
    EXPECT_TRUE(run.result.recoveries[0].rolled_back);
    EXPECT_EQ(run.result.checkpoints_written, 0u);
    for (std::size_t w = 0; w < kWorkers; ++w)
        EXPECT_EQ(run.result.worker_iterations[w], kIterations);
}

TEST(EngineRecovery, RepeatedCrashesRecoverEveryTime)
{
    const FaultPlan plan =
        FaultPlan::parse("server_crash iter=6\n"
                         "server_crash iter=12\n"
                         "server_crash iter=18\n");
    const RecoveryRun run = runOnce(&plan, ckptPath("repeat"), 5);
    EXPECT_TRUE(run.checker.clean()) << run.checker.report();
    ASSERT_EQ(run.result.recoveries.size(), 3u);
    for (const auto &rr : run.result.recoveries) {
        EXPECT_LE(rr.checkpoint_iter, rr.crash_iter);
        EXPECT_TRUE(rr.rolled_back); // 6, 12, 18 all off-cadence.
    }
    for (std::size_t w = 0; w < kWorkers; ++w)
        EXPECT_EQ(run.result.worker_iterations[w], kIterations);
    std::remove(ckptPath("repeat").c_str());
}

TEST(EngineRecovery, ServerCrashComposesWithWorkerChurn)
{
    // A worker crashes and is retired before the server itself
    // crashes: recovery must reconcile the checkpoint (which predates
    // the eviction) with the live membership truth instead of
    // resurrecting the ghost.
    const FaultPlan plan =
        FaultPlan::parse("crash worker=2 at=8 detect=3\n"
                         "server_crash iter=16\n");
    const RecoveryRun run = runOnce(&plan, ckptPath("churn"), 10);
    EXPECT_TRUE(run.checker.clean()) << run.checker.report();
    ASSERT_EQ(run.result.recoveries.size(), 1u);
    EXPECT_EQ(run.result.worker_iterations[0], kIterations);
    EXPECT_EQ(run.result.worker_iterations[1], kIterations);
    EXPECT_LT(run.result.worker_iterations[2], kIterations);
    std::remove(ckptPath("churn").c_str());
}

TEST(EngineRecovery, CheckpointCadenceSeparatesFromEvalCadence)
{
    // checkpoint_every=5 against eval_every=10: four server
    // checkpoints but still only the two metric evaluations.
    const RecoveryRun run = runOnce(nullptr, ckptPath("cadence"), 5);
    EXPECT_EQ(run.result.checkpoints_written, 4u); // 5, 10, 15, 20.
    std::size_t w0_evals = 0;
    for (const auto &c : run.result.checkpoints)
        if (c.worker == 0 && c.iteration > 0)
            ++w0_evals;
    EXPECT_EQ(w0_evals, 2u); // iterations 10 and 20.
    const auto ckpt =
        core::readServerCheckpointFile(ckptPath("cadence"));
    EXPECT_EQ(ckpt.iteration, kIterations);

    // Back-compat default: checkpoint_every=0 inherits eval_every.
    const RecoveryRun inherit = runOnce(nullptr, ckptPath("inherit"), 0);
    EXPECT_EQ(inherit.result.checkpoints_written, 2u);
    std::remove(ckptPath("cadence").c_str());
    std::remove(ckptPath("inherit").c_str());
}

#if defined(__x86_64__)
/**
 * The ROGS file the aligned-crash run leaves at checkpoint_path: the
 * iteration-20 write after a restore from the iteration-15 one. Its
 * size and CRC32C are pinned, so a change to how the engine holds,
 * snapshots or restores its server must leave the bytes on disk
 * unchanged. The outbox holds gradients, whose float bits depend on
 * the GEMM tier, so the pin holds only under the recorded tier (see
 * engine_fingerprint_test).
 */
TEST(EngineRecovery, CheckpointFileBytesArePinned)
{
    constexpr auto kPinnedTier = tensor::gemm::Tier::Avx512;
    if (tensor::gemm::activeTier() != kPinnedTier)
        GTEST_SKIP() << "pin recorded under GEMM tier "
                     << tensor::gemm::tierName(kPinnedTier);
    const FaultPlan plan = FaultPlan::parse("server_crash iter=15\n");
    const std::string path = ckptPath("pinned");
    const RecoveryRun run = runOnce(&plan, path, 5);
    ASSERT_EQ(run.result.recoveries.size(), 1u);
    EXPECT_EQ(run.result.checkpoints_written, 4u);

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    in.close();
    std::remove(path.c_str());
    EXPECT_EQ(bytes.size(), 26903u);
    EXPECT_EQ(crc32c(bytes), 0xce68f3ebu);
}
#endif // __x86_64__

} // namespace
} // namespace fault
} // namespace rog
