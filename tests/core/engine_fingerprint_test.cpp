/**
 * @file
 * Bit-exact fingerprints of the coroutine DES engine — the path behind
 * every paper figure. Each case runs the tiny CRUDA preset (3 workers,
 * 12 iterations) over a fixed unstable network and pins the exact bits
 * of the simulated run length and the delivered wire bytes, every
 * worker's completed iteration count, and the CRC32C of all final
 * replicas serialized in worker order. One ROG run adds a fault plan
 * that exercises every fault the engine honours: a blackout, a
 * truncation, a forced timeout, a crash with rejoin and detection, a
 * graceful leave, and a server crash recovered from a checkpoint.
 *
 * An engine refactor must leave every pin unchanged. The model's float
 * bits depend on the GEMM tier, so the pins hold only under the tier
 * they were recorded with, and only on x86-64 (see server_node_test).
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/crc32c.hpp"
#include "core/engine.hpp"
#include "core/workloads.hpp"
#include "fault/fault_plan.hpp"
#include "net/trace_generator.hpp"
#include "tensor/gemm.hpp"

namespace rog {
namespace core {
namespace {

#if defined(__x86_64__)

constexpr tensor::gemm::Tier kPinnedTier = tensor::gemm::Tier::Avx512;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kIterations = 12;

CrudaWorkloadConfig
tinyCruda()
{
    CrudaWorkloadConfig cfg;
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

NetworkSetup
unstableNetwork()
{
    NetworkSetup net;
    const auto model = net::TraceModel::outdoor(20e3);
    for (std::size_t i = 0; i < kWorkers; ++i)
        net.link_traces.push_back(
            net::generateTrace(model, 120.0, 31 + i * 1000));
    return net;
}

struct EnginePin
{
    const char *label;
    std::uint64_t sim_seconds_bits;
    std::uint64_t total_bytes_bits;
    std::size_t worker_iterations[kWorkers];
    std::uint32_t final_model_crc;
};

/**
 * CRC32C of the final replicas. Each serialized replica ends in the
 * CRC of its own payload, and a CRC taken over a message followed by
 * its own CRC depends only on the message length (the CRC residue), so
 * a plain CRC of final_model_bytes would not see the weights at all.
 * The 4-byte trailers are therefore left out of the chained CRC.
 */
std::uint32_t
replicasCrc(const std::string &final_model_bytes)
{
    EXPECT_EQ(final_model_bytes.size() % kWorkers, 0u);
    const std::size_t replica = final_model_bytes.size() / kWorkers;
    EXPECT_GT(replica, 4u);
    const auto *data =
        reinterpret_cast<const std::uint8_t *>(final_model_bytes.data());
    std::uint32_t crc = 0;
    for (std::size_t w = 0; w < kWorkers; ++w)
        crc = crc32c({data + w * replica, replica - 4}, crc);
    return crc;
}

void
expectPin(const RunResult &res, const EnginePin &pin)
{
    SCOPED_TRACE(pin.label);
    const std::uint32_t crc = replicasCrc(res.final_model_bytes);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.sim_seconds),
              pin.sim_seconds_bits)
        << std::hex << std::bit_cast<std::uint64_t>(res.sim_seconds);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.total_bytes),
              pin.total_bytes_bits)
        << std::hex << std::bit_cast<std::uint64_t>(res.total_bytes);
    ASSERT_EQ(res.worker_iterations.size(), kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w)
        EXPECT_EQ(res.worker_iterations[w], pin.worker_iterations[w])
            << "worker " << w;
    EXPECT_EQ(crc, pin.final_model_crc) << std::hex << crc;
}

RunResult
runPreset(const SystemConfig &system, const fault::FaultPlan *plan,
          const std::string &checkpoint_path)
{
    CrudaWorkload workload(tinyCruda());
    EngineConfig cfg;
    cfg.system = system;
    cfg.iterations = kIterations;
    cfg.eval_every = 4;
    cfg.capture_final_model = true;
    cfg.fault_plan = plan;
    cfg.checkpoint_path = checkpoint_path;
    return runDistributedTraining(workload, cfg, unstableNetwork());
}

TEST(EngineFingerprint, FaultFreeSystems)
{
    if (tensor::gemm::activeTier() != kPinnedTier)
        GTEST_SKIP() << "pins recorded under GEMM tier "
                     << tensor::gemm::tierName(kPinnedTier);
    const struct
    {
        SystemConfig system;
        EnginePin pin;
    } cases[] = {
        {SystemConfig::bsp(),
         {"bsp", 0x4042aafe034ec6b6ull, 0x40dce5ffffffffc1ull,
          {12, 12, 12}, 0x106e749fu}},
        {SystemConfig::ssp(4),
         {"ssp4", 0x40418c061dc68578ull, 0x40dce5ffffffff84ull,
          {12, 12, 12}, 0xc79712b2u}},
        {SystemConfig::flownSystem(),
         {"flown", 0x404197ebb691017bull, 0x40dce5ffffffff8dull,
          {12, 12, 12}, 0x7391dc0eu}},
        {SystemConfig::rog(4),
         {"rog4", 0x4041061ad3f8a4a7ull, 0x40e32f3a7808d729ull,
          {12, 12, 12}, 0x6511eecdu}},
    };
    for (const auto &c : cases)
        expectPin(runPreset(c.system, nullptr, ""), c.pin);
}

TEST(EngineFingerprint, RogUnderEveryHonouredFault)
{
    if (tensor::gemm::activeTier() != kPinnedTier)
        GTEST_SKIP() << "pins recorded under GEMM tier "
                     << tensor::gemm::tierName(kPinnedTier);
    const auto plan = fault::FaultPlan::parse(
        "truncate link=1 at=3 bytes=1500\n"
        "blackout link=0 start=5 dur=3\n"
        "timeout  link=2 at=9 after=0.3\n"
        "crash    worker=1 at=12 rejoin=18 detect=2\n"
        "leave    worker=2 at=26\n"
        "server_crash iter=6\n");
    const std::string path =
        testing::TempDir() + "rog_engine_fingerprint.rogs";
    const RunResult res = runPreset(SystemConfig::rog(4), &plan, path);
    std::remove(path.c_str());
    EXPECT_EQ(res.recoveries.size(), 1u);
    EXPECT_GT(res.checkpoints_written, 0u);
    expectPin(res, {"rog4+faults", 0x4041c7fb90b84147ull,
                    0x40e0ecf2c33c4838ull, {12, 12, 10}, 0x3b1f96f1u});
}

#endif // __x86_64__

} // namespace
} // namespace core
} // namespace rog
