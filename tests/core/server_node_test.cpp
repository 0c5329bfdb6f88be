/**
 * @file
 * ServerNode, the parameter-server node role, over the DES fabric:
 * pinned end-to-end fingerprints of the DES twin, and checkpoint
 * restore edge cases.
 */
#include <sys/stat.h>

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "core/node_engine.hpp"
#include "core/node_runner.hpp"
#include "core/server_checkpoint.hpp"
#include "net/session/des_fabric.hpp"
#include "net/transport/backend.hpp"
#include "sim/simulation.hpp"
#include "tensor/gemm.hpp"

namespace rog {
namespace core {
namespace {

/**
 * A checkpoint the server cannot take (one outbox row one float too
 * wide) must leave a wholly fresh server. Restoring the version matrix
 * before validating the outbox would leave the checkpoint's versions
 * behind, and the "fresh" server would then drop real pushes as
 * duplicates.
 */
TEST(ServerNodeTest, RejectedCheckpointLeavesNoVersionsBehind)
{
    sim::Simulation sim;
    net::session::DesFabricNet net(sim, 4.0e6,
                                   net::transport::TransportConfig{});
    NodeRunConfig cfg = chaosRunDefaults();
    cfg.workers = 2;
    NodeTrainConfig train = cfg.train;
    train.worker_state_dir.clear();
    train.checkpoint_path = testing::TempDir() + "rog_torn_restore.rogs";
    std::remove(train.checkpoint_path.c_str());
    std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);
    net::session::DesFabric &fabric = net.node(net::session::kServerNode);

    {
        ServerNode first(fabric, *workload, train);
        ASSERT_FALSE(first.recovered());
        first.checkpointNow();
    }
    ServerCheckpoint ckpt = readServerCheckpointFile(train.checkpoint_path);
    for (auto &row : ckpt.versions.versions)
        for (std::int64_t &v : row)
            v = 3;
    ckpt.server.outbox[0][0].push_back(0);
    writeServerCheckpointFile(train.checkpoint_path, ckpt);

    ServerNode second(fabric, *workload, train);
    EXPECT_FALSE(second.recovered());
    EXPECT_EQ(second.minWorkerIteration(), 0);
}

// Fingerprints of the DES twin pinned from a known-good build: the
// final model's metric bits, the applied-push count and the CRC32C of
// the server checkpoint a crashed-and-recovered run leaves behind. A
// change to the server's storage must leave every one unchanged. The
// model's float bits depend on the GEMM tier, so the pins hold only
// under the tier they were recorded with, and only on x86-64 (see
// fleet_determinism_test).
#if defined(__x86_64__)

constexpr tensor::gemm::Tier kPinnedTier = tensor::gemm::Tier::Avx512;

struct TwinPin
{
    std::size_t workers;
    std::int64_t server_crash_iter;
    std::uint64_t metric_bits;
    std::size_t applied_pushes;
    std::uint32_t checkpoint_crc; //!< unused without a crash.
};

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

TEST(ServerNodeTest, PinnedDesTwinFingerprints)
{
    if (tensor::gemm::activeTier() != kPinnedTier)
        GTEST_SKIP() << "pins recorded under GEMM tier "
                     << tensor::gemm::tierName(kPinnedTier);
    const TwinPin pins[] = {
        {2, 0, 0x404cc00000000000ull, 264u, 0u},
        {2, 3, 0x404c200000000000ull, 132u, 0x6da8105bu},
        {4, 0, 0x404e000000000000ull, 528u, 0u},
        {4, 3, 0x404e000000000000ull, 264u, 0xfbc4b070u},
    };
    for (const TwinPin &pin : pins) {
        NodeRunConfig cfg = chaosRunDefaults();
        cfg.workers = pin.workers;
        cfg.train.max_iters = 6;
        cfg.run_timeout_s = 300.0; // simulated seconds.
        cfg.server_crash_iter = pin.server_crash_iter;
        cfg.artifact_dir = testing::TempDir() + "rog_twin_pin_" +
                           std::to_string(pin.workers) + "_" +
                           std::to_string(pin.server_crash_iter);
        ::mkdir(cfg.artifact_dir.c_str(), 0755);
        SCOPED_TRACE(cfg.artifact_dir);

        const DesTwinResult res = runDesTwin(cfg);
        ASSERT_TRUE(res.done);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(res.metric),
                  pin.metric_bits)
            << std::hex << std::bit_cast<std::uint64_t>(res.metric);
        EXPECT_EQ(res.applied_pushes, pin.applied_pushes);
        if (pin.server_crash_iter > 0) {
            const std::uint32_t crc =
                fileCrc(cfg.artifact_dir + "/des_checkpoint.rogs");
            EXPECT_EQ(crc, pin.checkpoint_crc) << std::hex << crc;
        }
    }
}

#endif // __x86_64__

} // namespace
} // namespace core
} // namespace rog
