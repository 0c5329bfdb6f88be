/**
 * @file
 * ServerNode, the parameter-server node role, over the DES fabric:
 * pinned end-to-end fingerprints of the DES twin, checkpoint restore
 * edge cases, whole-message validation of a push, the message count
 * of one worker-iteration and the one apply record per push.
 */
#include <sys/stat.h>

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/crc32c.hpp"
#include "core/flat_model.hpp"
#include "core/node_engine.hpp"
#include "core/node_event.hpp"
#include "core/node_runner.hpp"
#include "core/row_partition.hpp"
#include "core/server_checkpoint.hpp"
#include "net/session/des_fabric.hpp"
#include "net/transport/backend.hpp"
#include "sim/simulation.hpp"
#include "tensor/gemm.hpp"

namespace rog {
namespace core {
namespace {

using net::transport::MessageKey;

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

/**
 * A ServerNode on the DES fabric with worker 0 admitted by hand: the
 * test plays the worker, so it can send pushes no WorkerNode would.
 */
class ServerPush : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        train_.worker_state_dir.clear();
        train_.checkpoint_path.clear();
        server_ = std::make_unique<ServerNode>(
            net_.node(net::session::kServerNode), *workload_, train_);
        server_->start();
        worker_.connectPeer(net::session::kServerNode, "des", 0);
        worker_.setMessageHandler(
            [this](const MessageKey &key, std::vector<std::uint8_t> &&b) {
                net::session::Welcome w;
                if (key.row == net::session::kRowWelcome &&
                    net::session::parse(b, w))
                    session_ = w.session;
            });
        net::session::Hello h;
        h.epoch = train_.epoch;
        h.nonce = 1;
        send({0, net::session::packVersion(0, 1), net::session::kRowHello,
              false},
             net::session::encode(h));
        ASSERT_NE(session_, 0u);
    }

    void
    send(const MessageKey &key, const std::vector<std::uint8_t> &bytes)
    {
        worker_.sendTo(net::session::kServerNode, key, bytes,
                       net::transport::kNoDeadline, {});
        sim_.runUntil(sim_.now() + 0.05);
    }

    /** Worker 0's push of iteration 1 under @p scope. */
    void
    push(const std::vector<std::uint8_t> &bytes, std::uint32_t scope)
    {
        send({0, net::session::packVersion(scope, 1),
              net::session::kRowPush, false},
             bytes);
    }

    /** Every unit at its width, then unit @p extra_unit at
     *  @p extra_width as the last entry (none at width 0). */
    std::vector<std::uint8_t>
    allUnitsThen(std::uint32_t extra_unit, std::size_t extra_width)
    {
        std::vector<std::uint8_t> bytes;
        net::session::UnitListWriter w =
            net::session::UnitListWriter::push(bytes, 1);
        for (std::size_t u = 0; u < partition_.unitCount(); ++u)
            w.add(static_cast<std::uint32_t>(u),
                  std::vector<float>(partition_.unit(u).width, 0.01f));
        if (extra_width > 0)
            w.add(extra_unit, std::vector<float>(extra_width, 0.01f));
        return bytes;
    }

    NodeRunConfig cfg_ = chaosRunDefaults();
    NodeTrainConfig train_ = cfg_.train;
    std::unique_ptr<Workload> workload_ = makeNodeWorkload(cfg_);
    std::unique_ptr<nn::Model> model_ = workload_->buildReplica();
    FlatModel flat_{*model_};
    RowPartition partition_{flat_, train_.granularity};
    sim::Simulation sim_;
    net::session::DesFabricNet net_{sim_, 4.0e6,
                                    net::transport::TransportConfig{}};
    net::session::DesFabric &worker_ =
        net_.node(net::session::workerNode(0));
    std::unique_ptr<ServerNode> server_;
    std::uint32_t session_ = 0;
};

TEST_F(ServerPush, OneMessageAppliesEveryUnit)
{
    push(allUnitsThen(0, 0), session_);
    EXPECT_EQ(server_->appliedPushes(), partition_.unitCount());
    EXPECT_EQ(server_->duplicatePushes(), 0u);
}

// In each invalid push the bad entry comes last, after every valid
// unit: a server that applied while validating would apply them all.
TEST_F(ServerPush, UnitOutOfRangeAppliesNothing)
{
    push(allUnitsThen(static_cast<std::uint32_t>(partition_.unitCount()),
                      1),
         session_);
    EXPECT_EQ(server_->appliedPushes(), 0u);
    EXPECT_EQ(server_->duplicatePushes(), 0u);
}

TEST_F(ServerPush, WidthMismatchAppliesNothing)
{
    std::vector<std::uint8_t> bytes;
    net::session::UnitListWriter w =
        net::session::UnitListWriter::push(bytes, 1);
    for (std::size_t u = 0; u < partition_.unitCount(); ++u) {
        const std::size_t width = partition_.unit(u).width +
                                  (u + 1 == partition_.unitCount() ? 1 : 0);
        w.add(static_cast<std::uint32_t>(u),
              std::vector<float>(width, 0.01f));
    }
    push(bytes, session_);
    EXPECT_EQ(server_->appliedPushes(), 0u);
}

TEST_F(ServerPush, RepeatedUnitAppliesNothing)
{
    push(allUnitsThen(0, partition_.unit(0).width), session_);
    EXPECT_EQ(server_->appliedPushes(), 0u);
    EXPECT_EQ(server_->duplicatePushes(), 0u);
}

TEST_F(ServerPush, StaleSessionPushIsDropped)
{
    push(allUnitsThen(0, 0), session_ + 1);
    EXPECT_EQ(server_->appliedPushes(), 0u);
    EXPECT_EQ(server_->staleDrops(), 1u);
}

/** Forwards to a node's fabric and counts its sends by key row. */
class CountingFabric : public net::session::Fabric
{
  public:
    explicit CountingFabric(net::session::Fabric &inner) : inner_(inner) {}

    int nodeId() const override { return inner_.nodeId(); }
    double now() const override { return inner_.now(); }
    net::session::FabricTimer
    after(double delay_s, std::function<void()> fire) override
    {
        return inner_.after(delay_s, std::move(fire));
    }
    void cancelTimer(net::session::FabricTimer id) override
    {
        inner_.cancelTimer(id);
    }
    bool
    connectPeer(int peer, const std::string &host,
                std::uint16_t port) override
    {
        return inner_.connectPeer(peer, host, port);
    }
    bool hasPeer(int peer) const override { return inner_.hasPeer(peer); }
    bool peerHealthy(int peer) const override
    {
        return inner_.peerHealthy(peer);
    }
    void dropPeer(int peer) override { inner_.dropPeer(peer); }
    void resetPeer(int peer) override { inner_.resetPeer(peer); }
    void
    sendTo(int peer, const MessageKey &key,
           std::span<const std::uint8_t> payload, double deadline_s,
           SendDone done) override
    {
        ++sends[key.row];
        inner_.sendTo(peer, key, payload, deadline_s, std::move(done));
    }
    void setMessageHandler(MessageHandler handler) override
    {
        inner_.setMessageHandler(std::move(handler));
    }

    std::map<std::uint32_t, std::size_t> sends; //!< by key row.

  private:
    net::session::Fabric &inner_;
};

TEST(NodeSendCount, OnePushOnePullRequestOnePullAnswerPerWorkerIteration)
{
    NodeRunConfig cfg = chaosRunDefaults();
    cfg.workers = 3;
    cfg.train.max_iters = 6;
    NodeTrainConfig train = cfg.train;
    train.worker_state_dir.clear();
    train.checkpoint_path.clear();
    std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);

    // The DES twin's topology (runDesTwin), every node's fabric
    // wrapped in a counter.
    sim::Simulation sim;
    net::session::DesFabricNet net(sim, cfg.des_rate_bps, cfg.transport);
    CountingFabric server_fabric(net.node(net::session::kServerNode));
    ServerNode server(server_fabric, *workload, train);
    server.start();
    std::vector<std::unique_ptr<CountingFabric>> fabrics;
    std::vector<std::unique_ptr<WorkerNode>> workers;
    for (std::size_t w = 0; w < cfg.workers; ++w) {
        fabrics.push_back(std::make_unique<CountingFabric>(
            net.node(net::session::workerNode(w))));
        workers.push_back(std::make_unique<WorkerNode>(
            *fabrics.back(), *workload, train, w, WorkerResumeState{}));
        workers.back()->start("des", 0);
    }
    for (double t = 0.1; !server.done() && t < 60.0; t += 0.1)
        sim.runUntil(t);
    ASSERT_TRUE(server.done());

    const std::size_t iters = static_cast<std::size_t>(train.max_iters);
    EXPECT_EQ(server.appliedPushes(),
              cfg.workers * iters * workload->buildReplica()->rowCount());
    for (std::unique_ptr<CountingFabric> &f : fabrics) {
        // Heartbeats ride a timer, not the iteration: counted apart.
        std::map<std::uint32_t, std::size_t> per_iter = f->sends;
        per_iter.erase(net::session::kRowHeartbeat);
        const std::map<std::uint32_t, std::size_t> want = {
            {net::session::kRowPush, iters},
            {net::session::kRowHello, 1},
            {net::session::kRowPullReq, iters},
            {net::session::kRowBye, 1},
        };
        EXPECT_EQ(per_iter, want);
    }
    const std::map<std::uint32_t, std::size_t> want_server = {
        {net::session::kRowWelcome, cfg.workers},
        {net::session::kRowPullData, cfg.workers * iters},
    };
    EXPECT_EQ(server_fabric.sends, want_server);
}

// The server writes one `apply` record per push message that applied
// a unit, listing the units; expanded, the records are exactly the
// (w, iter, unit) triples appliedPushes counts, each once.
TEST(ServerApplyRecord, DesTwinWritesOneRecordPerAppliedPush)
{
    NodeRunConfig cfg = chaosRunDefaults();
    cfg.workers = 4;
    cfg.train.max_iters = 6;
    cfg.run_timeout_s = 300.0; // simulated seconds.
    cfg.artifact_dir = testing::TempDir() + "rog_apply_record";
    ::mkdir(cfg.artifact_dir.c_str(), 0755);
    const std::string log_path = cfg.artifact_dir + "/des_twin.log";
    // Twice into one directory: the second run's log replaces the
    // first's.
    ASSERT_TRUE(runDesTwin(cfg).done);
    const DesTwinResult res = runDesTwin(cfg);
    ASSERT_TRUE(res.done);

    const NodeLogReadResult log = readNodeLog(log_path);
    ASSERT_TRUE(log.ok()) << log.error;
    std::size_t records = 0;
    std::size_t listed = 0;
    std::set<std::tuple<std::size_t, std::int64_t, std::size_t>> triples;
    for (const NodeEvent &ev : log.events) {
        EXPECT_NE(ev.kind, NodeEvent::Kind::DupPush);
        if (ev.kind != NodeEvent::Kind::Apply)
            continue;
        ++records;
        listed += ev.unit_list.size();
        for (const std::size_t unit : ev.unit_list)
            triples.emplace(ev.w, ev.iter, unit);
    }
    EXPECT_EQ(records, 24u);
    EXPECT_EQ(res.applied_pushes, 528u);
    EXPECT_EQ(listed, res.applied_pushes);

    const std::size_t units =
        makeNodeWorkload(cfg)->buildReplica()->rowCount();
    std::set<std::tuple<std::size_t, std::int64_t, std::size_t>> want;
    for (std::size_t w = 0; w < cfg.workers; ++w)
        for (std::int64_t iter = 1; iter <= cfg.train.max_iters; ++iter)
            for (std::size_t unit = 0; unit < units; ++unit)
                want.emplace(w, iter, unit);
    EXPECT_EQ(triples, want);
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
        {2, 3, 0x404cc00000000000ull, 132u, 0x6da8105bu},
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
