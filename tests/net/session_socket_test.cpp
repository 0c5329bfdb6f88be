/**
 * @file
 * The full node engine over real sockets, in one process: server and
 * worker SocketFabrics share a PollLoop, and the identical engine
 * code that the DES twin runs (session_test.cpp) trains over loopback
 * UDP. A faulty variant rides seeded wire perturbation through the
 * same path to show the session survives datagram loss and
 * truncation, and a reconnect continues its peer's fault stream.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "common/poll_loop.hpp"
#include "core/node_engine.hpp"
#include "core/node_runner.hpp"
#include "net/session/socket_fabric.hpp"

namespace rog {
namespace net {
namespace session {
namespace {

struct FleetSpec
{
    std::size_t workers = 2;
    std::int64_t iters = 3;
    const transport::SocketFaultPlan *faults = nullptr;
};

void
runFleet(const FleetSpec &spec)
{
    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = spec.workers;
    core::NodeTrainConfig train = cfg.train;
    train.max_iters = spec.iters;
    train.worker_state_dir.clear();
    train.checkpoint_path.clear();

    std::unique_ptr<core::Workload> workload =
        core::makeNodeWorkload(cfg);

    PollLoop loop;
    SocketFabricOptions sopts;
    sopts.transport = cfg.transport;
    sopts.socket = cfg.socket;
    SocketFabric server_fabric(loop, kServerNode, sopts);
    ASSERT_TRUE(server_fabric.ok()) << server_fabric.error();

    core::ServerNode server(server_fabric, *workload, train);
    server.start();
    const std::uint16_t port = server_fabric.listenPort();
    ASSERT_NE(port, 0);

    std::vector<std::unique_ptr<SocketFabric>> fabrics;
    std::vector<std::unique_ptr<core::WorkerNode>> workers;
    for (std::size_t w = 0; w < spec.workers; ++w) {
        SocketFabricOptions wopts = sopts;
        if (spec.faults != nullptr)
            wopts.fault_plan = *spec.faults;
        fabrics.push_back(std::make_unique<SocketFabric>(
            loop, workerNode(w), wopts));
        ASSERT_TRUE(fabrics.back()->ok()) << fabrics.back()->error();
        workers.push_back(std::make_unique<core::WorkerNode>(
            *fabrics.back(), *workload, train, w,
            core::WorkerResumeState{}));
        workers.back()->start("127.0.0.1", port);
    }

    // The server flips done() on the last Bye; keep polling until the
    // workers have also seen their Bye acks and left Phase::Leaving.
    const auto all_done = [&] {
        if (!server.done())
            return false;
        for (const auto &w : workers)
            if (!w->done())
                return false;
        return true;
    };
    ASSERT_TRUE(loop.runUntil(all_done, 30.0))
        << "fleet did not finish; min iter "
        << server.minWorkerIteration();
    for (auto &w : workers)
        EXPECT_TRUE(w->done());
    EXPECT_TRUE(std::isfinite(server.evaluateModel()));
    EXPECT_GT(server.appliedPushes(), 0u);
}

TEST(SessionSocket, UdpFleetTrainsToCompletion)
{
    runFleet(FleetSpec{});
}

/**
 * Delegates to a real SocketFabric but can veto connectPeer — the
 * deterministic stand-in for a return connect that fails (worker
 * receiver gone, fd exhaustion, refused port).
 */
class VetoConnectFabric : public Fabric
{
  public:
    explicit VetoConnectFabric(SocketFabric &inner) : inner_(inner) {}
    bool veto = false;

    int nodeId() const override { return inner_.nodeId(); }
    double now() const override { return inner_.now(); }
    FabricTimer
    after(double d, std::function<void()> f) override
    {
        return inner_.after(d, std::move(f));
    }
    void cancelTimer(FabricTimer id) override { inner_.cancelTimer(id); }
    bool
    connectPeer(int p, const std::string &h, std::uint16_t port) override
    {
        return !veto && inner_.connectPeer(p, h, port);
    }
    bool hasPeer(int p) const override { return inner_.hasPeer(p); }
    bool peerHealthy(int p) const override
    {
        return inner_.peerHealthy(p);
    }
    void dropPeer(int p) override { inner_.dropPeer(p); }
    void
    sendTo(int p, const transport::MessageKey &k,
           std::span<const std::uint8_t> b, double d,
           SendDone done) override
    {
        inner_.sendTo(p, k, b, d, std::move(done));
    }
    void
    setMessageHandler(MessageHandler h) override
    {
        inner_.setMessageHandler(std::move(h));
    }
    std::uint16_t listenPort() const override
    {
        return inner_.listenPort();
    }

  private:
    SocketFabric &inner_;
};

TEST(SessionSocket, UdpServerSurvivesHelloWhenReturnConnectFails)
{
    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = 1;
    core::NodeTrainConfig train = cfg.train;
    train.worker_state_dir.clear();
    train.checkpoint_path.clear();

    std::unique_ptr<core::Workload> workload =
        core::makeNodeWorkload(cfg);

    PollLoop loop;
    SocketFabricOptions sopts;
    sopts.transport = cfg.transport;
    sopts.socket = cfg.socket;
    SocketFabric server_socket(loop, kServerNode, sopts);
    ASSERT_TRUE(server_socket.ok()) << server_socket.error();
    VetoConnectFabric server_fabric(server_socket);
    core::ServerNode server(server_fabric, *workload, train);
    server.start();

    // Hand-roll the worker half of the handshake so the Hello can
    // arrive while the server's return connect is failing.
    SocketFabric ghost(loop, workerNode(0), sopts);
    ASSERT_TRUE(ghost.ok()) << ghost.error();
    ASSERT_TRUE(ghost.connectPeer(kServerNode, "127.0.0.1",
                                  server_socket.listenPort()));
    bool welcomed = false;
    ghost.setMessageHandler(
        [&](const MessageKey &k, std::vector<std::uint8_t> &&) {
            if (k.row == kRowWelcome)
                welcomed = true;
        });

    // The server must drop the handshake — not panic inside sendTo on
    // the missing peer (the SIGKILL-right-after-Hello crash).
    server_fabric.veto = true;
    Hello h;
    h.worker = 0;
    h.epoch = train.epoch;
    h.nonce = 99;
    h.rx_port = ghost.listenPort();
    MessageKey key{0, packVersion(1, 0), kRowHello, false};
    ghost.sendTo(kServerNode, key, encode(h), loop.now() + 5.0, {});
    ASSERT_TRUE(loop.runUntil(
        [&] { return server.sessions().admissions() >= 1; }, 5.0));
    loop.runUntil([] { return false; }, 0.05); // let any Welcome land.
    EXPECT_FALSE(welcomed);

    // The connect recovers: the worker's Hello retry re-triggers
    // admission and the answered Welcome reaches its receiver.
    server_fabric.veto = false;
    h.nonce = 100;
    MessageKey retry{0, packVersion(1, 1), kRowHello, false};
    ghost.sendTo(kServerNode, retry, encode(h), loop.now() + 5.0, {});
    EXPECT_TRUE(loop.runUntil([&] { return welcomed; }, 5.0));
    EXPECT_GE(server.sessions().admissions(), 2u);
}

TEST(SessionSocket, UdpFleetSurvivesSeededWireFaults)
{
    transport::SocketFaultPlan plan;
    plan.seed = 31;
    plan.drop_p = 0.1;
    plan.dup_p = 0.05;
    plan.trunc_p = 0.1;
    plan.corrupt_p = 0.05;
    FleetSpec spec;
    spec.iters = 2;
    spec.faults = &plan;
    runFleet(spec);
}

/**
 * A reconnect continues the peer's fault stream: the fabric keeps one
 * injector per peer, so the socket a reconnect builds sees the plan's
 * next fate, not its first one again.
 */
TEST(SessionSocket, ReconnectContinuesThePeersFaultStream)
{
    // A seed whose first fate toward the server drops and whose second
    // does not; SocketFabric derives each peer's seed this way.
    transport::SocketFaultPlan plan;
    plan.drop_p = 0.5;
    const auto dropsOnlyFirst = [&plan](std::uint64_t seed) {
        transport::SocketFaultPlan peer = plan;
        peer.seed = seed * 1000003u + static_cast<std::uint64_t>(kServerNode);
        transport::SocketFaultInjector probe(peer);
        const bool first = probe.next().drop;
        return first && !probe.next().drop;
    };
    for (plan.seed = 1; !dropsOnlyFirst(plan.seed); ++plan.seed)
        ASSERT_LT(plan.seed, 1000u);

    PollLoop loop;
    SocketFabric receiver(loop, kServerNode, SocketFabricOptions{});
    ASSERT_TRUE(receiver.ok()) << receiver.error();
    std::size_t handed_up = 0;
    receiver.setMessageHandler(
        [&handed_up](const MessageKey &, std::vector<std::uint8_t> &&) {
            ++handed_up;
        });

    SocketFabricOptions sopts;
    sopts.transport.max_attempts_per_chunk = 1;
    sopts.socket.ack_timeout_s = 0.05;
    sopts.fault_plan = plan;
    SocketFabric sender(loop, workerNode(0), sopts);
    ASSERT_TRUE(sender.ok()) << sender.error();

    // One attempt per send; each send runs on a freshly connected
    // socket.
    const auto sendOnce = [&](std::int64_t version) {
        EXPECT_TRUE(sender.connectPeer(kServerNode, "127.0.0.1",
                                       receiver.listenPort()));
        std::optional<bool> done;
        sender.sendTo(kServerNode, MessageKey{0, version, 7, false},
                      std::vector<std::uint8_t>(100, 1), loop.now() + 5.0,
                      [&done](bool ok) { done = ok; });
        EXPECT_TRUE(loop.runUntil([&] { return done.has_value(); }, 5.0));
        return done.value_or(false);
    };
    EXPECT_FALSE(sendOnce(1)); // the first fate drops it.
    EXPECT_TRUE(sendOnce(2));  // the second fate, not the first again.
    EXPECT_EQ(handed_up, 1u);
}

} // namespace
} // namespace session
} // namespace net
} // namespace rog
