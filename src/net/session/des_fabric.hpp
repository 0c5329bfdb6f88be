/**
 * @file
 * DesFabricNet: every node's Fabric backed by one shared simulation.
 *
 * The in-process correctness twin of SocketFabric. All nodes share a
 * sim::Simulation; each directed (src, dst) pair lazily gets its own
 * simulated Channel, DesBackend and ReliableLink, so per-pair sender
 * state (in-flight sends, retry backoff) matches the socket topology
 * one-to-one. So does the receiver: each pair's DesBackend runs the
 * FrameReceiver a socket endpoint runs, which dedups per message key
 * until the destination restarts (restartReceivers). Delivery works as
 * on sockets: the pair's DesBackend moves the reassembled bytes to the
 * destination node's message handler at the frame that completes the
 * message, before the sender's completion runs, at that simulation
 * time. The links record no transport events.
 *
 * Determinism: everything runs on the simulation clock; a given seed
 * and plan produce bit-identical traffic, which is what the chaos
 * harness diffs real-socket runs against.
 */
#ifndef ROG_NET_SESSION_DES_FABRIC_HPP
#define ROG_NET_SESSION_DES_FABRIC_HPP

#include <map>
#include <memory>

#include "net/channel.hpp"
#include "net/session/fabric.hpp"
#include "net/transport/des_backend.hpp"
#include "net/transport/reliable_link.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace session {

class DesFabricNet;

/** One node's view of the shared simulated network. */
class DesFabric : public Fabric
{
  public:
    int nodeId() const override { return node_; }
    double now() const override;
    FabricTimer after(double delay_s, std::function<void()> fire) override;
    void cancelTimer(FabricTimer id) override;
    bool connectPeer(int peer, const std::string &host,
                     std::uint16_t port) override;
    bool hasPeer(int peer) const override;
    bool peerHealthy(int peer) const override;
    void dropPeer(int peer) override;
    void resetPeer(int peer) override;
    void sendTo(int peer, const transport::MessageKey &key,
                std::span<const std::uint8_t> payload, double deadline_s,
                SendDone done) override;
    void setMessageHandler(MessageHandler handler) override;

  private:
    friend class DesFabricNet;
    DesFabric(DesFabricNet &net, int node) : net_(net), node_(node) {}

    DesFabricNet &net_;
    int node_ = 0;
    MessageHandler handler_;
    std::map<FabricTimer, sim::EventId> timers_;
    FabricTimer next_timer_ = 1;
};

/** The shared network: owns the simulation references and all links. */
class DesFabricNet
{
  public:
    /**
     * @param sim        shared simulation (must outlive the net).
     * @param rate_bps   per-pair constant channel bandwidth.
     * @param cfg        transport config for every link.
     */
    DesFabricNet(sim::Simulation &sim, double rate_bps,
                 const transport::TransportConfig &cfg);
    ~DesFabricNet();

    /** Get (create on first use) node @p node's fabric. */
    DesFabric &node(int node);

    /**
     * Node @p node's process restarted: every pair into it drops its
     * receiver state, as a restarted socket node comes back with a
     * fresh receiver endpoint.
     */
    void restartReceivers(int node);

    sim::Simulation &sim() { return sim_; }

  private:
    friend class DesFabric;

    struct Pair
    {
        std::unique_ptr<Channel> channel;
        std::unique_ptr<transport::DesBackend> backend;
        std::unique_ptr<transport::ReliableLink> link;
        bool healthy = true;
    };

    /** Get (create on first use) the directed src -> dst pair. */
    Pair &pair(int src, int dst);

    sim::Simulation &sim_;
    double rate_bps_ = 0.0;
    transport::TransportConfig cfg_;
    std::map<int, std::unique_ptr<DesFabric>> nodes_;
    std::map<std::pair<int, int>, Pair> pairs_;
    std::uint64_t next_jitter_seed_ = 1;
};

} // namespace session
} // namespace net
} // namespace rog

#endif // ROG_NET_SESSION_DES_FABRIC_HPP
