/**
 * @file
 * SocketFabric: one node's Fabric over real UDP sockets.
 *
 * The process-local half of the session layer: a receiver endpoint
 * (bound port, delivery sink wired to the message handler) plus one
 * {backend, ReliableLink} pair per connected peer, all driven by the
 * caller's PollLoop. connectPeer() replaces any existing pair — that
 * is the reconnect path after this node notices a peer restart —
 * while the receiver endpoint (and with it the exactly-once decision
 * state) lives for the fabric's whole lifetime, so a reconnecting
 * peer's retransmits are still deduped. That state grows only by one
 * small payload-free record per delivered message key: each payload
 * is moved up to the message handler exactly once and nothing else of
 * the message is kept. The receiver's event log is streamed to a sink
 * the caller attaches, and is not recorded at all without one.
 *
 * A faulty plan gives each peer one fault injector, made at its first
 * connect and kept for the fabric's lifetime: a reconnect continues
 * that peer's fate stream instead of replaying its first fates.
 */
#ifndef ROG_NET_SESSION_SOCKET_FABRIC_HPP
#define ROG_NET_SESSION_SOCKET_FABRIC_HPP

#include <map>
#include <memory>

#include "common/poll_loop.hpp"
#include "net/session/fabric.hpp"
#include "net/transport/reliable_link.hpp"
#include "net/transport/socket_backend.hpp"
#include "net/transport/socket_fault.hpp"

namespace rog {
namespace net {
namespace session {

/** Everything a SocketFabric needs beyond the poll loop. */
struct SocketFabricOptions
{
    /** Always "udp"; kept only for callers that still set it. */
    std::string kind = "udp";
    transport::TransportConfig transport;
    transport::SocketOptions socket;
    /** Applied to every outgoing peer link. A clean plan installs no
     *  injector. */
    transport::SocketFaultPlan fault_plan;
    std::uint16_t listen_port = 0; //!< 0 = ephemeral.
};

class SocketFabric : public Fabric
{
  public:
    SocketFabric(PollLoop &loop, int node,
                 const SocketFabricOptions &opts);
    ~SocketFabric() override;

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
    std::uint16_t listenPort() const override;

    /** Stream the receiver endpoint's structured event log (for
     *  artifact dumps and the chaos invariant checker). */
    void setReceiverEventSink(transport::EventSink sink);

    bool ok() const;
    const std::string &error() const;

  private:
    struct Peer
    {
        std::unique_ptr<transport::UdpBackend> backend;
        std::unique_ptr<transport::ReliableLink> link;
    };

    PollLoop &loop_;
    int node_ = 0;
    SocketFabricOptions opts_;
    MessageHandler handler_;
    transport::UdpReceiverEndpoint rx_;
    /** One fate stream per peer, across reconnects; declared before
     *  peers_ so it outlives every backend that points at it. */
    std::map<int, transport::SocketFaultInjector> faults_;
    std::map<int, Peer> peers_;
    std::string last_error_;
};

} // namespace session
} // namespace net
} // namespace rog

#endif // ROG_NET_SESSION_SOCKET_FABRIC_HPP
