/**
 * @file
 * SocketFabric: one node's Fabric over real UDP or TCP sockets.
 *
 * The process-local half of the session layer: a receiver endpoint
 * (bound port, delivery sink wired to the message handler) plus one
 * {fault injector?, backend, ReliableLink} trio per connected peer,
 * all driven by the caller's PollLoop. connectPeer() replaces any
 * existing trio — that is the reconnect path after this node notices
 * a peer restart — while the receiver endpoint (and with
 * it the exactly-once decision state) lives for the fabric's whole
 * lifetime, so a reconnecting peer's retransmits are still deduped.
 * That state grows only by one small payload-free record per
 * delivered message key: each payload is moved up to the message
 * handler exactly once and nothing else of the message is kept. The
 * receiver's event log is streamed to a sink the caller attaches, and
 * is not recorded at all without one.
 *
 * Backend choice is by kind string ("udp" | "tcp"), read once at
 * construction; nothing above this class branches on it.
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
    std::string kind = "udp"; //!< "udp" or "tcp".
    transport::TransportConfig transport;
    transport::SocketOptions socket;
    /** Applied to every outgoing peer link (UDP only; TCP's stream
     *  semantics make datagram-style faults meaningless). A clean
     *  plan installs no injector. */
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
        std::unique_ptr<transport::SocketFaultInjector> faults;
        std::unique_ptr<transport::SocketSenderBase> backend;
        std::unique_ptr<transport::ReliableLink> link;
    };

    PollLoop &loop_;
    int node_ = 0;
    SocketFabricOptions opts_;
    MessageHandler handler_;
    std::unique_ptr<transport::ReceiverEndpointBase> rx_;
    std::uint16_t port_ = 0;
    std::map<int, Peer> peers_;
    std::string last_error_;
};

} // namespace session
} // namespace net
} // namespace rog

#endif // ROG_NET_SESSION_SOCKET_FABRIC_HPP
