/**
 * @file
 * Fabric: the session layer's view of "a network of nodes".
 *
 * A Fabric is what one node (a worker or the server) holds: its own
 * clock and timers, plus keyed reliable messaging to peers. There are
 * two implementations — DesFabricNet hands every node a port on one
 * shared discrete-event simulation, SocketFabric gives a node real
 * UDP sockets on its own PollLoop — and the node engine code on
 * top (node_engine.hpp) is written against this interface only, so
 * the exact same worker and server logic runs in-process under DES
 * and across processes over loopback sockets. That is the paper's
 * correctness argument in code: the DES run is the twin the chaos
 * harness compares real-socket runs against.
 *
 * Reliability contract: sendTo() hands the payload to a ReliableLink —
 * chunked, CRC-framed, retried with capped exponential backoff, and
 * delivered exactly once per MessageKey at the receiver. done(true)
 * means the peer's transport accepted the full message; done(false)
 * means the deadline expired or the link failed permanently. Messages
 * to one peer may complete out of order (distinct keys are independent
 * streams).
 */
#ifndef ROG_NET_SESSION_FABRIC_HPP
#define ROG_NET_SESSION_FABRIC_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "net/transport/event_log.hpp"

namespace rog {
namespace net {
namespace session {

/** Opaque timer handle (0 = invalid / already fired). */
using FabricTimer = std::uint64_t;

class Fabric
{
  public:
    /** A complete message arrived from some peer. */
    using MessageHandler = std::function<void(
        const transport::MessageKey &, std::vector<std::uint8_t> &&)>;
    /** Send completion: true = delivered into the peer's transport. */
    using SendDone = std::function<void(bool)>;

    virtual ~Fabric() = default;

    /** This node's id (kServerNode or workerNode(w)). */
    virtual int nodeId() const = 0;

    virtual double now() const = 0;
    virtual FabricTimer after(double delay_s,
                              std::function<void()> fire) = 0;
    virtual void cancelTimer(FabricTimer id) = 0;

    /**
     * Open (or replace) the outgoing link to @p peer. Replacing tears
     * down any prior link and its in-flight sends — the reconnect
     * path after a peer restart. DES fabrics ignore host/port.
     */
    virtual bool connectPeer(int peer, const std::string &host,
                             std::uint16_t port) = 0;

    virtual bool hasPeer(int peer) const = 0;

    /** False once the link reports a permanent socket error. */
    virtual bool peerHealthy(int peer) const = 0;

    /** Drop the link and abandon its in-flight sends. */
    virtual void dropPeer(int peer) = 0;

    /**
     * Abort every in-flight send to @p peer (their @p done callbacks
     * fire with false). Call on epoch change: a peer that restarted
     * came back with fresh receiver state, so nothing sent to the old
     * one is worth finishing.
     */
    virtual void resetPeer(int peer) { (void)peer; }

    /**
     * Reliably send @p payload keyed by @p key. @p deadline_s is
     * absolute (kNoDeadline = retry forever). @p done may fire inline.
     */
    virtual void sendTo(int peer, const transport::MessageKey &key,
                        std::span<const std::uint8_t> payload,
                        double deadline_s, SendDone done) = 0;

    virtual void setMessageHandler(MessageHandler handler) = 0;

    /** Socket fabrics: the bound receiver port. DES fabrics: 0. */
    virtual std::uint16_t listenPort() const { return 0; }
};

} // namespace session
} // namespace net
} // namespace rog

#endif // ROG_NET_SESSION_FABRIC_HPP
