#include "net/session/socket_fabric.hpp"

#include "common/logging.hpp"

namespace rog {
namespace net {
namespace session {

using transport::MessageKey;
using transport::SendResult;

SocketFabric::SocketFabric(PollLoop &loop, int node,
                           const SocketFabricOptions &opts)
    : loop_(loop), node_(node), opts_(opts),
      rx_(loop_, opts_.listen_port,
          [this](const MessageKey &key, std::vector<std::uint8_t> &&bytes) {
              if (handler_)
                  handler_(key, std::move(bytes));
          },
          opts_.socket.bind_retry_window_s)
{
    ROG_ASSERT(opts_.kind == "udp", "unknown socket fabric kind");
}

SocketFabric::~SocketFabric() = default;

double
SocketFabric::now() const
{
    return loop_.now();
}

FabricTimer
SocketFabric::after(double delay_s, std::function<void()> fire)
{
    return loop_.after(delay_s, std::move(fire));
}

void
SocketFabric::cancelTimer(FabricTimer id)
{
    loop_.cancel(id);
}

bool
SocketFabric::connectPeer(int peer, const std::string &host,
                          std::uint16_t port)
{
    // Replace wholesale: a reconnect abandons the old socket and its
    // in-flight sends (their done callbacks already fired false or
    // will be dropped with the backend).
    peers_.erase(peer);
    transport::SocketFaultInjector *faults = nullptr;
    if (!opts_.fault_plan.clean()) {
        auto it = faults_.find(peer);
        if (it == faults_.end()) {
            transport::SocketFaultPlan plan = opts_.fault_plan;
            // Decorrelate per-peer fault streams deterministically.
            plan.seed = plan.seed * 1000003u + static_cast<std::uint64_t>(peer);
            it = faults_.emplace(peer, plan).first;
        }
        faults = &it->second;
    }
    Peer p;
    p.backend = std::make_unique<transport::UdpBackend>(
        loop_, host, port, opts_.socket, faults);
    if (!p.backend->ok()) {
        last_error_ = p.backend->error();
        return false;
    }
    p.link = std::make_unique<transport::ReliableLink>(*p.backend,
                                                       opts_.transport);
    peers_.emplace(peer, std::move(p));
    return true;
}

bool
SocketFabric::hasPeer(int peer) const
{
    return peers_.count(peer) != 0;
}

bool
SocketFabric::peerHealthy(int peer) const
{
    auto it = peers_.find(peer);
    return it != peers_.end() && it->second.backend->ok();
}

void
SocketFabric::dropPeer(int peer)
{
    peers_.erase(peer);
}

void
SocketFabric::resetPeer(int peer)
{
    // The remote restarted with fresh receiver state. Abort in-flight
    // sends (their done callbacks fire false), then tear the socket
    // down; the caller reconnects.
    auto it = peers_.find(peer);
    if (it == peers_.end())
        return;
    if (it->second.link)
        it->second.link->reset();
    peers_.erase(it);
}

void
SocketFabric::sendTo(int peer, const MessageKey &key,
                     std::span<const std::uint8_t> payload,
                     double deadline_s, SendDone done)
{
    auto it = peers_.find(peer);
    ROG_ASSERT(it != peers_.end(), "sendTo before connectPeer");
    it->second.link->startSend(
        0, key, payload, deadline_s,
        [done = std::move(done)](SendResult r) {
            if (done)
                done(r.delivered);
        });
}

void
SocketFabric::setMessageHandler(MessageHandler handler)
{
    handler_ = std::move(handler);
}

std::uint16_t
SocketFabric::listenPort() const
{
    return rx_.port();
}

void
SocketFabric::setReceiverEventSink(transport::EventSink sink)
{
    rx_.setEventSink(std::move(sink));
}

bool
SocketFabric::ok() const
{
    return last_error_.empty() && rx_.ok();
}

const std::string &
SocketFabric::error() const
{
    return !last_error_.empty() ? last_error_ : rx_.error();
}

} // namespace session
} // namespace net
} // namespace rog
