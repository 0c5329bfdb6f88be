#include "net/session/des_fabric.hpp"

#include "common/logging.hpp"
#include "net/bandwidth_trace.hpp"

namespace rog {
namespace net {
namespace session {

using transport::MessageKey;
using transport::ReliableLink;
using transport::SendResult;

double
DesFabric::now() const
{
    return net_.sim_.now();
}

FabricTimer
DesFabric::after(double delay_s, std::function<void()> fire)
{
    const FabricTimer id = next_timer_++;
    timers_[id] = net_.sim_.after(delay_s, [this, id, fn = std::move(fire)] {
        timers_.erase(id);
        fn();
    });
    return id;
}

void
DesFabric::cancelTimer(FabricTimer id)
{
    auto it = timers_.find(id);
    if (it == timers_.end())
        return;
    net_.sim_.cancel(it->second);
    timers_.erase(it);
}

bool
DesFabric::connectPeer(int peer, const std::string &, std::uint16_t)
{
    // Simulated links never die: connecting creates the pair on first
    // use and otherwise only marks it healthy again.
    net_.pair(node_, peer).healthy = true;
    return true;
}

bool
DesFabric::hasPeer(int peer) const
{
    return net_.pairs_.count({node_, peer}) != 0;
}

bool
DesFabric::peerHealthy(int peer) const
{
    auto it = net_.pairs_.find({node_, peer});
    return it != net_.pairs_.end() && it->second.healthy;
}

void
DesFabric::dropPeer(int peer)
{
    // Keep the pair, and with it any in-flight sends and the peer's
    // per-key receiver state, but mark it unhealthy until the next
    // connectPeer.
    auto it = net_.pairs_.find({node_, peer});
    if (it != net_.pairs_.end())
        it->second.healthy = false;
}

void
DesFabric::resetPeer(int peer)
{
    // The remote restarted: abort this direction's in-flight sends
    // (their done callbacks fire false). The receiver's per-key state
    // belongs to the remote process; its restart clears it
    // (DesFabricNet::restartReceivers).
    auto it = net_.pairs_.find({node_, peer});
    if (it != net_.pairs_.end() && it->second.link)
        it->second.link->reset();
}

void
DesFabric::sendTo(int peer, const MessageKey &key,
                  std::span<const std::uint8_t> payload, double deadline_s,
                  SendDone done)
{
    net_.pair(node_, peer).link->startSend(
        0, key, payload, deadline_s,
        [done = std::move(done)](SendResult r) {
            if (done)
                done(r.delivered);
        });
}

void
DesFabric::setMessageHandler(MessageHandler handler)
{
    handler_ = std::move(handler);
}

DesFabricNet::DesFabricNet(sim::Simulation &sim, double rate_bps,
                           const transport::TransportConfig &cfg)
    : sim_(sim), rate_bps_(rate_bps), cfg_(cfg)
{
}

DesFabricNet::~DesFabricNet() = default;

DesFabric &
DesFabricNet::node(int node)
{
    auto it = nodes_.find(node);
    if (it == nodes_.end())
        it = nodes_
                 .emplace(node, std::unique_ptr<DesFabric>(
                                    new DesFabric(*this, node)))
                 .first;
    return *it->second;
}

void
DesFabricNet::restartReceivers(int node)
{
    for (auto &[ends, p] : pairs_)
        if (ends.second == node)
            p.backend->restartReceiver();
}

DesFabricNet::Pair &
DesFabricNet::pair(int src, int dst)
{
    auto it = pairs_.find({src, dst});
    if (it != pairs_.end())
        return it->second;
    Pair p;
    // One 0.1 s sample, looped forever: a constant link, so the
    // channel keeps one rate and never wakes at a step.
    p.channel = std::make_unique<Channel>(
        sim_, std::vector<BandwidthTrace>{BandwidthTrace::constant(
                  rate_bps_, /*duration_seconds=*/0.1)});
    transport::TransportConfig cfg = cfg_;
    cfg.jitter_seed = next_jitter_seed_++;
    p.backend = std::make_unique<transport::DesBackend>(
        sim_, *p.channel,
        [this, dst](const MessageKey &key, std::vector<std::uint8_t> &&bytes) {
            DesFabric &to = node(dst);
            if (to.handler_)
                to.handler_(key, std::move(bytes));
        });
    p.link = std::make_unique<ReliableLink>(*p.backend, cfg);
    return pairs_.emplace(std::make_pair(src, dst), std::move(p))
        .first->second;
}

} // namespace session
} // namespace net
} // namespace rog
