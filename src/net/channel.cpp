#include "net/channel.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace rog {
namespace net {

Channel::Channel(sim::Simulation &sim, std::vector<BandwidthTrace> links)
    : sim_(sim), core_(std::move(links))
{
}

Channel::~Channel()
{
    sim_.cancel(wake_event_);
    for (auto &flow : flows_) {
        if (!flow.live)
            continue;
        sim_.cancel(flow.timeout_event);
        if (flow.drop)
            flow.drop();
    }
}

void
Channel::finish(std::size_t slot, double left)
{
    Flow &flow = flows_[slot];
    sim_.cancel(flow.timeout_event);
    TransferResult res;
    res.bytes_requested = flow.requested;
    res.bytes_sent = flow.deliverable - left;
    // A truncated flow drains its deliverable cap but never completes:
    // the tail the fault swallowed counts as lost, like a timeout cut.
    if (left <= FluidChannel::kByteEpsilon) {
        res.bytes_sent = flow.deliverable;
        res.completed = flow.deliverable >=
                        flow.requested - FluidChannel::kByteEpsilon;
    }
    res.faulted = flow.faulted;
    res.corrupted = flow.corrupted;
    res.duplicated = flow.duplicated;
    res.elapsed = sim_.now() - flow.start_time;
    bytes_delivered_ += res.bytes_sent;
    Callback done = std::move(flow.done);
    flow = Flow{};
    free_.push_back(slot);
    if (done)
        done(res);
}

void
Channel::reschedule()
{
    sim_.cancel(wake_event_);
    wake_event_ = sim::EventId{};
    const double wake = core_.nextEvent();
    if (std::isfinite(wake))
        wake_event_ =
            sim_.at(std::max(wake, sim_.now()), [this] { onWake(); });
}

void
Channel::onWake()
{
    wake_event_ = sim::EventId{};
    const double now = sim_.now();
    // Deliver every flow that is through. Completion callbacks may
    // start new transfers, which re-enter startTransfer() and
    // reschedule; the core is consistent before each callback fires.
    while (core_.nextDone(now))
        finish(static_cast<std::size_t>(core_.finish(now)), 0.0);
    core_.advance(now);
    reschedule();
}

void
Channel::onTimeout(std::size_t slot)
{
    flows_[slot].timeout_event = sim::EventId{};
    finish(slot, core_.cut(sim_.now(), slot));
    reschedule();
}

void
Channel::startTransfer(LinkId link, double bytes, double timeout,
                       Callback done, std::function<void()> drop)
{
    ROG_ASSERT(bytes > 0.0, "transfer needs positive bytes");
    ROG_ASSERT(timeout > 0.0, "transfer timeout must be positive");

    double deliverable = bytes;
    FaultDecision decision;
    if (fault_policy_) {
        decision =
            fault_policy_->onTransferStart(link, bytes, sim_.now());
        deliverable =
            std::min(bytes, std::max(decision.deliverable_bytes, 0.0));
        timeout = std::min(timeout, decision.forced_timeout);
        if (decision.faulty())
            ++faulted_transfers_;
    }

    std::size_t slot = flows_.size();
    if (free_.empty()) {
        flows_.emplace_back();
    } else {
        slot = free_.back();
        free_.pop_back();
    }
    core_.start(sim_.now(), link, deliverable, slot);
    Flow &flow = flows_[slot];
    flow.requested = bytes;
    flow.deliverable = deliverable;
    flow.start_time = sim_.now();
    flow.live = true;
    flow.faulted = decision.faulty();
    flow.corrupted = decision.corrupt;
    flow.duplicated = decision.duplicate;
    flow.done = std::move(done);
    flow.drop = std::move(drop);
    if (std::isfinite(timeout))
        flow.timeout_event =
            sim_.after(timeout, [this, slot] { onTimeout(slot); });
    reschedule();
}

void
Channel::TransferAwaiter::await_suspend(std::coroutine_handle<> h)
{
    ch_.startTransfer(
        link_, bytes_, timeout_,
        [this, h](TransferResult r) {
            result_ = r;
            h.resume();
        },
        [h] { h.destroy(); });
}

} // namespace net
} // namespace rog
