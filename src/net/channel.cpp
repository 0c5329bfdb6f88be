#include "net/channel.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace rog {
namespace net {

namespace {
// Flows with less than this many bytes left are complete (guards
// against floating-point residue in the fluid arithmetic).
constexpr double kByteEpsilon = 1e-6;
} // namespace

Channel::Channel(sim::Simulation &sim, std::vector<BandwidthTrace> links)
    : sim_(sim), links_(std::move(links)), last_update_(sim.now())
{
    ROG_ASSERT(!links_.empty(), "channel needs at least one link");
    const double step = links_.front().stepSeconds();
    for (const auto &l : links_)
        ROG_ASSERT(l.stepSeconds() == step,
                   "all link traces must share one step grid");
}

Channel::~Channel()
{
    sim_.cancel(wake_event_);
    for (auto &flow : flows_) {
        sim_.cancel(flow.timeout_event);
        if (flow.drop)
            flow.drop();
    }
}

double
Channel::linkCapacityAt(LinkId link, double t) const
{
    ROG_ASSERT(link < links_.size(), "link out of range");
    return links_[link].bytesPerSecAt(t);
}

double
Channel::flowRate(const Flow &flow, double t) const
{
    const auto n = static_cast<double>(flows_.size());
    ROG_ASSERT(n >= 1.0, "flowRate with no flows");
    return linkCapacityAt(flow.link, t) / n;
}

void
Channel::settle()
{
    const double now = sim_.now();
    const double dt = now - last_update_;
    ROG_ASSERT(dt >= -1e-12, "channel time went backwards");
    if (dt <= 0.0) {
        last_update_ = now;
        return;
    }
    // Rates are constant over (last_update_, now): reschedule() never
    // lets an interval span a trace boundary. Sample at the midpoint to
    // stay clear of boundary ties.
    const double t_mid = last_update_ + 0.5 * dt;
    for (auto &flow : flows_) {
        const double sent = flowRate(flow, t_mid) * dt;
        const double applied = std::min(sent, flow.remaining);
        flow.remaining -= applied;
        bytes_delivered_ += applied;
    }
    last_update_ = now;
}

void
Channel::finish(FlowIter it, double elapsed)
{
    sim_.cancel(it->timeout_event);
    TransferResult res;
    res.bytes_requested = it->requested;
    res.bytes_sent = it->deliverable - std::max(it->remaining, 0.0);
    // A truncated flow drains its deliverable cap but never completes:
    // the tail the fault swallowed counts as lost, like a timeout cut.
    if (it->remaining <= kByteEpsilon) {
        res.bytes_sent = it->deliverable;
        res.completed = it->deliverable >= it->requested - kByteEpsilon;
    }
    res.faulted = it->faulted;
    res.corrupted = it->corrupted;
    res.duplicated = it->duplicated;
    res.elapsed = elapsed;
    Callback done = std::move(it->done);
    flows_.erase(it);
    if (done)
        done(res);
}

void
Channel::reschedule()
{
    sim_.cancel(wake_event_);
    wake_event_ = sim::EventId{};
    if (flows_.empty())
        return;

    const double now = sim_.now();
    // All traces share the step grid; the next boundary is common.
    const double boundary = links_.front().nextBoundaryAfter(now);
    double wake = boundary;

    // Sample rates just after `now` (the segment the flows are in).
    const double t_probe = 0.5 * (now + boundary);
    for (const auto &flow : flows_) {
        // A flow whose deliverable cap is already drained (e.g. a
        // zero-byte truncation) must be delivered without waiting for
        // the next trace boundary.
        if (flow.remaining <= kByteEpsilon) {
            wake = now;
            break;
        }
        const double rate = flowRate(flow, t_probe);
        if (rate <= 0.0)
            continue;
        const double completion = now + flow.remaining / rate;
        wake = std::min(wake, completion);
    }
    wake = std::max(wake, now);
    wake_event_ = sim_.at(wake, [this] { onWake(); });
}

void
Channel::onWake()
{
    wake_event_ = sim::EventId{};
    settle();
    // Deliver every flow that finished in this interval. Completion
    // callbacks may start new transfers; those calls re-enter
    // startTransfer() which settles (dt = 0) and reschedules, so the
    // list must be consistent before each callback fires.
    for (auto it = flows_.begin(); it != flows_.end();) {
        auto cur = it++;
        if (cur->remaining <= kByteEpsilon)
            finish(cur, sim_.now() - cur->start_time);
    }
    reschedule();
}

void
Channel::onTimeout(std::uint64_t flow_id)
{
    settle();
    for (auto it = flows_.begin(); it != flows_.end(); ++it) {
        if (it->id != flow_id)
            continue;
        it->timeout_event = sim::EventId{};
        finish(it, sim_.now() - it->start_time);
        reschedule();
        return;
    }
    // Flow already completed in the same settle round: nothing to cut.
    reschedule();
}

void
Channel::startTransfer(LinkId link, double bytes, double timeout,
                       Callback done, std::function<void()> drop)
{
    ROG_ASSERT(link < links_.size(), "link out of range");
    ROG_ASSERT(bytes > 0.0, "transfer needs positive bytes");
    ROG_ASSERT(timeout > 0.0, "transfer timeout must be positive");

    settle();

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

    Flow flow;
    flow.id = next_flow_id_++;
    flow.link = link;
    flow.requested = bytes;
    flow.deliverable = deliverable;
    flow.remaining = deliverable;
    flow.start_time = sim_.now();
    flow.faulted = decision.faulty();
    flow.corrupted = decision.corrupt;
    flow.duplicated = decision.duplicate;
    flow.done = std::move(done);
    flow.drop = std::move(drop);
    if (std::isfinite(timeout)) {
        const std::uint64_t id = flow.id;
        flow.timeout_event =
            sim_.after(timeout, [this, id] { onTimeout(id); });
    }
    flows_.push_back(std::move(flow));
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
