#include "net/fluid_channel.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace rog {
namespace net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
} // namespace

FluidChannel::FluidChannel(std::vector<BandwidthTrace> links)
{
    ROG_ASSERT(!links.empty(), "channel needs at least one link");
    const double step = links.front().stepSeconds();
    links_.reserve(links.size());
    for (auto &trace : links) {
        ROG_ASSERT(trace.stepSeconds() == step,
                   "all link traces must share one step grid");
        const auto &s = trace.samples();
        const bool varying =
            std::any_of(s.begin(), s.end(),
                        [&](double x) { return x != s.front(); });
        const double rate = s.front();
        links_.push_back({std::move(trace), varying, rate});
    }
}

double
FluidChannel::rateAt(LinkId link, double t) const
{
    const Link &l = links_[link];
    if (!l.varying)
        return l.rate;
    // Sample mid-step to stay clear of boundary ties.
    return l.trace.bytesPerSecAt(0.5 * (t + l.trace.nextBoundaryAfter(t)));
}

double
FluidChannel::leftAt(const Flow &f, double v)
{
    if (f.rate <= 0.0)
        return f.left;
    const double dv = f.v_finish - v;
    return dv > 0.0 ? dv * f.rate : 0.0;
}

void
FluidChannel::key(Flow &f, double left, double rate) const
{
    f.rate = rate;
    f.left = left;
    if (rate > 0.0)
        f.v_finish = v_ + left / rate;
    else
        f.v_finish = left > 0.0 ? kInf : v_;
}

void
FluidChannel::advance(double now)
{
    ROG_ASSERT(now <= step_due_, "channel advanced past a rate step");
    if (!heap_.empty())
        v_ += (now - last_) / static_cast<double>(heap_.size());
    last_ = now;
    if (now < step_due_)
        return;
    bool moved = false;
    for (Flow &f : heap_) {
        if (!links_[f.link].varying)
            continue;
        const double rate = rateAt(f.link, now);
        if (rate == f.rate)
            continue;
        key(f, leftAt(f, v_), rate);
        moved = true;
    }
    if (moved)
        std::make_heap(heap_.begin(), heap_.end(), later);
    step_due_ = links_.front().trace.nextBoundaryAfter(now);
}

void
FluidChannel::start(double now, LinkId link, double bytes,
                    std::uint64_t tag)
{
    ROG_ASSERT(link < links_.size(), "link out of range");
    ROG_ASSERT(bytes >= 0.0, "flow bytes must be non-negative");
    advance(now);
    Flow f{0.0, next_seq_++, tag, link, 0.0, 0.0};
    key(f, bytes, rateAt(link, now));
    if (links_[link].varying && varying_active_++ == 0)
        step_due_ = links_.front().trace.nextBoundaryAfter(now);
    heap_.push_back(f);
    std::push_heap(heap_.begin(), heap_.end(), later);
}

double
FluidChannel::nextFinish() const
{
    if (heap_.empty())
        return kInf;
    const double left = heap_.front().v_finish - v_;
    return last_ +
           (left > 0.0 ? left * static_cast<double>(heap_.size()) : 0.0);
}

double
FluidChannel::nextEvent() const
{
    return std::min(nextFinish(), step_due_);
}

bool
FluidChannel::nextDone(double now) const
{
    if (heap_.empty())
        return false;
    if (nextFinish() <= now)
        return true;
    const double v =
        v_ + (now - last_) / static_cast<double>(heap_.size());
    return leftAt(heap_.front(), v) <= kByteEpsilon;
}

void
FluidChannel::remove(std::size_t i)
{
    if (links_[heap_[i].link].varying && --varying_active_ == 0)
        step_due_ = kInf;
    if (i == 0) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        heap_.pop_back();
    } else {
        heap_[i] = heap_.back();
        heap_.pop_back();
        std::make_heap(heap_.begin(), heap_.end(), later);
    }
    if (heap_.empty())
        v_ = 0.0;
}

std::uint64_t
FluidChannel::finish(double now)
{
    ROG_ASSERT(!heap_.empty(), "no active flow");
    advance(now);
    const std::uint64_t tag = heap_.front().tag;
    remove(0);
    return tag;
}

double
FluidChannel::cut(double now, std::uint64_t tag)
{
    advance(now);
    const auto it =
        std::find_if(heap_.begin(), heap_.end(),
                     [tag](const Flow &f) { return f.tag == tag; });
    ROG_ASSERT(it != heap_.end(), "cut of an inactive flow");
    const double left = leftAt(*it, v_);
    remove(static_cast<std::size_t>(it - heap_.begin()));
    return left;
}

} // namespace net
} // namespace rog
