#include "core/fair_share_channel.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace rog {
namespace core {

void
FairShareChannel::advance(double now)
{
    if (!heap_.empty())
        v_ += (now - last_) / static_cast<double>(heap_.size());
    last_ = now;
}

void
FairShareChannel::start(double now, double bytes, double rate,
                        std::uint64_t tag)
{
    ROG_ASSERT(bytes > 0.0 && rate > 0.0, "transfer needs bytes and rate");
    advance(now);
    heap_.push_back({v_ + bytes / rate, next_seq_++, tag});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

double
FairShareChannel::nextFinish() const
{
    ROG_ASSERT(!heap_.empty(), "no active transfer");
    const double left = heap_.front().v_finish - v_;
    return last_ +
           (left > 0.0 ? left * static_cast<double>(heap_.size()) : 0.0);
}

std::uint64_t
FairShareChannel::finish(double now)
{
    ROG_ASSERT(!heap_.empty(), "no active transfer");
    advance(now);
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const std::uint64_t tag = heap_.back().tag;
    heap_.pop_back();
    if (heap_.empty())
        v_ = 0.0;
    return tag;
}

} // namespace core
} // namespace rog
