/**
 * @file
 * Test oracle: the airtime-fair channel as a per-flow settle, the
 * arithmetic the engine's channel and the fleet's channel each ran
 * before net::FluidChannel replaced both. Every call first moves every
 * flow forward to now at the share the previous call gave it
 * (remaining -= dt * share; a flow started since then has share 0 and
 * stays put), then gives each flow its link's capacity over the
 * current step divided by the active count, and picks the flow with
 * the smallest remaining / share as the next finisher (ties by start
 * order). The oracle wakes at every step boundary while any flow is
 * active, constant link or not, so it settles there too.
 *
 * Same interface as net::FluidChannel, whose virtual clock must finish
 * the same flows in the same order at the same times and leave the
 * same bytes to a cut (fluid_channel_test). Production code never
 * links this.
 */
#ifndef ROG_TESTS_NET_FLUID_CHANNEL_REF_HPP
#define ROG_TESTS_NET_FLUID_CHANNEL_REF_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hpp"
#include "net/bandwidth_trace.hpp"

namespace rog {
namespace net {
namespace ref {

class ScanChannel
{
  public:
    explicit ScanChannel(std::vector<BandwidthTrace> links)
        : links_(std::move(links))
    {
    }

    void
    start(double now, std::size_t link, double bytes, std::uint64_t tag)
    {
        progress(now);
        active_.push_back({tag, next_seq_++, link, bytes, 0.0});
        reshare();
    }

    bool empty() const { return active_.empty(); }
    std::size_t active() const { return active_.size(); }

    double
    nextFinish() const
    {
        return active_.empty() ? kInf : last_ + best_fin_;
    }

    double
    nextEvent() const
    {
        if (active_.empty())
            return kInf;
        return std::min(nextFinish(),
                        links_.front().nextBoundaryAfter(last_));
    }

    void
    advance(double now)
    {
        progress(now);
        reshare();
    }

    std::uint64_t
    finish(double now)
    {
        ROG_ASSERT(!active_.empty(), "no active flow");
        progress(now);
        const std::uint64_t tag = active_[best_].tag;
        active_.erase(active_.begin() +
                      static_cast<std::ptrdiff_t>(best_));
        reshare();
        return tag;
    }

    double
    cut(double now, std::uint64_t tag)
    {
        progress(now);
        const auto it =
            std::find_if(active_.begin(), active_.end(),
                         [tag](const Flow &f) { return f.tag == tag; });
        ROG_ASSERT(it != active_.end(), "cut of an inactive flow");
        const double left = std::max(it->remaining, 0.0);
        active_.erase(it);
        reshare();
        return left;
    }

  private:
    static constexpr double kInf = std::numeric_limits<double>::infinity();

    struct Flow
    {
        std::uint64_t tag;
        std::uint64_t seq;
        std::size_t link;
        double remaining;
        double share; //!< capacity / n at the last settle.
    };

    void
    progress(double now)
    {
        const double dt = now - last_;
        last_ = now;
        if (dt != 0.0)
            for (Flow &f : active_)
                f.remaining -= dt * f.share;
    }

    /** Capacity over the step that holds last_, sampled mid-step. */
    double
    rate(const Flow &f) const
    {
        const BandwidthTrace &tr = links_[f.link];
        return tr.bytesPerSecAt(0.5 * (last_ + tr.nextBoundaryAfter(last_)));
    }

    void
    reshare()
    {
        const double n = static_cast<double>(active_.size());
        best_fin_ = kInf;
        std::uint64_t best_seq = 0;
        bool any = false;
        for (std::size_t i = 0; i < active_.size(); ++i) {
            Flow &f = active_[i];
            f.share = rate(f) / n;
            const double rem = f.remaining > 0.0 ? f.remaining : 0.0;
            const double fin =
                rem == 0.0 ? 0.0 : f.share > 0.0 ? rem / f.share : kInf;
            if (!any || fin < best_fin_ ||
                (fin == best_fin_ && f.seq < best_seq)) {
                any = true;
                best_fin_ = fin;
                best_seq = f.seq;
                best_ = i;
            }
        }
    }

    std::vector<BandwidthTrace> links_;
    std::vector<Flow> active_;
    std::size_t best_ = 0;
    double best_fin_ = kInf;
    double last_ = 0.0;
    std::uint64_t next_seq_ = 0;
};

} // namespace ref
} // namespace net
} // namespace rog

#endif // ROG_TESTS_NET_FLUID_CHANNEL_REF_HPP
