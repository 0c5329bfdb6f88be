/**
 * @file
 * Test oracle: the fleet DES's original airtime-fair channel, which
 * rescans every active transfer on every change. Each settle moves
 * every transfer forward to now at the share the previous settle gave
 * it (remaining -= dt * rate / n_prev; a transfer started since then
 * has share 0 and stays put), gives it rate / n under the current
 * count, and picks the transfer with the smallest remaining / share as
 * the next finisher (ties by start order). core::FairShareChannel
 * replaces it with a virtual clock and must finish the same transfers
 * in the same order at the same times (fair_share_channel_test).
 *
 * Same interface as core::FairShareChannel. Production code never
 * links this.
 */
#ifndef ROG_TESTS_CORE_FAIR_SHARE_CHANNEL_REF_HPP
#define ROG_TESTS_CORE_FAIR_SHARE_CHANNEL_REF_HPP

#include <cstdint>
#include <vector>

#include "common/logging.hpp"

namespace rog {
namespace core {
namespace ref {

class ScanChannel
{
  public:
    void
    start(double now, double bytes, double rate, std::uint64_t tag)
    {
        progress(now);
        active_.push_back({tag, next_seq_++, bytes, rate, 0.0});
        reshare();
    }

    bool empty() const { return active_.empty(); }
    std::size_t active() const { return active_.size(); }

    double
    nextFinish() const
    {
        ROG_ASSERT(!active_.empty(), "no active transfer");
        return last_ + best_fin_;
    }

    std::uint64_t
    finish(double now)
    {
        ROG_ASSERT(!active_.empty(), "no active transfer");
        progress(now);
        const std::uint64_t tag = active_[best_].tag;
        active_[best_] = active_.back();
        active_.pop_back();
        reshare();
        return tag;
    }

  private:
    struct Transfer
    {
        std::uint64_t tag;
        std::uint64_t seq;
        double remaining;
        double rate;
        double share; //!< rate / n at the last settle.
    };

    void
    progress(double now)
    {
        const double dt = now - last_;
        last_ = now;
        if (dt != 0.0)
            for (Transfer &tr : active_)
                tr.remaining -= dt * tr.share;
    }

    void
    reshare()
    {
        const double n = static_cast<double>(active_.size());
        bool any = false;
        std::uint64_t best_seq = 0;
        for (std::size_t i = 0; i < active_.size(); ++i) {
            Transfer &tr = active_[i];
            tr.share = tr.rate / n;
            const double rem = tr.remaining > 0.0 ? tr.remaining : 0.0;
            const double fin = rem / tr.share;
            if (!any || fin < best_fin_ ||
                (fin == best_fin_ && tr.seq < best_seq)) {
                any = true;
                best_fin_ = fin;
                best_seq = tr.seq;
                best_ = i;
            }
        }
    }

    std::vector<Transfer> active_;
    std::size_t best_ = 0;
    double best_fin_ = 0.0;
    double last_ = 0.0;
    std::uint64_t next_seq_ = 0;
};

} // namespace ref
} // namespace core
} // namespace rog

#endif // ROG_TESTS_CORE_FAIR_SHARE_CHANNEL_REF_HPP
