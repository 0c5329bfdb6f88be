/**
 * @file
 * The fleet DES's airtime-fair fluid channel: n active transfers each
 * get 1/n of the airtime, so a transfer at link rate r moves r/n bytes
 * per second. A transfer finishes when its bytes are through.
 *
 * Virtual clock (generalized processor sharing, Parekh & Gallager
 * 1993): V advances by dt / n while n transfers are active. A transfer
 * of b bytes at rate r started at virtual time V0 has moved
 * r * (V - V0) bytes, so it finishes at V = V0 + b / r, a value fixed
 * at its start. The active set is a min-heap on (finish V, start
 * order); a start or a finish is O(log n) and nothing is rescanned.
 * The real time of the next finish is now + (V_fin - V) * n.
 *
 * V restarts at 0 whenever the channel empties, so its magnitude is
 * bounded by one busy period and b / r keeps its precision.
 * fair_share_channel_test checks completion order and finish times
 * against the per-transfer settle pass this class replaced
 * (tests/core/fair_share_channel_ref.hpp).
 */
#ifndef ROG_CORE_FAIR_SHARE_CHANNEL_HPP
#define ROG_CORE_FAIR_SHARE_CHANNEL_HPP

#include <cstdint>
#include <vector>

namespace rog {
namespace core {

class FairShareChannel
{
  public:
    /** Start a transfer of @p bytes at link rate @p rate at real time
     *  @p now; @p tag comes back from finish(). @pre bytes > 0,
     *  rate > 0, now >= every earlier call's now. */
    void start(double now, double bytes, double rate, std::uint64_t tag);

    bool empty() const { return heap_.empty(); }
    std::size_t active() const { return heap_.size(); }

    /** Real time the next transfer finishes under the current shares.
     *  @pre !empty(). */
    double nextFinish() const;

    /** Remove the next finisher (ties by start order) at real time
     *  @p now, normally nextFinish(); returns its tag. @pre !empty(). */
    std::uint64_t finish(double now);

  private:
    struct Entry
    {
        double v_finish;
        std::uint64_t seq; //!< start order.
        std::uint64_t tag;
    };

    /** Heap order: the earliest (v_finish, seq) on top. */
    static bool later(const Entry &a, const Entry &b)
    {
        return a.v_finish > b.v_finish ||
               (a.v_finish == b.v_finish && a.seq > b.seq);
    }

    /** Move V to real time @p now under the current count. */
    void advance(double now);

    std::vector<Entry> heap_;
    double v_ = 0.0;    //!< virtual time at real time last_.
    double last_ = 0.0; //!< real time of the last advance.
    std::uint64_t next_seq_ = 0;
};

} // namespace core
} // namespace rog

#endif // ROG_CORE_FAIR_SHARE_CHANNEL_HPP
