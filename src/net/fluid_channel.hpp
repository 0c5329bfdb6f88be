/**
 * @file
 * The airtime-fair fluid channel every driver shares: n active flows
 * each get 1/n of the airtime, so a flow on a link of capacity r moves
 * r/n bytes per second. Link capacities are piecewise-constant
 * BandwidthTraces on one step grid.
 *
 * Virtual clock (generalized processor sharing, Parekh & Gallager
 * 1993): V advances by dt / n while n flows are active. A flow with b
 * bytes left at virtual time V0 on a link at rate r finishes at
 * V = V0 + b / r, a key fixed until the link's rate changes. The
 * active set is a min-heap on (finish V, start order); a start or a
 * finish is O(log n) and nothing is rescanned. The real time of the
 * next finish is now + (V_fin - V) * n.
 *
 * A link whose samples all agree keeps one rate and never asks for a
 * step. While a flow is active on a varying link, the channel is due
 * at the next step boundary: advancing to it gives every flow on a
 * link whose rate changed a new key from the bytes it has left
 * (V + left / r_new). A flow on a link at rate 0 moves nothing and
 * keeps its bytes until the rate comes back.
 *
 * The class owns no clock: its driver (net::Channel under
 * sim::Simulation, the fleet's coordinator queue) passes the real time
 * into every call, never earlier than the last call's, and never past
 * nextEvent().
 *
 * V restarts at 0 whenever the channel empties, so its magnitude is
 * bounded by one busy period and b / r keeps its precision.
 * fluid_channel_test checks completion order, finish times and cut
 * bytes against a per-flow settle at every event and every step
 * (tests/net/fluid_channel_ref.hpp).
 */
#ifndef ROG_NET_FLUID_CHANNEL_HPP
#define ROG_NET_FLUID_CHANNEL_HPP

#include <cstdint>
#include <limits>
#include <vector>

#include "net/bandwidth_trace.hpp"

namespace rog {
namespace net {

/** Index of a device link (worker i <-> parameter server). */
using LinkId = std::size_t;

class FluidChannel
{
  public:
    /** A flow with at most this many bytes left is through: the
     *  rounding residue of the fluid arithmetic. */
    static constexpr double kByteEpsilon = 1e-6;

    /** @param links one capacity trace per link, all on one step
     *  grid. @pre non-empty */
    explicit FluidChannel(std::vector<BandwidthTrace> links);

    /** Start a flow of @p bytes on @p link at real time @p now; @p tag
     *  comes back from finish() and names the flow to cut(). @pre
     *  bytes >= 0, tag unique among active flows. */
    void start(double now, LinkId link, double bytes, std::uint64_t tag);

    bool empty() const { return heap_.empty(); }
    std::size_t active() const { return heap_.size(); }

    /** Real time the next flow finishes under the current shares and
     *  rates (infinity if none can). */
    double nextFinish() const;

    /** Real time of the next change: nextFinish() or the step
     *  boundary at which a varying link with a flow on it changes
     *  rate, whichever is first (infinity if neither). */
    double nextEvent() const;

    /** Whether the next finisher is through at real time @p now: its
     *  finish time has come, or kByteEpsilon or less of it is left. */
    bool nextDone(double now) const;

    /** Move V to real time @p now, re-keying the flows on varying
     *  links at a due step. */
    void advance(double now);

    /** Remove the next finisher (ties by start order) at real time
     *  @p now, normally nextFinish(); returns its tag. @pre !empty() */
    std::uint64_t finish(double now);

    /** Remove the flow @p tag at real time @p now and return the bytes
     *  it still had to move. O(n). @pre the flow is active. */
    double cut(double now, std::uint64_t tag);

  private:
    struct Link
    {
        BandwidthTrace trace;
        bool varying;  //!< samples differ: the rate moves at steps.
        double rate;   //!< the one rate of a constant link.
    };

    struct Flow
    {
        double v_finish; //!< infinity while the rate is 0.
        std::uint64_t seq; //!< start order.
        std::uint64_t tag;
        LinkId link;
        double rate;  //!< link capacity the key was taken at.
        double left;  //!< bytes left when keyed (read at rate 0).
    };

    /** Heap order: the earliest (v_finish, seq) on top. */
    static bool later(const Flow &a, const Flow &b)
    {
        return a.v_finish > b.v_finish ||
               (a.v_finish == b.v_finish && a.seq > b.seq);
    }

    /** Capacity of @p link over the step that holds real time @p t. */
    double rateAt(LinkId link, double t) const;

    /** Bytes @p f has left at virtual time @p v. */
    static double leftAt(const Flow &f, double v);

    /** Key @p f to move @p left bytes at @p rate from V on. */
    void key(Flow &f, double left, double rate) const;

    /** Remove heap_[i] from the active set. */
    void remove(std::size_t i);

    std::vector<Link> links_;
    std::vector<Flow> heap_;
    double v_ = 0.0;    //!< virtual time at real time last_.
    double last_ = 0.0; //!< real time of the last advance.
    std::uint64_t next_seq_ = 0;
    std::size_t varying_active_ = 0; //!< flows on varying links.
    double step_due_ = std::numeric_limits<double>::infinity();
};

} // namespace net
} // namespace rog

#endif // ROG_NET_FLUID_CHANNEL_HPP
