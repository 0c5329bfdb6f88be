/**
 * @file
 * Fluid-flow simulation of a shared wireless channel.
 *
 * All devices associate with one hotspot (paper Sec. VI), so gradient
 * flows share the medium: with n concurrently active flows each gets a
 * 1/n airtime share and transmits at its own link's time-varying
 * capacity during that share (airtime fairness). Link capacities come
 * from piecewise-constant BandwidthTraces, so flow rates are constant
 * between events and the fluid model is exact.
 *
 * Transfers support a timeout, which is the primitive ROG's speculative
 * transmission needs (SendWithTimeout in Algo 4): when the timeout
 * fires mid-flow the transfer completes partially and reports the bytes
 * that made it through; the caller discards the cut row.
 */
#ifndef ROG_NET_CHANNEL_HPP
#define ROG_NET_CHANNEL_HPP

#include <coroutine>
#include <functional>
#include <limits>
#include <list>
#include <vector>

#include "net/bandwidth_trace.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {

/** Index of a device link (worker i <-> parameter server). */
using LinkId = std::size_t;

/** Outcome of a (possibly timed-out) transfer. */
struct TransferResult
{
    double bytes_requested = 0.0;
    double bytes_sent = 0.0;
    bool completed = false;   //!< all requested bytes delivered.
    double elapsed = 0.0;     //!< seconds from start to end/timeout.
    bool faulted = false;     //!< a fault policy sabotaged this flow.
    bool corrupted = false;   //!< payload arrived bit-flipped (CRC will
                              //!< fail on whatever this flow carried).
    bool duplicated = false;  //!< the link delivered this payload twice.
};

/**
 * What a fault policy does to one starting transfer: cap the bytes
 * that will ever get through (the link dies mid-flow and the tail is
 * lost), cut the flow after a forced timeout (whichever the caller's
 * own timeout doesn't hit first), and/or mark the delivered payload as
 * corrupted / duplicated. The channel itself only moves byte counts,
 * so the last two are flags carried through to the TransferResult for
 * the reliability sublayer (net/transport) to act on: a corrupted
 * delivery fails its CRC check at the receiver, a duplicated one is
 * handed to the receiver twice. Everything defaults to "no fault".
 */
struct FaultDecision
{
    double deliverable_bytes = std::numeric_limits<double>::infinity();
    double forced_timeout = std::numeric_limits<double>::infinity();
    bool corrupt = false;
    bool duplicate = false;

    bool
    faulty() const
    {
        return deliverable_bytes !=
                   std::numeric_limits<double>::infinity() ||
               forced_timeout !=
                   std::numeric_limits<double>::infinity() ||
               corrupt || duplicate;
    }
};

/**
 * Per-transfer fault injection hook (see src/fault). The channel
 * consults the policy once per startTransfer; the policy must be
 * deterministic for runs to replay byte-identically.
 */
class TransferFaultPolicy
{
  public:
    virtual ~TransferFaultPolicy() = default;

    /** Decide the fate of a transfer starting now on @p link. */
    virtual FaultDecision onTransferStart(LinkId link, double bytes,
                                          double now) = 0;
};

/** Shared wireless channel connecting every device to the server. */
class Channel
{
  public:
    using Callback = std::function<void(TransferResult)>;

    static constexpr double kNoTimeout =
        std::numeric_limits<double>::infinity();

    /**
     * @param sim event loop; must outlive the channel.
     * @param links one capacity trace per device link. @pre non-empty
     */
    Channel(sim::Simulation &sim, std::vector<BandwidthTrace> links);
    ~Channel();

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    std::size_t linkCount() const { return links_.size(); }

    /** Link capacity (bytes/sec) at time @p t, before sharing. */
    double linkCapacityAt(LinkId link, double t) const;

    /** Number of flows currently in the air. */
    std::size_t activeFlows() const { return flows_.size(); }

    /** Total bytes delivered since construction (all links). */
    double totalBytesDelivered() const { return bytes_delivered_; }

    /**
     * Install a per-transfer fault policy (nullptr to remove). The
     * policy is non-owning and must outlive the channel's transfers;
     * it only affects transfers started after installation.
     */
    void setFaultPolicy(TransferFaultPolicy *policy)
    {
        fault_policy_ = policy;
    }

    /** Number of transfers a fault policy sabotaged. */
    std::size_t faultedTransfers() const { return faulted_transfers_; }

    /**
     * Start a transfer (callback form).
     *
     * @param bytes payload size. @pre bytes > 0
     * @param timeout seconds until the transfer is cut (kNoTimeout for
     *        none).
     * @param done invoked exactly once with the result (unless the
     *        channel is destroyed first).
     * @param drop invoked instead of @p done if the channel is
     *        destroyed with the flow still active (may be empty).
     */
    void startTransfer(LinkId link, double bytes, double timeout,
                       Callback done, std::function<void()> drop = {});

    /** Awaitable transfer for simulation processes. */
    class TransferAwaiter
    {
      public:
        TransferAwaiter(Channel &ch, LinkId link, double bytes,
                        double timeout)
            : ch_(ch), link_(link), bytes_(bytes), timeout_(timeout) {}

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h);
        TransferResult await_resume() const noexcept { return result_; }

      private:
        Channel &ch_;
        LinkId link_;
        double bytes_;
        double timeout_;
        TransferResult result_;
    };

    /**
     * co_await a transfer; resumes with the TransferResult when it
     * completes or times out.
     */
    TransferAwaiter
    transfer(LinkId link, double bytes, double timeout = kNoTimeout)
    {
        return TransferAwaiter(*this, link, bytes, timeout);
    }

  private:
    struct Flow
    {
        std::uint64_t id;
        LinkId link;
        double requested;
        double deliverable; //!< fault cap: <= requested bytes get through.
        double remaining;   //!< counts down from deliverable.
        double start_time;
        bool faulted;
        bool corrupted;
        bool duplicated;
        Callback done;
        std::function<void()> drop;
        sim::EventId timeout_event;
    };

    using FlowIter = std::list<Flow>::iterator;

    /** Per-flow rate under airtime fairness at time @p t. */
    double flowRate(const Flow &flow, double t) const;

    /** Deduct progress accumulated since the last update. */
    void settle();

    /** Recompute the next wake-up (boundary or earliest completion). */
    void reschedule();

    /** Detach a flow and deliver its result. */
    void finish(FlowIter it, double elapsed);

    void onWake();
    void onTimeout(std::uint64_t flow_id);

    sim::Simulation &sim_;
    std::vector<BandwidthTrace> links_;
    std::list<Flow> flows_;
    double last_update_ = 0.0;
    double bytes_delivered_ = 0.0;
    sim::EventId wake_event_;
    std::uint64_t next_flow_id_ = 1;
    TransferFaultPolicy *fault_policy_ = nullptr;
    std::size_t faulted_transfers_ = 0;
};

} // namespace net
} // namespace rog

#endif // ROG_NET_CHANNEL_HPP
