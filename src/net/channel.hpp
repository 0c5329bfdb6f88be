/**
 * @file
 * The shared wireless channel under sim::Simulation.
 *
 * All devices associate with one hotspot (paper Sec. VI), so gradient
 * flows share the medium: with n concurrently active flows each gets a
 * 1/n airtime share and transmits at its own link's time-varying
 * capacity during that share (airtime fairness). The fluid model
 * itself is net::FluidChannel; this class drives it from the event
 * loop (one wake at its next finish or rate step) and adds what the
 * engine and the DES twin need around it: coroutine and callback
 * completion, timeouts, fault policies and drop callbacks.
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
#include <vector>

#include "net/fluid_channel.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {

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

    /** Number of flows currently in the air. */
    std::size_t activeFlows() const { return core_.active(); }

    /** Bytes delivered since construction (all links); a flow's
     *  bytes count when it finishes or is cut. */
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
    /** What the adapter keeps of a flow in the air; the core holds
     *  its progress under the slot's index as tag. */
    struct Flow
    {
        double requested;
        double deliverable; //!< fault cap: <= requested bytes get through.
        double start_time;
        bool live;
        bool faulted;
        bool corrupted;
        bool duplicated;
        Callback done;
        std::function<void()> drop;
        sim::EventId timeout_event;
    };

    /** Retire slot @p slot with @p left bytes undelivered and run its
     *  callback. */
    void finish(std::size_t slot, double left);

    /** Re-arm the wake at the core's next event. */
    void reschedule();

    void onWake();
    void onTimeout(std::size_t slot);

    sim::Simulation &sim_;
    FluidChannel core_;
    std::vector<Flow> flows_;       //!< slots, live or free.
    std::vector<std::size_t> free_; //!< free slots in flows_.
    double bytes_delivered_ = 0.0;
    sim::EventId wake_event_;
    TransferFaultPolicy *fault_policy_ = nullptr;
    std::size_t faulted_transfers_ = 0;
};

} // namespace net
} // namespace rog

#endif // ROG_NET_CHANNEL_HPP
