/**
 * @file
 * Simulator-side transport backends.
 *
 * DesBackend is the deterministic twin: frames travel the
 * fluid-simulated Channel under virtual time and land in a local
 * FrameReceiver, the same class a socket receiver endpoint runs, fed
 * the frame exactly as a socket wire would deliver it. A completed
 * transfer delivers the whole frame; a cut transfer delivers the whole
 * bytes the channel moved before the cut (rounded down), once the
 * header is through; a corrupted transfer flips its first delivered
 * payload byte, so the CRC verdict is computed, never assumed; a
 * duplicated transfer delivers the frame twice. A delivered message's
 * bytes go to the DeliverySink at the frame that completes it, before
 * the sender sees its verdict: the same point a socket receiver
 * endpoint hands them up. The receiver dedups per key for its whole
 * lifetime, as a socket receiver does; restartReceiver() models the
 * receiving process restarting.
 *
 * ReplayBackend is the cross-validation twin: each attempt resolves
 * from the next record of a wire trace captured on a real-socket run,
 * so the protocol core re-makes every decision the deployment made —
 * under virtual time, in-process, with no sockets. A divergence
 * (the core attempting something the trace never saw) is recorded,
 * not fatal, so the harness can print both logs.
 */
#ifndef ROG_NET_TRANSPORT_DES_BACKEND_HPP
#define ROG_NET_TRANSPORT_DES_BACKEND_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/buffer_pool.hpp"
#include "net/channel.hpp"
#include "net/transport/backend.hpp"
#include "net/transport/receiver.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace transport {

/** One-shot TimerId facade over the simulator's event queue. */
class SimTimers
{
  public:
    explicit SimTimers(sim::Simulation &sim) : sim_(sim) {}
    ~SimTimers();

    TimerId after(double delay_s, std::function<void()> fire);
    void cancel(TimerId id);

  private:
    sim::Simulation &sim_;
    std::map<TimerId, sim::EventId> pending_;
    TimerId next_ = 1;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/** The deterministic twin: frames over the simulated Channel. */
class DesBackend : public Backend
{
  public:
    /**
     * @p sim and @p channel must outlive the backend. @p deliver
     * receives each delivered message's bytes; without one, the
     * receiver keeps no payload bytes at all.
     */
    DesBackend(sim::Simulation &sim, Channel &channel,
               DeliverySink deliver = {});
    ~DesBackend() override;

    double now() const override;
    TimerId after(double delay_s, std::function<void()> fire) override;
    void cancelTimer(TimerId id) override;
    std::uint64_t openSend(LinkId link, const MessageKey &key) override;
    void sendFrame(std::uint64_t send_id, const FrameHeader &hdr,
                   std::span<const std::uint8_t> frag, double timeout_s,
                   VerdictCallback done,
                   std::function<void()> drop) override;
    void closeSend(std::uint64_t send_id) override;
    void setReceiverEventSink(EventSink sink) override;

    /**
     * The receiving process restarted: drop every piece of receiver
     * state, delivered keys included. In-flight sends are untouched
     * (aborting those is the sender's ReliableLink::reset()).
     */
    void restartReceiver() { receiver_.restart(); }

  private:
    /** Per-send wire state. */
    struct Stream
    {
        LinkId link = 0;
        bool pending = false; //!< a frame is in flight.
        VerdictCallback done;
        std::function<void()> drop;

        /** The frame in flight as serialized: header, then fragment. */
        BufferPool::Lease<std::uint8_t> wire;
        std::size_t frame_bytes = 0;
    };

    void onTransferDone(std::uint64_t send_id, const TransferResult &r);
    void onTransferDrop(std::uint64_t send_id);

    sim::Simulation &sim_;
    Channel &channel_;
    SimTimers timers_;
    FrameReceiver receiver_;
    std::map<std::uint64_t, Stream> streams_;
    std::uint64_t next_send_ = 1;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/** Resolves each attempt from a recorded wire trace, in virtual time. */
class ReplayBackend : public Backend
{
  public:
    /** @p trace must outlive the backend. */
    ReplayBackend(sim::Simulation &sim, const TransportTrace &trace);

    double now() const override;
    TimerId after(double delay_s, std::function<void()> fire) override;
    void cancelTimer(TimerId id) override;
    std::uint64_t openSend(LinkId link, const MessageKey &key) override;
    void sendFrame(std::uint64_t send_id, const FrameHeader &hdr,
                   std::span<const std::uint8_t> frag, double timeout_s,
                   VerdictCallback done,
                   std::function<void()> drop) override;
    void closeSend(std::uint64_t send_id) override;
    void setReceiverEventSink(EventSink sink) override;

    /** Trace records consumed so far. */
    std::size_t attemptsConsumed() const { return next_attempt_; }

    /**
     * First divergence between what the protocol core attempted and
     * what the trace recorded (empty = replay matched the wire).
     */
    const std::string &divergence() const { return divergence_; }

  private:
    struct Stream
    {
        LinkId link = 0;
        MessageKey key;
    };

    sim::Simulation &sim_;
    const TransportTrace &trace_;
    SimTimers timers_;
    std::map<std::uint64_t, Stream> streams_;
    std::uint64_t next_send_ = 1;
    std::size_t next_attempt_ = 0;
    std::string divergence_;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_DES_BACKEND_HPP
