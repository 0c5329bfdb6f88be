/**
 * @file
 * Real-socket transport backend: UDP datagrams.
 *
 * It runs the *identical* protocol core (ReliableLink +
 * FrameReceiver) the simulator proves out — the only new code is I/O:
 * nonblocking sockets on a single-threaded PollLoop, wall-clock
 * timers, and an acknowledgement frame per data frame (the DES twin
 * resolves verdicts in-process; a real peer has to say what it
 * decided). An ACK is a header-only FrameHeader echoing the data
 * frame's key/chunk, with flag bits for the receiver's decision; a
 * partial (truncated) delivery acks kFlagAckPartial with payload_off
 * = the contiguous chunk prefix received — which feeds straight into
 * resume-from-offset, so a cut datagram's tail is all that gets
 * resent.
 *
 * Given a TransportTrace, the sender side records an AttemptRecord per
 * frame and a receiver endpoint an RxRecord per frame — together
 * exactly what the cross-validation harness (crossval.hpp) needs to
 * replay the run through the DES twin and compare event logs
 * frame-for-frame. Without one, nothing is recorded.
 *
 * Backend selection is by construction (UdpBackend or the DES twin's
 * DesBackend); nothing in the protocol core branches on it.
 */
#ifndef ROG_NET_TRANSPORT_SOCKET_BACKEND_HPP
#define ROG_NET_TRANSPORT_SOCKET_BACKEND_HPP

#include <netinet/in.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/fd.hpp"
#include "common/poll_loop.hpp"
#include "net/transport/backend.hpp"
#include "net/transport/receiver.hpp"
#include "net/transport/socket_fault.hpp"

namespace rog {
namespace net {
namespace transport {

/** Knobs specific to the real-socket backend. */
struct SocketOptions
{
    /** Resend (verdict: timeout) if no ACK arrives by then. */
    double ack_timeout_s = 0.25;

    /**
     * Receiver endpoints: keep retrying a bind that fails with
     * EADDRINUSE for this long before giving up. A server restarted
     * onto its old port can race the kernel's cleanup of the dead
     * process's socket; 0 = fail on the first attempt.
     */
    double bind_retry_window_s = 0.0;
};

/** Build the ACK for a data frame given the receiver's result. */
FrameHeader makeAck(const FrameHeader &data,
                    const FrameReceiver::Result &r);

/**
 * Datagram backend: one connected UDP socket to the receiver. Keeps
 * the pending stop-and-wait attempts, resolves them by ACK or timeout,
 * and records the wire trace.
 */
class UdpBackend : public Backend
{
  public:
    /**
     * @param faults optional deterministic perturbation of outgoing
     *        data frames (drop/dup/truncate/corrupt/delay); ACKs are
     *        never touched. @p faults and @p trace must outlive the
     *        backend.
     */
    UdpBackend(PollLoop &loop, const std::string &host,
               std::uint16_t port, const SocketOptions &opts = {},
               SocketFaultInjector *faults = nullptr,
               TransportTrace *trace = nullptr);
    ~UdpBackend() override;

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

    /** The socket was created and connected successfully. */
    bool ok() const { return last_error_.empty(); }
    const std::string &error() const { return last_error_; }

  private:
    struct Stream
    {
        LinkId link = 0;
        MessageKey key;
    };

    struct Pending
    {
        std::uint64_t send_id = 0;
        FrameHeader hdr;
        VerdictCallback done;
        double started = 0.0;
        PollLoop::TimerHandle timer = 0;
    };

    /** Ship one serialized data frame (header + fragment) through the
     *  fault injector, if any. */
    void emitFrame(std::vector<std::uint8_t> &&bytes);
    void onReadable();

    /** An ACK frame arrived; resolve the matching pending attempt. */
    void handleAck(const FrameHeader &ack);

    void resolveTimeout(std::uint64_t send_id);
    void recordAttempt(const Pending &p, AttemptOutcome out,
                       std::uint64_t bytes_sent, bool complete);
    void fail(const std::string &what);

    PollLoop &loop_;
    SocketOptions opts_;
    TransportTrace *trace_ = nullptr;
    std::string last_error_;
    std::map<std::uint64_t, Stream> streams_;
    std::map<std::uint64_t, Pending> pending_; //!< by send stream id.
    std::uint64_t next_send_ = 1;
    UniqueFd fd_;
    SocketFaultInjector *faults_ = nullptr;
    /** Timers of the datagrams a `delay` fault holds back, keyed by
     *  a local id so each drops itself when it fires. The destructor
     *  cancels the rest: they would send through a freed backend. */
    std::map<std::uint64_t, PollLoop::TimerHandle> delayed_;
    std::uint64_t next_delayed_ = 0;
};

/**
 * UDP receiver endpoint: bind, reassemble, decide, ACK. Datagram
 * sources are distinguished per frame, so any number of senders can
 * push at one endpoint — ACKs return to each frame's source.
 *
 * The protocol half is the FrameReceiver every backend shares; its
 * decisions go to consumers the caller attaches: a DeliverySink for
 * delivered payloads, an EventSink for the structured event log and a
 * TransportTrace for the per-frame RxRecords the cross-validation
 * harness replays. None is kept unless the caller attaches it, and a
 * delivered message costs only its dedup record.
 */
class UdpReceiverEndpoint
{
  public:
    /**
     * @param port 0 binds an ephemeral port (see port()).
     * @param deliver receives each delivered message's payload (the
     *        session layer's receive path) once; a late duplicate is
     *        ACKed, never handed up again. Without one the endpoint
     *        keeps no payload bytes, only the decision state.
     * @param bind_retry_window_s see SocketOptions.
     */
    UdpReceiverEndpoint(PollLoop &loop, std::uint16_t port,
                        DeliverySink deliver = {},
                        double bind_retry_window_s = 0.0);
    ~UdpReceiverEndpoint();

    std::uint16_t port() const { return port_; }

    /** Stream every receiver decision as a TransportEvent. */
    void setEventSink(EventSink sink)
    {
        receiver_.setEventSink(std::move(sink));
    }

    /** Append one RxRecord per data frame to @p trace->rx; @p trace
     *  must outlive the endpoint (null stops recording). */
    void setTrace(TransportTrace *trace) { trace_ = trace; }

    std::size_t deliveredMessages() const
    {
        return receiver_.deliveredMessages();
    }
    bool ok() const { return last_error_.empty(); }
    const std::string &error() const { return last_error_; }

  private:
    void onReadable();
    /** Process one complete data frame; returns the ACK to send. */
    FrameHeader onDataFrame(const FrameHeader &hdr,
                            std::span<const std::uint8_t> present);
    void fail(const std::string &what);

    PollLoop &loop_;
    FrameReceiver receiver_;
    TransportTrace *trace_ = nullptr;
    std::string last_error_;
    UniqueFd fd_;
    std::uint16_t port_ = 0;
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_SOCKET_BACKEND_HPP
