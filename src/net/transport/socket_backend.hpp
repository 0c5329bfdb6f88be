/**
 * @file
 * Real-socket transport backends: UDP datagrams and loopback TCP.
 *
 * Both run the *identical* protocol core (ReliableLink +
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
 * Backend selection is by construction (the harness reads
 * ROG_TRANSPORT_BACKEND=des|udp|tcp); nothing in the protocol core
 * branches on it.
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

/** Knobs specific to the real-socket backends. */
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
 * Sender-side machinery shared by the UDP and TCP backends: pending
 * stop-and-wait attempts, ACK resolution, timeout resolution, and
 * wire-trace recording. Subclasses only move bytes.
 */
class SocketSenderBase : public Backend
{
  public:
    SocketSenderBase(PollLoop &loop, const SocketOptions &opts,
                     TransportTrace *trace);
    ~SocketSenderBase() override;

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

  protected:
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

    /** Ship one serialized data frame (header + fragment). */
    virtual void emitFrame(std::vector<std::uint8_t> &&bytes) = 0;

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
};

/** Datagram backend: one connected UDP socket to the receiver. */
class UdpBackend : public SocketSenderBase
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

  protected:
    void emitFrame(std::vector<std::uint8_t> &&bytes) override;

  private:
    void onReadable();

    UniqueFd fd_;
    SocketFaultInjector *faults_ = nullptr;
    /** Timers of the datagrams a `delay` fault holds back, keyed by
     *  a local id so each drops itself when it fires. The destructor
     *  cancels the rest: they would send through a freed backend. */
    std::map<std::uint64_t, PollLoop::TimerHandle> delayed_;
    std::uint64_t next_delayed_ = 0;
};

/** Stream backend: one loopback TCP connection to the receiver. */
class TcpBackend : public SocketSenderBase
{
  public:
    TcpBackend(PollLoop &loop, const std::string &host,
               std::uint16_t port, const SocketOptions &opts = {},
               TransportTrace *trace = nullptr);
    ~TcpBackend() override;

  protected:
    void emitFrame(std::vector<std::uint8_t> &&bytes) override;

  private:
    void onEvents(short revents);
    void flushOut();
    /** Stop using the stream after a peer close or a bad ACK stream. */
    void closeStream(const char *why);

    UniqueFd fd_;
    bool connected_ = false;
    std::vector<std::uint8_t> out_; //!< unflushed outgoing bytes.
    std::vector<std::uint8_t> in_;  //!< buffered incoming ACK bytes.
};

/**
 * Receiver-side endpoint shared state: the protocol half (the
 * FrameReceiver every backend shares) and the optional consumers of
 * its decisions: a DeliverySink for delivered payloads, an EventSink
 * for the structured event log and a TransportTrace for the per-frame
 * RxRecords the cross-validation harness replays. None is kept unless
 * the caller attaches it, and a delivered message costs only its
 * dedup record.
 */
class ReceiverEndpointBase
{
  public:
    /**
     * @param deliver receives each delivered message's payload (the
     *        session layer's receive path) once; a late duplicate is
     *        ACKed, never handed up again. Without one the endpoint
     *        keeps no payload bytes, only the decision state.
     */
    explicit ReceiverEndpointBase(PollLoop &loop, DeliverySink deliver = {});
    virtual ~ReceiverEndpointBase() = default;

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

  protected:
    /** Process one complete data frame; returns the ACK to send. */
    FrameHeader onDataFrame(const FrameHeader &hdr,
                            std::span<const std::uint8_t> present);
    void fail(const std::string &what);

    PollLoop &loop_;
    FrameReceiver receiver_;
    TransportTrace *trace_ = nullptr;
    std::string last_error_;
};

/** UDP receiver endpoint: bind, reassemble, decide, ACK. Datagram
 *  sources are distinguished per frame, so any number of senders can
 *  push at one endpoint — ACKs return to each frame's source. */
class UdpReceiverEndpoint : public ReceiverEndpointBase
{
  public:
    /** @param port 0 binds an ephemeral port (see port()).
     *  @param deliver see ReceiverEndpointBase.
     *  @param bind_retry_window_s see SocketOptions. */
    UdpReceiverEndpoint(PollLoop &loop, std::uint16_t port,
                        DeliverySink deliver = {},
                        double bind_retry_window_s = 0.0);
    ~UdpReceiverEndpoint() override;

    std::uint16_t port() const { return port_; }

  private:
    void onReadable();

    UniqueFd fd_;
    std::uint16_t port_ = 0;
};

/**
 * TCP receiver endpoint: listen, accept any number of senders, decide,
 * ACK on the connection the data came in on. A peer that dies (reset,
 * half-open close) or writes a byte stream that is not data frames
 * costs only its own connection — the endpoint keeps serving the
 * rest, and the exactly-once state survives for when the peer
 * reconnects.
 */
class TcpReceiverEndpoint : public ReceiverEndpointBase
{
  public:
    TcpReceiverEndpoint(PollLoop &loop, std::uint16_t port,
                        DeliverySink deliver = {},
                        double bind_retry_window_s = 0.0);
    ~TcpReceiverEndpoint() override;

    std::uint16_t port() const { return port_; }

    /** Currently accepted sender connections. */
    std::size_t connections() const { return conns_.size(); }

  private:
    struct Conn
    {
        UniqueFd fd;
        std::vector<std::uint8_t> in;
        std::vector<std::uint8_t> out;
    };

    void onListenReadable();
    void onConnEvents(int fd, short revents);
    /** Flush pending ACK bytes; rearm POLLOUT while any remain. */
    void flushConn(Conn &c);
    void dropConn(int fd);

    UniqueFd listen_fd_;
    std::map<int, Conn> conns_;
    std::uint16_t port_ = 0;
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_SOCKET_BACKEND_HPP
