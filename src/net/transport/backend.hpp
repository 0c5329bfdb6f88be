/**
 * @file
 * Transport backend abstraction: the seam between ReliableLink's
 * protocol logic and everything that differs between a simulated and
 * a real wire.
 *
 * The protocol core (framing, CRC'd chunks, resume-from-offset,
 * exactly-once receive, deadline-aware backoff) is a pure state
 * machine over three primitives a backend provides:
 *
 *   - a clock (virtual seconds in the DES twin, monotonic wall-clock
 *     seconds over real sockets),
 *   - one-shot timers (the backoff schedule),
 *   - a frame exchange: ship one framed fragment of caller bytes and
 *     resolve it to a FrameVerdict: did the frame arrive whole, and
 *     what did the receiver decide about it.
 *
 * Three backends implement the interface with zero forks in the
 * protocol core:
 *
 *   - DesBackend (des_backend.hpp): the deterministic twin. Frames
 *     travel the fluid-simulated Channel; receiver decisions come from
 *     a local FrameReceiver fed each frame exactly as the channel (and
 *     its fault layer) delivered it, and a delivered payload goes to a
 *     DeliverySink at the frame that completes it.
 *   - UdpBackend (socket_backend.hpp): a real nonblocking datagram
 *     socket in wall-clock time; receiver decisions come back as
 *     acknowledgement frames from the peer's FrameReceiver, whose
 *     endpoint hands delivered payloads to the same kind of sink.
 *   - ReplayBackend (des_backend.hpp): re-resolves each attempt from
 *     a recorded wire trace inside the simulator — the cross-
 *     validation twin for real-socket runs.
 *
 * Every decision, sender or receiver side, is reported as one
 * TransportEvent to an EventSink the caller attaches (an event log, an
 * invariant checker, or both); with none attached nothing is recorded.
 */
#ifndef ROG_NET_TRANSPORT_BACKEND_HPP
#define ROG_NET_TRANSPORT_BACKEND_HPP

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "net/transport/event_log.hpp"
#include "net/transport/frame.hpp"

namespace rog {
namespace net {
namespace transport {

/** Knobs for the reliability sublayer. */
struct TransportConfig
{
    /** Payload bytes per chunk (a chunk is the CRC/retry unit). */
    std::size_t chunk_bytes = 16 * 1024;

    /** Attempts per chunk before the send fails (0 = unbounded). */
    std::size_t max_attempts_per_chunk = 8;

    double backoff_base_s = 0.05; //!< first retry delay.
    double backoff_max_s = 2.0;   //!< exponential growth cap.

    /** Jitter: delay is scaled by 1 +/- jitter_frac, deterministically. */
    double jitter_frac = 0.25;
    std::uint64_t jitter_seed = 0x7261676Eull;

    /**
     * Resume retries from the delivered byte offset. Off = the
     * from-scratch baseline: every retry resends the whole chunk
     * (used to measure what resumption saves).
     */
    bool resume_from_offset = true;

    /** Chunks a @p bytes-byte message travels as; an empty message is
     *  one header-only chunk. */
    std::uint32_t
    chunkCount(std::size_t bytes) const
    {
        return static_cast<std::uint32_t>(
            bytes == 0 ? 1 : (bytes + chunk_bytes - 1) / chunk_bytes);
    }
};

/** No deadline: retry until delivered or out of attempts. */
inline constexpr double kNoDeadline =
    std::numeric_limits<double>::infinity();

/**
 * Ceiling on the retry backoff exponent. With unbounded retries (a
 * partition lasting hours against max_attempts_per_chunk = 0) the
 * doubling exponent would grow without limit; past ~2^32 the pow()
 * result dwarfs any backoff_max_s and the exponent itself stops being
 * meaningful in event logs. Delays saturate at
 * min(backoff_max_s, base * 2^kMaxBackoffExponent) instead.
 */
inline constexpr std::size_t kMaxBackoffExponent = 32;

/** Opaque one-shot timer handle (0 = invalid / never scheduled). */
using TimerId = std::uint64_t;

/**
 * How one frame attempt resolved: transit outcome plus the receiver's
 * decision about the chunk the frame completed (if it completed one).
 */
struct FrameVerdict
{
    /** The whole frame reached the receiver. */
    bool completed = false;

    /** Wire bytes that arrived (header + intact payload prefix). */
    std::uint64_t bytes_sent = 0;

    /**
     * Contiguous bytes of the chunk the receiver reports holding after
     * a frame that did not complete it (a partial ACK), when it
     * reported one. The sender resumes there, even behind its own
     * offset: a receiver that restarted mid-chunk holds nothing. A
     * replayed trace records progress, not the report, so the replay
     * leaves it empty.
     */
    std::optional<std::uint64_t> receiver_prefix;

    // --- receiver decision, meaningful only when completed ---

    /** Checksum verdict over the reassembled chunk. */
    bool crc_ok = false;

    /** Chunks applied as new payload by this delivery. */
    std::size_t fresh_accepts = 0;

    /** Deliveries dedup'd against already-accepted chunks. */
    std::size_t duplicates = 0;

    /** Every chunk of the message is now accepted. */
    bool message_complete = false;
};

/**
 * Hand-off of a fully delivered message's reassembled payload bytes,
 * moved out of the receiver. Fired exactly once per message, at the
 * frame that completes it; a late duplicate is never handed up again.
 */
using DeliverySink =
    std::function<void(const MessageKey &, std::vector<std::uint8_t> &&)>;

/** I/O + clocking provider for the transport protocol core. */
class Backend
{
  public:
    using VerdictCallback = std::function<void(const FrameVerdict &)>;

    virtual ~Backend() = default;

    /** Current time in seconds (virtual or monotonic wall). */
    virtual double now() const = 0;

    /** Schedule @p fire once after @p delay_s seconds. */
    virtual TimerId after(double delay_s, std::function<void()> fire) = 0;

    /** Cancel a pending timer; no-op if fired or invalid. */
    virtual void cancelTimer(TimerId id) = 0;

    /**
     * Open a per-message send stream: the handle of the sender's
     * stop-and-wait exchange. Receivers dedup per key, not per stream:
     * a second send of a delivered key is answered as a duplicate.
     */
    virtual std::uint64_t openSend(LinkId link, const MessageKey &key) = 0;

    /**
     * Ship one framed fragment and resolve it.
     *
     * @param hdr the frame header exactly as the protocol core built
     *        it (the backend serializes it onto its wire).
     * @param frag the fragment's payload bytes; the backend copies
     *        them onto its wire before returning.
     * @param timeout_s seconds until the exchange is cut
     *        (infinity = none).
     * @param done invoked exactly once with the verdict, unless the
     *        send is aborted or the backend torn down first.
     * @param drop invoked instead of @p done if the backend's wire is
     *        destroyed with the exchange pending (may be empty).
     *
     * At most one frame per send stream may be outstanding — the
     * protocol is stop-and-wait within a message.
     */
    virtual void sendFrame(std::uint64_t send_id, const FrameHeader &hdr,
                           std::span<const std::uint8_t> frag,
                           double timeout_s, VerdictCallback done,
                           std::function<void()> drop) = 0;

    /**
     * Close a send stream, after its final verdict or mid-flight
     * (the sender gave up, was reset or destroyed). Fires no
     * callbacks and emits no events.
     */
    virtual void closeSend(std::uint64_t send_id) = 0;

    /**
     * Sink for receiver-side events decided in-process (the DES twin).
     * ReliableLink binds its own sink here so sender and receiver
     * events read as one timeline. Backends whose receiver lives in
     * another process never call it.
     */
    virtual void setReceiverEventSink(EventSink sink) = 0;
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_BACKEND_HPP
