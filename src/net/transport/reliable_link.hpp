/**
 * @file
 * Reliable, resumable message transport: the protocol core.
 *
 * ReliableLink carries a caller's message bytes. It frames each
 * message (FrameHeader with worker, version, row, chunk bookkeeping,
 * and a CRC32C over the chunk payload), sends it as a sequence of
 * chunked stop-and-wait frames, and retries cut or corrupted chunks
 * with deadline-aware exponential backoff and seeded deterministic
 * jitter. A retry resumes from the delivered byte offset rather than
 * from scratch, so a 90%-delivered chunk only resends its tail. The
 * receiver side (FrameReceiver) dedups chunks on (key, chunk_seq) for
 * its lifetime, so a duplicated delivery, or a second send of a
 * delivered key, is applied exactly once.
 *
 * The protocol core is backend-agnostic: every I/O and clocking
 * decision goes through the transport::Backend seam (backend.hpp).
 * Over the DES twin everything is deterministic: backoff jitter comes
 * from an Rng seeded by (config seed, message key), and every decision
 * is a pure function of the channel's behaviour, so the same seed and
 * fault plan replay the same timeline byte for byte. Over real sockets
 * the identical state machine runs in wall-clock time, and the
 * recorded event log cross-validates against a DES replay of the same
 * wire trace (see des_backend.hpp / crossval.hpp).
 *
 * The link records nothing itself: every decision goes to the
 * EventSink given at construction, if any.
 */
#ifndef ROG_NET_TRANSPORT_RELIABLE_LINK_HPP
#define ROG_NET_TRANSPORT_RELIABLE_LINK_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>

#include "common/buffer_pool.hpp"
#include "net/transport/backend.hpp"
#include "net/transport/event_log.hpp"
#include "net/transport/frame.hpp"

namespace rog {
namespace net {
namespace transport {

/** Outcome of one message send. */
struct SendResult
{
    bool delivered = false;        //!< all chunks accepted intact.
    bool deadline_expired = false; //!< gave up at the deadline.
    std::size_t chunks = 0;        //!< chunk count of the message.
    std::size_t attempts = 0;      //!< channel transfers started.
    std::size_t retries = 0;       //!< attempts beyond the first per chunk.
    double backoff_s = 0.0;        //!< total time spent backing off.
    std::size_t payload_bytes = 0; //!< application bytes requested.
    std::uint64_t bytes_sent = 0;  //!< payload + header bytes delivered.
    std::uint64_t retransmitted_bytes = 0; //!< delivered more than once.
    std::size_t corrupt_chunks = 0;   //!< CRC rejections at the receiver.
    std::size_t duplicate_chunks = 0; //!< dedup'd duplicate deliveries.
    double elapsed_s = 0.0;
};

/** Aggregate counters across every send on a ReliableLink. */
struct TransportTotals
{
    std::size_t sends = 0;
    std::size_t delivered = 0;
    std::size_t failed = 0;
    std::size_t attempts = 0;
    std::size_t retries = 0;
    double backoff_s = 0.0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t retransmitted_bytes = 0;
    std::size_t corrupt_chunks = 0;
    std::size_t duplicate_chunks = 0;
};

/** The reliability sublayer: one sender endpoint over one backend. */
class ReliableLink
{
  public:
    using Callback = std::function<void(SendResult)>;

    /**
     * Run the protocol core over @p backend (which must outlive the
     * link). @p sink receives every sender decision, and the link
     * binds it as the backend's receiver event sink too, so the two
     * sides read as one timeline; exactly one ReliableLink may drive a
     * backend. An empty sink records nothing.
     */
    ReliableLink(Backend &backend, const TransportConfig &config,
                 EventSink sink = {});
    ~ReliableLink();

    ReliableLink(const ReliableLink &) = delete;
    ReliableLink &operator=(const ReliableLink &) = delete;

    /**
     * Start sending the message @p payload; the receiver reassembles
     * the bytes for its DeliverySink and every checksum is computed
     * over them. An empty span is a valid zero-length message that
     * travels as one header-only chunk (delivery still means the
     * frame round-tripped intact).
     *
     * Lifetime: the link leases a retransmission copy from the
     * BufferPool before returning, so @p payload only has to stay
     * alive for the duration of this call; retries and resumed
     * fragments read the leased copy. Under ROG_SANITIZE builds every
     * attempt re-checksums the leased copy against the CRC taken here
     * and panics on a mismatch, so a clobbered pool buffer is caught
     * at the attempt that would have shipped it.
     *
     * @param deadline_s absolute deadline on the backend's clock
     *        (kNoDeadline for none); the send gives up,
     *        deadline-aware, instead of backing off past it.
     * @param done invoked exactly once with the result (unless the
     *        link or channel is destroyed first).
     * @param drop invoked instead of @p done on destruction mid-send.
     */
    void startSend(LinkId link, const MessageKey &key,
                   std::span<const std::uint8_t> payload, double deadline_s,
                   Callback done, std::function<void()> drop = {});

    /**
     * Abandon every in-flight send (each fires its @p done with
     * delivered=false, or its @p drop when no done was given). For
     * peer restarts: the remote came back with fresh receiver state,
     * so nothing sent to the old one is worth finishing. The receiver
     * is not touched: its state lives and dies with the remote process.
     */
    void reset();

    const TransportTotals &totals() const { return totals_; }

    /** The backend this link drives. */
    Backend &backend() { return backend_; }

  private:
    struct SendOp;

    void attempt(SendOp &op);
    void onFrameVerdict(std::uint64_t op_id, const FrameVerdict &v);
    void dropOp(std::uint64_t op_id);
    void resolveChunk(SendOp &op, const FrameVerdict &v);
    void scheduleRetry(SendOp &op);
    void finish(SendOp &op, bool delivered, bool expired);
    void logEvent(TransportEvent::Kind kind, const SendOp &op,
                  std::uint32_t seq, double a = 0.0, double b = 0.0);

    /** Payload bytes of chunk @p seq of @p op: a view into its leased
     *  copy. */
    std::span<const std::uint8_t> chunkPayload(const SendOp &op,
                                               std::uint32_t seq) const;

    Backend &backend_;
    TransportConfig config_;
    EventSink sink_;

    std::map<std::uint64_t, std::unique_ptr<SendOp>> ops_;
    std::uint64_t next_op_id_ = 1;

    TransportTotals totals_;

    /** Cleared by the destructor so stale backend callbacks no-op. */
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_RELIABLE_LINK_HPP
