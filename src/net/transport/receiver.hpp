/**
 * @file
 * Receiver half of the reliable transport protocol core.
 *
 * FrameReceiver owns every receiver-side decision: fragment
 * reassembly, the checksum verdict over a reassembled chunk,
 * exactly-once acceptance keyed on (message key, chunk sequence), and
 * end-of-message delivery. Exactly one implementation serves every
 * backend, through one entry point, the frame: the socket endpoints
 * feed it what came off the wire, the DES twin feeds it what the
 * simulated channel (and its fault layer) delivered, and the replay
 * harness feeds it a recorded trace, so a decision can never fork
 * between simulation and deployment. It keeps payload bytes only when
 * a DeliverySink is attached, and hands each message's bytes to that
 * sink once, at the frame that completes it.
 *
 * State is scoped per MessageKey for the receiver's lifetime, which is
 * the lifetime of the receiving process: a second send of a delivered
 * key is answered as a duplicate and never handed up again. Only a
 * restart of the receiving process (restart()) forgets delivered keys.
 */
#ifndef ROG_NET_TRANSPORT_RECEIVER_HPP
#define ROG_NET_TRANSPORT_RECEIVER_HPP

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "net/transport/backend.hpp"
#include "net/transport/event_log.hpp"
#include "net/transport/frame.hpp"

namespace rog {
namespace net {
namespace transport {

/**
 * Reassembles frames into chunks and decides each chunk.
 *
 * Tracks the contiguous byte prefix of each in-progress chunk; when a
 * frame completes its chunk, the assembled bytes get the CRC verdict
 * and the acceptance decision. A fragment that starts past the prefix
 * is answered with the prefix and never buffered, so the sender
 * resumes from what this receiver holds. A chunk that fails its CRC is
 * wiped, so the retry rebuilds it from offset zero.
 *
 * State is proportional to messages in flight. The frame that
 * completes a message retires it: its payload goes to the DeliverySink
 * once, its chunk buffers and accepted set are dropped, and the key
 * keeps one payload-free record (the length of its accepted chunk
 * prefix) in a flat open-addressed table. A late frame for a retired
 * key gets the same decision and events as before retirement; it is
 * never delivered again.
 */
class FrameReceiver
{
  public:
    /** What one incoming frame resolved to. */
    struct Result
    {
        /** The frame completed its chunk (the decision below is valid). */
        bool chunk_complete = false;

        /** Contiguous chunk bytes present after this frame. */
        std::uint64_t prefix = 0;

        // --- decision about the completed chunk ---

        /** Checksum verdict over the reassembled chunk. */
        bool crc_ok = false;

        /** The chunk was applied as new payload. */
        std::size_t fresh_accepts = 0;

        /** The chunk had already been accepted. */
        std::size_t duplicates = 0;

        /** Every chunk of the message is now accepted. */
        bool message_complete = false;

        /** This frame delivered its message (at most once per key). */
        bool delivered = false;
    };

    /**
     * @param clock stamps emitted events (virtual or wall seconds).
     * @param sink receives every decision as a TransportEvent; empty
     *        records nothing.
     * @param deliver receives each delivered message's reassembled
     *        bytes; empty keeps no payload bytes at all.
     */
    explicit FrameReceiver(std::function<double()> clock,
                           EventSink sink = {}, DeliverySink deliver = {});

    void setEventSink(EventSink sink) { sink_ = std::move(sink); }

    /**
     * One data frame arrived with @p present payload bytes (possibly
     * fewer than hdr.payload_len claims — a truncated delivery). The
     * bytes are taken exactly as received: a corrupted delivery hands
     * in the garbled bytes and the CRC verdict is computed here.
     */
    Result onFrame(LinkId link, const FrameHeader &hdr,
                   std::span<const std::uint8_t> present);

    /**
     * Drop every piece of per-key state, as the receiving process
     * does when it restarts: the next frame of any key starts afresh.
     * The sinks stay attached.
     */
    void restart();

    /** Messages fully delivered since construction. */
    std::size_t deliveredMessages() const { return delivered_count_; }

    /** Messages with a chunk accepted but not yet delivered. */
    std::size_t liveMessages() const { return messages_.size(); }

    /** Partially received chunks currently buffered. */
    std::size_t chunkBuffers() const { return bufs_.size(); }

    /** Bytes of the largest partially received chunk buffer. */
    std::size_t largestChunkBuffer() const;

    /** Delivered (retired) keys remembered. */
    std::size_t deliveredKeys() const { return delivered_.size(); }

    /** Heap bytes of the delivered-key table. */
    std::size_t deliveredBytes() const { return delivered_.bytes(); }

  private:
    /** An undelivered message with at least one accepted chunk. */
    struct MessageState
    {
        std::set<std::uint32_t> accepted;
        /** Accepted chunk bytes, kept only for a DeliverySink. */
        std::map<std::uint32_t, std::vector<std::uint8_t>> chunks;
    };

    struct ChunkBuf
    {
        std::vector<std::uint8_t> bytes;
        std::uint64_t prefix = 0;
    };

    /**
     * Delivered keys, each with the length of its accepted chunk
     * prefix: linear probing over a power-of-two slot array, grown at
     * 3/4 load. Keys are never removed (a delivered key is remembered
     * for the receiver's lifetime), so no tombstones.
     */
    class DeliveredKeys
    {
      public:
        /** The accepted prefix recorded for @p key, or null. */
        const std::uint32_t *find(const MessageKey &key) const;
        void insert(const MessageKey &key, std::uint32_t accepted_prefix);
        std::size_t size() const { return size_; }
        std::size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

      private:
        struct Slot
        {
            std::int64_t version = 0;
            std::uint32_t row = 0;
            std::uint32_t accepted_prefix = 0;
            std::uint16_t worker = 0;
            bool pull = false;
            bool used = false;
        };

        std::size_t slotOf(const MessageKey &key) const;

        std::vector<Slot> slots_;
        std::size_t size_ = 0;
    };

    /** Decide the whole chunk @p chunk of message @p key. */
    void decide(Result &r, LinkId link, const MessageKey &key,
                const FrameHeader &hdr,
                std::span<const std::uint8_t> chunk);
    /** Retire @p key's completed message and hand its bytes up. */
    void deliver(Result &r, LinkId link, const MessageKey &key,
                 const FrameHeader &hdr, MessageState &&m);
    /** Report one CRC-intact chunk as a fresh accept or a duplicate. */
    void noteChunk(Result &r, LinkId link, const MessageKey &key,
                   std::uint32_t seq, bool fresh, std::size_t chunk_len);
    void emit(TransportEvent::Kind kind, LinkId link,
              const MessageKey &key, std::uint32_t seq, double a = 0.0);

    std::function<double()> clock_;
    EventSink sink_;
    DeliverySink deliver_;
    std::map<MessageKey, MessageState> messages_; //!< in flight only.
    std::map<std::pair<MessageKey, std::uint32_t>, ChunkBuf> bufs_;
    DeliveredKeys delivered_;
    /** Accepted chunks of delivered keys past their prefix. */
    std::set<std::pair<MessageKey, std::uint32_t>> delivered_extra_;
    std::size_t delivered_count_ = 0;
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_RECEIVER_HPP
