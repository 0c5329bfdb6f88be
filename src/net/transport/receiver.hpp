/**
 * @file
 * Receiver half of the reliable transport protocol core.
 *
 * ChunkReceiver owns every receiver-side decision: the checksum
 * verdict over a reassembled chunk, exactly-once acceptance keyed on
 * chunk sequence, and end-of-message delivery. Exactly one
 * implementation serves every backend: the DES twin feeds it what the
 * simulated channel delivered, the socket receiver endpoint feeds it
 * what came off the wire, and the replay harness feeds it a recorded
 * trace, so a decision can never fork between simulation and
 * deployment. It keeps payload bytes only when a DeliverySink is
 * attached, and hands each message's bytes to that sink once, at the
 * chunk that completes it.
 *
 * State is scoped per message *instance* (an opaque id the caller
 * picks): the simulator scopes instances per send so repeated keys
 * stay independent and releases each one when its send closes, while
 * a real receiver endpoint maps each distinct MessageKey to one
 * instance for true cross-process exactly-once and retires it at
 * delivery (retire(), onRetiredChunk(); see FrameAssembler).
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

/** Receiver-side protocol decisions, shared by every backend. */
class ChunkReceiver
{
  public:
    /** What one completed chunk delivery resolved to. */
    struct Decision
    {
        bool crc_ok = false;
        std::size_t fresh_accepts = 0;
        std::size_t duplicates = 0;
        bool message_complete = false;
    };

    /**
     * @param clock stamps emitted events (virtual or wall seconds).
     * @param sink receives every decision as a TransportEvent; empty
     *        records nothing.
     * @param deliver receives each delivered message's reassembled
     *        bytes; empty keeps no payload bytes at all.
     */
    explicit ChunkReceiver(std::function<double()> clock,
                           EventSink sink = {}, DeliverySink deliver = {});

    void setEventSink(EventSink sink) { sink_ = std::move(sink); }

    /**
     * One complete chunk arrived (all fragments reassembled) for
     * message @p instance: verify, dedup or accept, and deliver when
     * the message completes.
     *
     * @param chunk the chunk payload exactly as received (a corrupted
     *        delivery hands in the garbled bytes: the CRC verdict is
     *        recomputed here, never trusted from a flag).
     * @param duplicated_hint the wire delivered this frame twice.
     */
    Decision onChunk(std::uint64_t instance, LinkId link,
                     const MessageKey &key, const FrameHeader &hdr,
                     std::span<const std::uint8_t> chunk,
                     bool duplicated_hint);

    /** Drop all state for @p instance. */
    void release(std::uint64_t instance);

    /** What a delivered instance leaves behind once retired. */
    struct Retired
    {
        /** Chunks [0, accepted_prefix) were accepted... */
        std::uint32_t accepted_prefix = 0;

        /** ...and so were these, all past the prefix. Empty unless a
         *  sender framed chunk_seq >= chunk_count. */
        std::vector<std::uint32_t> accepted_extra;
    };

    /** Drop every piece of state of delivered @p instance. */
    Retired retire(std::uint64_t instance);

    /**
     * One complete chunk for a message that was delivered and then
     * retired: the CRC verdict and events onChunk() would have
     * produced from the kept state. @p fresh says whether
     * the chunk's sequence number is missing from the message's
     * accepted set; the caller adds it there when the decision shows a
     * fresh accept.
     */
    Decision onRetiredChunk(LinkId link, const MessageKey &key,
                            const FrameHeader &hdr,
                            std::span<const std::uint8_t> chunk,
                            bool fresh);

    /** Messages fully delivered since construction. */
    std::size_t deliveredMessages() const { return delivered_; }

    /** Instances with live state (opened, neither released nor
     *  retired). */
    std::size_t liveMessages() const { return messages_.size(); }

  private:
    struct MessageState
    {
        LinkId link = 0;
        MessageKey key;
        std::uint32_t chunk_count = 1;
        bool complete = false;
        std::set<std::uint32_t> accepted;
        /** Accepted chunk bytes, kept only for a DeliverySink. */
        std::map<std::uint32_t, std::vector<std::uint8_t>> chunks;
    };

    void acceptOnce(MessageState &m, const FrameHeader &hdr,
                    std::span<const std::uint8_t> chunk, Decision &d);
    /** Verdict over @p chunk; a failure is reported and dropped. */
    bool checkCrc(LinkId link, const MessageKey &key,
                  const FrameHeader &hdr,
                  std::span<const std::uint8_t> chunk);
    /** Report one CRC-intact chunk as a fresh accept or a duplicate. */
    void noteChunk(LinkId link, const MessageKey &key, std::uint32_t seq,
                   bool fresh, std::size_t chunk_len, Decision &d);
    void emit(TransportEvent::Kind kind, LinkId link,
              const MessageKey &key, std::uint32_t seq, double a = 0.0);

    std::function<double()> clock_;
    EventSink sink_;
    DeliverySink deliver_;
    std::map<std::uint64_t, MessageState> messages_;
    std::size_t delivered_ = 0;
};

/**
 * Fragment-reassembly front end for receivers that see frames one
 * wire delivery at a time (the socket endpoints and the trace
 * replayer — the DES twin hands ChunkReceiver whole chunks directly).
 *
 * Tracks the contiguous byte prefix of each in-progress chunk; when a
 * frame completes its chunk, the assembled bytes go to ChunkReceiver
 * for the CRC verdict and acceptance decision. A chunk that fails its
 * CRC is wiped, so the retry rebuilds it from scratch — mirroring the
 * simulator's restart-the-chunk-on-corruption rule. Message instances
 * are scoped per distinct MessageKey: cross-process exactly-once.
 *
 * State is proportional to messages in flight. The frame that
 * completes a message retires it: its payload goes to the
 * ChunkReceiver's DeliverySink once, its instance, chunk buffers and
 * receiver state are dropped, and the key keeps one payload-free
 * record (the length of its accepted chunk prefix) in a flat
 * open-addressed table. A late frame for a retired key gets the same
 * ACK decision and events as before retirement; it is never delivered
 * again.
 */
class FrameAssembler
{
  public:
    /** What one incoming frame resolved to. */
    struct Result
    {
        /** The frame completed its chunk (decision below is valid). */
        bool chunk_complete = false;

        /** Contiguous chunk bytes present after this frame. */
        std::uint64_t prefix = 0;

        ChunkReceiver::Decision decision;

        /** This frame delivered its message (at most once per key). */
        bool delivered = false;
    };

    /** @param rx makes every protocol decision; must outlive this. */
    explicit FrameAssembler(ChunkReceiver &rx) : rx_(rx) {}

    /**
     * One data frame arrived with @p present payload bytes (possibly
     * fewer than hdr.payload_len claims — a truncated delivery).
     */
    Result onFrame(LinkId link, const FrameHeader &hdr,
                   std::span<const std::uint8_t> present);

    /** Partially received chunks currently buffered. */
    std::size_t chunkBuffers() const { return bufs_.size(); }

    /** Bytes of the largest partially received chunk buffer. */
    std::size_t largestChunkBuffer() const;

    /** Delivered (retired) keys remembered. */
    std::size_t deliveredKeys() const { return delivered_.size(); }

    /** Heap bytes of the delivered-key table. */
    std::size_t deliveredBytes() const { return delivered_.bytes(); }

  private:
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

    /** Decide a whole chunk of message @p key. */
    void decide(Result &r, LinkId link, const MessageKey &key,
                const FrameHeader &hdr,
                std::span<const std::uint8_t> chunk);

    ChunkReceiver &rx_;
    std::map<MessageKey, std::uint64_t> instances_; //!< in flight only.
    std::uint64_t next_instance_ = 1;
    std::map<std::pair<MessageKey, std::uint32_t>, ChunkBuf> bufs_;
    DeliveredKeys delivered_;
    /** Accepted chunks of delivered keys past their prefix. */
    std::set<std::pair<MessageKey, std::uint32_t>> delivered_extra_;
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_RECEIVER_HPP
