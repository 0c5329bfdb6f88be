/**
 * @file
 * Test oracle: the socket receive path as it was before delivered
 * messages were retired — ChunkReceiver keeping every message's full
 * state (accepted set, chunk map, assembled payload) for the
 * receiver's lifetime, and FrameAssembler mapping every key it ever
 * saw to an instance in a std::map.
 *
 * transport_receiver_diff_test drives this and the production
 * FrameAssembler with the same frame stream and compares every ACK and
 * every TransportEvent. The one intended difference is delivery: this
 * oracle reports the retained payload again on every late frame of a
 * completed message; production hands it up once.
 *
 * Only what the socket path uses is kept (no reorder/duplicate hints,
 * no abandon or release). Production code never links this.
 */
#ifndef ROG_TESTS_NET_LEGACY_RECEIVER_HPP
#define ROG_TESTS_NET_LEGACY_RECEIVER_HPP

#include <cstdint>
#include <functional>
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
namespace legacy {

class ChunkReceiver
{
  public:
    struct Decision
    {
        bool crc_ok = false;
        std::size_t fresh_accepts = 0;
        std::size_t duplicates = 0;
        bool message_complete = false;
        const std::vector<std::uint8_t> *assembled = nullptr;
    };

    ChunkReceiver(std::function<double()> clock, EventSink sink);

    void open(std::uint64_t instance, bool store_payload);
    Decision onChunk(std::uint64_t instance, LinkId link,
                     const MessageKey &key, const FrameHeader &hdr,
                     std::span<const std::uint8_t> chunk,
                     double chunk_len);

    std::size_t deliveredMessages() const { return delivered_; }
    std::size_t messageStates() const { return messages_.size(); }

  private:
    struct MessageState
    {
        LinkId link = 0;
        MessageKey key;
        std::uint32_t chunk_count = 1;
        bool store_payload = true;
        bool complete = false;
        std::set<std::uint32_t> accepted;
        std::map<std::uint32_t, std::vector<std::uint8_t>> chunks;
        std::vector<std::uint8_t> assembled;
    };

    void acceptOnce(MessageState &m, const FrameHeader &hdr,
                    std::span<const std::uint8_t> chunk, double chunk_len,
                    Decision &d);
    void emit(TransportEvent::Kind kind, const MessageState &m,
              std::uint32_t seq, double a = 0.0);

    std::function<double()> clock_;
    EventSink sink_;
    std::map<std::uint64_t, MessageState> messages_;
    std::size_t delivered_ = 0;
};

class FrameAssembler
{
  public:
    struct Result
    {
        bool chunk_complete = false;
        std::uint64_t prefix = 0;
        ChunkReceiver::Decision decision;
    };

    FrameAssembler(ChunkReceiver &rx, bool store_payload);

    Result onFrame(LinkId link, const FrameHeader &hdr,
                   std::span<const std::uint8_t> present);

    std::size_t chunkBuffers() const { return bufs_.size(); }

  private:
    struct ChunkBuf
    {
        std::vector<std::uint8_t> bytes;
        std::uint64_t prefix = 0;
    };

    ChunkReceiver &rx_;
    bool store_payload_ = false;
    std::map<MessageKey, std::uint64_t> instances_;
    std::uint64_t next_instance_ = 1;
    std::map<std::pair<std::uint64_t, std::uint32_t>, ChunkBuf> bufs_;
};

} // namespace legacy
} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_TESTS_NET_LEGACY_RECEIVER_HPP
