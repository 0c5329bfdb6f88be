/**
 * @file
 * kFlagAckPartial over TCP. The stream backend never truncates a
 * frame in flight (the endpoint reassembles whole frames), so the
 * partial-ACK path over TCP is the *state-loss* one: a sender resumes
 * a chunk from a nonzero offset — exactly what ReliableLink does
 * after earlier partial progress — but the receiver process restarted
 * and holds no prefix. The gap fragment must come back as
 * kFlagAckPartial carrying the receiver's true prefix (zero), the
 * sender restarts the chunk from that offset, and delivery still
 * happens exactly once. Also pinned here over TCP: duplicate-chunk
 * dedup and the CRC-failure-wipes-the-chunk rule, both previously
 * exercised only on UDP.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/crc32c.hpp"
#include "common/poll_loop.hpp"
#include "net/transport/socket_backend.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

constexpr std::size_t kChunkBytes = 6000;

std::vector<std::uint8_t>
patternChunk()
{
    std::vector<std::uint8_t> chunk(kChunkBytes);
    for (std::size_t i = 0; i < chunk.size(); ++i)
        chunk[i] = static_cast<std::uint8_t>(i * 31 + 7);
    return chunk;
}

MessageKey
testKey()
{
    MessageKey key;
    key.worker = 1;
    key.version = 9;
    key.row = 5;
    key.pull = false;
    return key;
}

FrameHeader
fragmentHeader(const std::vector<std::uint8_t> &chunk,
               std::size_t off, std::size_t len)
{
    FrameHeader hdr;
    hdr.worker = 1;
    hdr.version = 9;
    hdr.row = 5;
    hdr.chunk_seq = 0;
    hdr.chunk_count = 1;
    hdr.payload_off = off;
    hdr.payload_len = static_cast<std::uint32_t>(len);
    // The CRC always covers the complete chunk, never the fragment.
    hdr.payload_crc = crc32c({chunk.data(), chunk.size()});
    return hdr;
}

class TcpPartialAck : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        rx = std::make_unique<TcpReceiverEndpoint>(loop, 0);
        ASSERT_TRUE(rx->ok()) << rx->error();
        SocketOptions opts;
        opts.ack_timeout_s = 2.0; // ACKs must win, not timeouts.
        tx = std::make_unique<TcpBackend>(loop, "127.0.0.1",
                                          rx->port(), opts);
        ASSERT_TRUE(tx->ok()) << tx->error();
        send_id = tx->openSend(0, testKey());
    }

    /** Ship one fragment and run the loop until its verdict lands. */
    FrameVerdict
    sendFragment(const std::vector<std::uint8_t> &chunk,
                 std::size_t off, std::size_t len)
    {
        std::optional<FrameVerdict> verdict;
        tx->sendFrame(
            send_id, fragmentHeader(chunk, off, len),
            {chunk.data() + off, len}, /*timeout_s=*/2.0,
            [&](const FrameVerdict &v) { verdict = v; }, [] {});
        EXPECT_TRUE(
            loop.runUntil([&] { return verdict.has_value(); }, 5.0))
            << "no verdict within 5s";
        return verdict.value_or(FrameVerdict{});
    }

    PollLoop loop;
    std::unique_ptr<TcpReceiverEndpoint> rx;
    std::unique_ptr<TcpBackend> tx;
    std::uint64_t send_id = 0;
};

TEST_F(TcpPartialAck, GapFragmentPartialAcksThenRestartDelivers)
{
    const std::vector<std::uint8_t> chunk = patternChunk();

    // Resume-from-offset against a receiver with no prefix (the
    // restarted-server case): the tail fragment cannot complete the
    // chunk, and the partial ACK reports prefix 0 — zero payload
    // progress for this attempt.
    const FrameVerdict partial = sendFragment(chunk, 3000, 3000);
    EXPECT_FALSE(partial.completed);
    EXPECT_EQ(partial.fresh_accepts, 0u);
    EXPECT_EQ(partial.bytes_sent, FrameHeader::kWireSize);
    EXPECT_EQ(rx->deliveredMessages(), 0u);

    // The sender restarts the chunk from the acked prefix: one whole
    // frame, accepted, message complete, delivered exactly once.
    const FrameVerdict full = sendFragment(chunk, 0, kChunkBytes);
    EXPECT_TRUE(full.completed);
    EXPECT_TRUE(full.crc_ok);
    EXPECT_EQ(full.fresh_accepts, 1u);
    EXPECT_TRUE(full.message_complete);
    EXPECT_EQ(rx->deliveredMessages(), 1u);
    tx->closeSend(send_id);
}

TEST_F(TcpPartialAck, DuplicateChunkDedupsExactlyOnce)
{
    const std::vector<std::uint8_t> chunk = patternChunk();
    const FrameVerdict first = sendFragment(chunk, 0, kChunkBytes);
    ASSERT_TRUE(first.completed);
    EXPECT_EQ(first.fresh_accepts, 1u);

    // A replay of the accepted chunk — the retransmit a lost ACK
    // would cause — must dedup, not double-deliver.
    const FrameVerdict again = sendFragment(chunk, 0, kChunkBytes);
    EXPECT_TRUE(again.completed);
    EXPECT_TRUE(again.crc_ok);
    EXPECT_EQ(again.fresh_accepts, 0u);
    EXPECT_EQ(again.duplicates, 1u);
    EXPECT_EQ(rx->deliveredMessages(), 1u);
    tx->closeSend(send_id);
}

TEST_F(TcpPartialAck, CrcFailureWipesChunkThenFullResendDelivers)
{
    const std::vector<std::uint8_t> chunk = patternChunk();

    // A fragment framed short of the chunk end reassembles into a
    // "complete" 4000-byte chunk whose CRC (computed over the true
    // 6000 bytes) cannot match: the receiver discards and wipes the
    // buffer, per the restart-the-chunk-on-corruption rule.
    const FrameVerdict bad = sendFragment(chunk, 0, 4000);
    EXPECT_TRUE(bad.completed);
    EXPECT_FALSE(bad.crc_ok);
    EXPECT_EQ(bad.fresh_accepts, 0u);
    EXPECT_EQ(rx->deliveredMessages(), 0u);

    const FrameVerdict good = sendFragment(chunk, 0, kChunkBytes);
    EXPECT_TRUE(good.completed);
    EXPECT_TRUE(good.crc_ok);
    EXPECT_EQ(good.fresh_accepts, 1u);
    EXPECT_TRUE(good.message_complete);
    EXPECT_EQ(rx->deliveredMessages(), 1u);
    tx->closeSend(send_id);
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
