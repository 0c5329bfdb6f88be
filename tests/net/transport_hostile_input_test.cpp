/**
 * @file
 * No input a peer can send takes a receiver down.
 *
 *  - HostileFrame: a frame header whose fragment reaches past
 *    kMaxChunkBytes does not parse, so the receiver never sizes a
 *    chunk buffer from it (one datagram with payload_off = 2^40 would
 *    otherwise ask for a 1 TiB buffer). A seeded stream of random
 *    (validly CRC'd) headers never grows a chunk buffer past
 *    kMaxChunkBytes.
 *  - A UDP endpoint drops garbage, runt datagrams and stray ACKs
 *    unanswered and stays healthy; a UDP sender ignores garbage and
 *    data frames on its socket and still resolves on the real ACK.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/fd.hpp"
#include "common/poll_loop.hpp"
#include "common/rng.hpp"
#include "net/transport/receiver.hpp"
#include "net/transport/reliable_link.hpp"
#include "net/transport/socket_backend.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

/** @p hdr serialized (header CRC and all), then @p payload. */
std::vector<std::uint8_t>
wire(const FrameHeader &hdr, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out(FrameHeader::kWireSize + payload.size());
    hdr.serialize({out.data(), FrameHeader::kWireSize});
    std::copy(payload.begin(), payload.end(),
              out.begin() + FrameHeader::kWireSize);
    return out;
}

/** A well-formed one-chunk message, framed whole. */
std::vector<std::uint8_t>
goodFrame(const std::vector<std::uint8_t> &chunk)
{
    FrameHeader hdr;
    hdr.worker = 1;
    hdr.version = 4;
    hdr.payload_len = static_cast<std::uint32_t>(chunk.size());
    hdr.payload_crc = crc32c({chunk.data(), chunk.size()});
    return wire(hdr, chunk);
}

/** A nonblocking client socket of @p type connected to @p port. */
UniqueFd
client(int type, std::uint16_t port)
{
    UniqueFd fd(::socket(AF_INET, type, 0));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (!fd ||
        ::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0 ||
        !setNonBlocking(fd.get()))
        return UniqueFd();
    return fd;
}

TEST(HostileFrame, UdpEndpointSurvivesAnOffsetPastMaxChunk)
{
    PollLoop loop;
    std::size_t delivered = 0;
    UdpReceiverEndpoint ep(loop, 0,
                           [&delivered](const MessageKey &,
                                        std::vector<std::uint8_t> &&) {
                               ++delivered;
                           });
    ASSERT_TRUE(ep.ok()) << ep.error();
    UniqueFd c = client(SOCK_DGRAM, ep.port());
    ASSERT_TRUE(c);

    // Intact header CRC, a few payload bytes, offset 2^40.
    const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6, 7, 8};
    FrameHeader hostile;
    hostile.worker = 1;
    hostile.version = 3;
    hostile.payload_off = 1ull << 40;
    hostile.payload_len = static_cast<std::uint32_t>(bytes.size());
    hostile.payload_crc = crc32c({bytes.data(), bytes.size()});
    const auto h = wire(hostile, bytes);
    ASSERT_EQ(::send(c.get(), h.data(), h.size(), 0),
              static_cast<ssize_t>(h.size()));
    const auto g = goodFrame(bytes);
    ASSERT_EQ(::send(c.get(), g.data(), g.size(), 0),
              static_cast<ssize_t>(g.size()));

    // The hostile frame is dropped unanswered: the first ACK is the
    // good frame's.
    std::uint8_t buf[FrameHeader::kWireSize];
    ssize_t n = -1;
    loop.runUntil(
        [&] {
            n = ::recv(c.get(), buf, sizeof(buf), 0);
            return n >= 0;
        },
        5.0);
    ASSERT_EQ(n, static_cast<ssize_t>(sizeof(buf)));
    const auto ack = FrameHeader::parse({buf, sizeof(buf)});
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->version, 4);
    EXPECT_EQ(ack->flags, kFlagAck | kFlagAckComplete);
    EXPECT_TRUE(ep.ok()) << ep.error();
    EXPECT_EQ(delivered, 1u);
}

TEST(HostileFrame, RandomHeadersKeepChunkBuffersBounded)
{
    // Random headers, re-CRC'd so only the bound can reject them, fed
    // to a FrameReceiver as an endpoint would: parse, then hand over
    // at most payload_len present bytes. Restarting the receiver every
    // few frames keeps the buffers of this test itself small.
    Rng rng(26);
    const auto pick64 = [&rng]() -> std::uint64_t {
        switch (rng.uniformInt(8)) {
        case 0:
            return rng.next(); // anywhere in u64.
        case 1:
            return ~0ull - rng.uniformInt(64); // wraps when summed.
        case 2:
        case 3:
            return kMaxChunkBytes - 64 + rng.uniformInt(128);
        default:
            return rng.uniformInt(2 * kMaxChunkBytes);
        }
    };
    std::vector<std::uint8_t> present(256);
    std::size_t parsed = 0;
    FrameReceiver rx([] { return 0.0; }, EventSink{},
                     [](const MessageKey &, std::vector<std::uint8_t> &&) {});
    for (std::size_t i = 0; i < 10000; ++i) {
        if (i % 8 == 0)
            rx.restart();
        FrameHeader hdr;
        hdr.flags = static_cast<std::uint16_t>(rng.uniformInt(2));
        hdr.worker = static_cast<std::uint16_t>(rng.uniformInt(3));
        hdr.version = static_cast<std::int64_t>(rng.uniformInt(3));
        hdr.row = static_cast<std::uint32_t>(rng.uniformInt(3));
        hdr.chunk_seq = static_cast<std::uint32_t>(rng.uniformInt(3));
        hdr.chunk_count = static_cast<std::uint32_t>(rng.uniformInt(4));
        hdr.payload_off = pick64();
        hdr.payload_len = rng.uniform() < 0.25
                              ? static_cast<std::uint32_t>(rng.next())
                              : static_cast<std::uint32_t>(
                                    rng.uniformInt(present.size() + 1));
        hdr.payload_crc = static_cast<std::uint32_t>(rng.next());
        for (auto &b : present)
            b = static_cast<std::uint8_t>(rng.next());
        const auto w = wire(hdr, present);
        const auto got = FrameHeader::parse({w.data(), w.size()});
        if (!got)
            continue;
        ++parsed;
        ASSERT_LE(got->payload_off + got->payload_len, kMaxChunkBytes);
        const std::size_t n = std::min<std::size_t>(
            present.size(), rng.uniformInt(got->payload_len + 1ull));
        rx.onFrame(0, *got, {present.data(), n});
        ASSERT_LE(rx.largestChunkBuffer(), kMaxChunkBytes)
            << "frame " << i;
    }
    EXPECT_GT(parsed, 1000u); // the bound let most small windows by.
}

TEST(HostileFrame, UdpEndpointDropsGarbageAndStrayAcksUnanswered)
{
    PollLoop loop;
    std::size_t delivered = 0;
    UdpReceiverEndpoint ep(loop, 0,
                           [&delivered](const MessageKey &,
                                        std::vector<std::uint8_t> &&) {
                               ++delivered;
                           });
    ASSERT_TRUE(ep.ok()) << ep.error();
    UniqueFd c = client(SOCK_DGRAM, ep.port());
    ASSERT_TRUE(c);

    // A header's worth of garbage, a datagram shorter than a header
    // and an ACK sent at the data endpoint, then a good frame.
    FrameHeader stray;
    stray.flags = kFlagAck | kFlagAckComplete;
    stray.version = 4;
    for (const auto &d : {std::vector<std::uint8_t>(FrameHeader::kWireSize,
                                                    0xAB),
                          std::vector<std::uint8_t>{1, 2, 3},
                          wire(stray, {}), goodFrame({1, 2, 3})})
        ASSERT_EQ(::send(c.get(), d.data(), d.size(), 0),
                  static_cast<ssize_t>(d.size()));

    // Only the good frame is answered.
    std::uint8_t buf[FrameHeader::kWireSize];
    ssize_t n = -1;
    loop.runUntil(
        [&] {
            n = ::recv(c.get(), buf, sizeof(buf), 0);
            return n >= 0;
        },
        5.0);
    ASSERT_EQ(n, static_cast<ssize_t>(sizeof(buf)));
    const auto ack = FrameHeader::parse({buf, sizeof(buf)});
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->flags, kFlagAck | kFlagAckComplete);
    loop.runUntil([] { return false; }, 0.05);
    EXPECT_LT(::recv(c.get(), buf, sizeof(buf), 0), 0); // nothing more.
    EXPECT_TRUE(ep.ok()) << ep.error();
    EXPECT_EQ(delivered, 1u);
}

/**
 * The sender's side of the same rule: garbage and data frames that
 * reach a UdpBackend's socket resolve nothing and cost nothing; the
 * pending attempt still waits for its real ACK.
 */
TEST(HostileFrame, UdpSenderIgnoresGarbageAndDataFrames)
{
    // A raw peer that reads the data frame and answers by hand.
    UniqueFd peer(::socket(AF_INET, SOCK_DGRAM, 0));
    ASSERT_TRUE(peer);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(peer.get(), reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::getsockname(peer.get(), reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    ASSERT_TRUE(setNonBlocking(peer.get()));

    PollLoop loop;
    SocketOptions opts;
    opts.ack_timeout_s = 10.0; // no timeout may resolve the attempt.
    UdpBackend tx(loop, "127.0.0.1", ntohs(addr.sin_port), opts);
    ASSERT_TRUE(tx.ok()) << tx.error();
    ReliableLink link(tx, TransportConfig{});
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    std::optional<SendResult> out;
    // The key of goodFrame(): a data frame echoed back matches it.
    link.startSend(0, MessageKey{1, 4, 0, false}, payload, kNoDeadline,
                   [&out](SendResult r) { out = r; });

    std::uint8_t buf[256];
    sockaddr_in src{};
    socklen_t slen = sizeof(src);
    ssize_t n = -1;
    ASSERT_TRUE(loop.runUntil(
        [&] {
            n = ::recvfrom(peer.get(), buf, sizeof(buf), 0,
                           reinterpret_cast<sockaddr *>(&src), &slen);
            return n >= 0;
        },
        5.0));
    const auto data = FrameHeader::parse(
        {buf, static_cast<std::size_t>(n)});
    ASSERT_TRUE(data.has_value());
    const auto reply = [&](const std::vector<std::uint8_t> &d) {
        ASSERT_EQ(::sendto(peer.get(), d.data(), d.size(), 0,
                           reinterpret_cast<sockaddr *>(&src), slen),
                  static_cast<ssize_t>(d.size()));
    };

    reply(std::vector<std::uint8_t>(FrameHeader::kWireSize, 0xAB));
    reply(goodFrame(payload));
    loop.runUntil([] { return false; }, 0.05);
    EXPECT_FALSE(out.has_value());
    EXPECT_TRUE(tx.ok()) << tx.error();

    FrameReceiver::Result accepted;
    accepted.chunk_complete = true;
    accepted.crc_ok = true;
    accepted.fresh_accepts = 1;
    accepted.message_complete = true;
    FrameHeader ack = makeAck(*data, accepted);
    std::vector<std::uint8_t> ack_wire(FrameHeader::kWireSize);
    ack.serialize(ack_wire);
    reply(ack_wire);
    ASSERT_TRUE(loop.runUntil([&] { return out.has_value(); }, 5.0));
    EXPECT_TRUE(out->delivered);
    EXPECT_EQ(link.totals().attempts, 1u);
    EXPECT_TRUE(tx.ok()) << tx.error();
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
