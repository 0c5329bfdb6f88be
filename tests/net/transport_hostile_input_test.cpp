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
 *  - TcpEndpointGarbage: bytes on a TCP connection that are not data
 *    frames cost that connection only. The endpoint stays healthy and
 *    a well-formed sender on a new connection still delivers.
 *  - TcpSenderGarbage: bytes on a sender's ACK stream that are not
 *    ACK frames cost the sender that stream only.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdint>
#include <memory>
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

/** A TCP receiver endpoint and the loop that drives it. */
class TcpEndpointGarbage : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ep_ = std::make_unique<TcpReceiverEndpoint>(loop_, 0);
        ASSERT_TRUE(ep_->ok()) << ep_->error();
    }

    /** Write @p bytes on a fresh connection; true once the endpoint
     *  has closed it. */
    bool
    endpointCloses(const std::vector<std::uint8_t> &bytes)
    {
        UniqueFd c = client(SOCK_STREAM, ep_->port());
        if (!c || ::send(c.get(), bytes.data(), bytes.size(),
                         MSG_NOSIGNAL) !=
                      static_cast<ssize_t>(bytes.size()))
            return false;
        return loop_.runUntil(
            [&] {
                std::uint8_t buf[64];
                const ssize_t n = ::recv(c.get(), buf, sizeof(buf), 0);
                return n == 0 ||
                       (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
            },
            5.0);
    }

    /** A well-formed sender on a new connection delivers a message. */
    void
    expectCleanSenderDelivers()
    {
        TcpBackend tx(loop_, "127.0.0.1", ep_->port());
        ASSERT_TRUE(tx.ok()) << tx.error();
        ReliableLink link(tx, TransportConfig{});
        std::optional<SendResult> out;
        link.startSend(0, MessageKey{1, 9, 2, false},
                       std::vector<std::uint8_t>(3000), kNoDeadline,
                       [&out](SendResult r) { out = r; });
        ASSERT_TRUE(loop_.runUntil([&] { return out.has_value(); }, 10.0));
        EXPECT_TRUE(out->delivered);
        EXPECT_TRUE(ep_->ok()) << ep_->error();
        EXPECT_EQ(ep_->deliveredMessages(), 1u);
    }

    PollLoop loop_;
    std::unique_ptr<TcpReceiverEndpoint> ep_;
};

TEST_F(TcpEndpointGarbage, GarbageBytesDropOnlyThatConnection)
{
    ASSERT_TRUE(endpointCloses(
        std::vector<std::uint8_t>(FrameHeader::kWireSize, 0xAB)));
    EXPECT_TRUE(ep_->ok()) << ep_->error();
    EXPECT_EQ(ep_->connections(), 0u);
    expectCleanSenderDelivers();
}

TEST_F(TcpEndpointGarbage, AckFrameOnTheDataStreamDropsThatConnection)
{
    FrameHeader ack;
    ack.flags = kFlagAck | kFlagAckComplete;
    ASSERT_TRUE(endpointCloses(wire(ack, {})));
    EXPECT_TRUE(ep_->ok()) << ep_->error();
    EXPECT_EQ(ep_->connections(), 0u);
    expectCleanSenderDelivers();
}

/**
 * The sender's side of the same rule: a receiver that answers the
 * ACK stream with garbage or with a data frame costs the sender that
 * stream, as a peer close does, never the process. A fresh backend to
 * a good endpoint still delivers.
 */
class TcpSenderGarbage : public TcpEndpointGarbage
{
  protected:
    /** Send one message to a raw listener that answers @p reply;
     *  the sender must give up the stream. */
    void
    expectSenderDropsStream(const std::vector<std::uint8_t> &reply)
    {
        UniqueFd lis(::socket(AF_INET, SOCK_STREAM, 0));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        socklen_t len = sizeof(addr);
        ASSERT_TRUE(lis);
        ASSERT_EQ(::bind(lis.get(), reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ASSERT_EQ(::listen(lis.get(), 1), 0);
        ASSERT_EQ(::getsockname(lis.get(),
                                reinterpret_cast<sockaddr *>(&addr), &len),
                  0);
        ASSERT_TRUE(setNonBlocking(lis.get()));

        TcpBackend tx(loop_, "127.0.0.1", ntohs(addr.sin_port));
        ASSERT_TRUE(tx.ok()) << tx.error();
        ReliableLink link(tx, TransportConfig{});
        link.startSend(0, MessageKey{1, 9, 2, false},
                       std::vector<std::uint8_t>(3000), kNoDeadline,
                       [](SendResult) {});
        UniqueFd conn;
        const bool dropped = loop_.runUntil(
            [&] {
                if (!conn) {
                    conn.reset(::accept(lis.get(), nullptr, nullptr));
                    if (conn)
                        ::send(conn.get(), reply.data(), reply.size(),
                               MSG_NOSIGNAL);
                }
                return !tx.ok();
            },
            5.0);
        EXPECT_TRUE(dropped);
        EXPECT_NE(tx.error().find("ack stream"), std::string::npos)
            << tx.error();
    }
};

TEST_F(TcpSenderGarbage, GarbageOnTheAckStreamDropsOnlyThatStream)
{
    expectSenderDropsStream(
        std::vector<std::uint8_t>(FrameHeader::kWireSize, 0xAB));
    expectCleanSenderDelivers();
}

TEST_F(TcpSenderGarbage, DataFrameOnTheAckStreamDropsOnlyThatStream)
{
    expectSenderDropsStream(goodFrame({1, 2, 3}));
    expectCleanSenderDelivers();
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
