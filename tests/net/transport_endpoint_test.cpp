/**
 * @file
 * The UDP receiver endpoint's contracts, driven with raw datagrams
 * from a plain client socket:
 *
 *  - DeliverySink fires exactly once per message. A duplicated
 *    datagram of a completed message, or a sender's retransmit after
 *    its ACK was lost, is answered dup|complete and never handed up a
 *    second time.
 *  - No two live endpoints share a port. A second endpoint bound to a
 *    live one's port fails instead of silently taking its unicast
 *    traffic (the never-admitted-worker stall: a worker whose
 *    receiver was shadowed never saw its Welcome).
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/crc32c.hpp"
#include "common/fd.hpp"
#include "common/poll_loop.hpp"
#include "net/transport/socket_backend.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

/** Whole chunk @p seq of @p count, framed in one datagram. */
std::vector<std::uint8_t>
datagram(std::uint32_t seq, std::uint32_t count,
         const std::vector<std::uint8_t> &chunk)
{
    FrameHeader hdr;
    hdr.worker = 2;
    hdr.version = 7;
    hdr.row = 3;
    hdr.chunk_seq = seq;
    hdr.chunk_count = count;
    hdr.payload_len = static_cast<std::uint32_t>(chunk.size());
    hdr.payload_crc = crc32c({chunk.data(), chunk.size()});
    std::vector<std::uint8_t> out(FrameHeader::kWireSize + chunk.size());
    hdr.serialize({out.data(), FrameHeader::kWireSize});
    std::copy(chunk.begin(), chunk.end(),
              out.begin() + FrameHeader::kWireSize);
    return out;
}

/** An endpoint that counts and keeps what its DeliverySink hands up,
 *  and a client socket connected to it. */
class UdpEndpointDelivery : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ep_ = std::make_unique<UdpReceiverEndpoint>(
            loop_, 0,
            [this](const MessageKey &, std::vector<std::uint8_t> &&p) {
                delivered_.push_back(std::move(p));
            });
        ASSERT_TRUE(ep_->ok()) << ep_->error();
        client_.reset(::socket(AF_INET, SOCK_DGRAM, 0));
        ASSERT_TRUE(client_);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(ep_->port());
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        ASSERT_EQ(::connect(client_.get(),
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        ASSERT_TRUE(setNonBlocking(client_.get()));
    }

    void
    send(const std::vector<std::uint8_t> &d)
    {
        ASSERT_EQ(::send(client_.get(), d.data(), d.size(), 0),
                  static_cast<ssize_t>(d.size()));
    }

    /** Run the endpoint until one ACK reaches the client. */
    std::optional<FrameHeader>
    nextAck()
    {
        std::uint8_t buf[FrameHeader::kWireSize];
        ssize_t n = -1;
        loop_.runUntil(
            [&] {
                n = ::recv(client_.get(), buf, sizeof(buf), 0);
                return n >= 0;
            },
            5.0);
        if (n != static_cast<ssize_t>(sizeof(buf)))
            return std::nullopt;
        return FrameHeader::parse({buf, sizeof(buf)});
    }

    PollLoop loop_;
    std::unique_ptr<UdpReceiverEndpoint> ep_;
    UniqueFd client_;
    std::vector<std::vector<std::uint8_t>> delivered_;
};

constexpr std::uint16_t kDupComplete = kFlagAck | kFlagAckDup |
                                       kFlagAckComplete;

TEST_F(UdpEndpointDelivery, DuplicatedDatagramOfCompletedMessageIsHandedUpOnce)
{
    const std::vector<std::uint8_t> chunk = {1, 2, 3, 4, 5};
    const std::vector<std::uint8_t> d = datagram(0, 1, chunk);
    send(d);
    send(d); // the wire delivered it twice.

    const auto first = nextAck();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->flags, kFlagAck | kFlagAckComplete);
    const auto second = nextAck();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->flags, kDupComplete);

    ASSERT_EQ(delivered_.size(), 1u);
    EXPECT_EQ(delivered_[0], chunk);
    EXPECT_EQ(ep_->deliveredMessages(), 1u);
}

TEST_F(UdpEndpointDelivery, RetransmitAfterLostAckIsHandedUpOnce)
{
    const std::vector<std::uint8_t> c0 = {9, 8, 7};
    const std::vector<std::uint8_t> c1 = {6, 5};
    send(datagram(0, 2, c0));
    ASSERT_TRUE(nextAck().has_value());
    send(datagram(1, 2, c1));
    const auto done = nextAck(); // this ACK never reaches the sender...
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->flags, kFlagAck | kFlagAckComplete);
    ASSERT_EQ(delivered_.size(), 1u);

    send(datagram(1, 2, c1)); // ...so it times out and resends.
    const auto again = nextAck();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->flags, kDupComplete);
    EXPECT_EQ(again->chunk_seq, 1u);

    ASSERT_EQ(delivered_.size(), 1u);
    EXPECT_EQ(delivered_[0], (std::vector<std::uint8_t>{9, 8, 7, 6, 5}));
}

TEST(UdpEndpointBind, SecondEndpointCannotBindALivePort)
{
    PollLoop loop;
    UdpReceiverEndpoint live(loop, 0);
    ASSERT_TRUE(live.ok()) << live.error();
    UdpReceiverEndpoint shadow(loop, live.port());
    EXPECT_FALSE(shadow.ok())
        << "a second endpoint bound port " << live.port()
        << " and would receive the live endpoint's datagrams";
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
