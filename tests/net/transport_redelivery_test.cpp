/**
 * @file
 * Re-sent and resumed fragments against the one FrameReceiver:
 *
 *  - A second send of an already delivered key, over the DES twin and
 *    over UDP loopback: both backends must answer the resend as a
 *    duplicate of a complete message (dup|complete), hand the payload
 *    up exactly once and log exactly one Deliver event for the key.
 *  - A resumed tail that arrives twice: the duplicate starts past the
 *    prefix the receiver holds once its message is delivered, so it is
 *    answered with that prefix and never buffered.
 *  - A receiver that restarts mid-chunk over UDP loopback: the sender
 *    resumes from the prefix the partial ACK reports, so the chunk
 *    restarts whole and is delivered once (the DES counterpart is
 *    TransportLink.ReceiverRestartMidChunkRestartsTheChunk).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/poll_loop.hpp"
#include "fault/invariant_checker.hpp"
#include "loopback_harness.hpp"
#include "net/channel.hpp"
#include "net/transport/des_backend.hpp"
#include "net/transport/payload.hpp"
#include "net/transport/receiver.hpp"
#include "net/transport/reliable_link.hpp"
#include "net/transport/socket_backend.hpp"
#include "net/transport/socket_fault.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

using testing::countKind;

/** What sending one key twice over one backend produced. */
struct TwiceOutcome
{
    std::vector<SendResult> results;
    std::vector<std::vector<std::uint8_t>> handed_up;
    std::vector<TransportEvent> events; //!< sender and receiver.
};

TransportConfig
smallChunks()
{
    TransportConfig cfg;
    cfg.chunk_bytes = 1000;
    cfg.backoff_base_s = 0.005;
    cfg.backoff_max_s = 0.05;
    return cfg;
}

/** Send @p payload as @p key to completion, then send it again. */
TwiceOutcome
sendTwice(const std::string &backend, const MessageKey &key,
          const std::vector<std::uint8_t> &payload)
{
    TwiceOutcome out;
    const TransportConfig cfg = smallChunks();
    const DeliverySink sink = [&out](const MessageKey &,
                                     std::vector<std::uint8_t> &&p) {
        out.handed_up.push_back(std::move(p));
    };
    const EventSink log = [&out](const TransportEvent &ev) {
        out.events.push_back(ev);
    };
    const auto done = [&out](SendResult r) { out.results.push_back(r); };

    if (backend == "des") {
        sim::Simulation sim;
        Channel ch(sim, {BandwidthTrace::constant(1e6, 0.1)});
        DesBackend des(sim, ch, sink);
        ReliableLink link(des, cfg, log);
        for (int i = 0; i < 2; ++i) {
            link.startSend(0, key, payload, kNoDeadline, done);
            sim.run();
        }
        return out;
    }

    PollLoop loop;
    UdpReceiverEndpoint ep(loop, 0, sink);
    EXPECT_TRUE(ep.ok()) << ep.error();
    ep.setEventSink(log);
    SocketOptions opts;
    opts.ack_timeout_s = 0.05;
    UdpBackend udp(loop, "127.0.0.1", ep.port(), opts);
    EXPECT_TRUE(udp.ok()) << udp.error();
    ReliableLink link(udp, cfg, log);
    for (std::size_t i = 1; i <= 2; ++i) {
        link.startSend(0, key, payload, kNoDeadline, done);
        EXPECT_TRUE(loop.runUntil(
            [&out, i] { return out.results.size() >= i; }, 10.0));
    }
    return out;
}

class ResendOfDeliveredKey : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ResendOfDeliveredKey, IsAnsweredDuplicateAndHandedUpOnce)
{
    MessageKey key;
    key.worker = 2;
    key.version = 17;
    key.row = 5;
    const std::vector<std::uint8_t> payload =
        synthesizeMessage(key, 2500, smallChunks().chunk_bytes);

    const TwiceOutcome out = sendTwice(GetParam(), key, payload);
    ASSERT_EQ(out.results.size(), 2u);
    const SendResult &first = out.results[0];
    const SendResult &again = out.results[1];
    EXPECT_TRUE(first.delivered);
    EXPECT_EQ(first.chunks, 3u);
    EXPECT_EQ(first.duplicate_chunks, 0u);
    // The resend reaches a receiver that already delivered the key:
    // every chunk is answered dup|complete, so the send succeeds...
    EXPECT_TRUE(again.delivered);
    EXPECT_EQ(again.duplicate_chunks, again.chunks);
    // ...and nothing is handed up again.
    ASSERT_EQ(out.handed_up.size(), 1u);
    EXPECT_EQ(out.handed_up[0], payload);
    EXPECT_EQ(countKind(out.events, TransportEvent::Kind::Deliver), 1u);
    EXPECT_EQ(countKind(out.events, TransportEvent::Kind::Accept), 3u);
    EXPECT_EQ(countKind(out.events, TransportEvent::Kind::Duplicate), 3u);

    fault::InvariantChecker checker;
    for (const TransportEvent &ev : out.events)
        checker.onTransportEvent(ev);
    EXPECT_TRUE(checker.clean()) << checker.report();
}

INSTANTIATE_TEST_SUITE_P(Backends, ResendOfDeliveredKey,
                         ::testing::Values("des", "udp"),
                         [](const ::testing::TestParamInfo<std::string> &i) {
                             return i.param;
                         });

TEST(ResumedTailTwice, DuplicateIsAnsweredWithThePrefixAndNeverBuffered)
{
    std::vector<std::vector<std::uint8_t>> handed_up;
    FrameReceiver rx([] { return 0.0; }, {},
                     [&handed_up](const MessageKey &,
                                  std::vector<std::uint8_t> &&p) {
                         handed_up.push_back(std::move(p));
                     });
    std::vector<std::uint8_t> chunk(1000);
    std::iota(chunk.begin(), chunk.end(), std::uint8_t{1});
    FrameHeader hdr;
    hdr.worker = 1;
    hdr.version = 4;
    hdr.chunk_count = 1;
    hdr.payload_len = 1000;
    hdr.payload_crc = crc32c(chunk);
    const std::span<const std::uint8_t> bytes(chunk);

    // A 400-byte cut, then the 600-byte tail: delivered.
    EXPECT_EQ(rx.onFrame(0, hdr, bytes.first(400)).prefix, 400u);
    hdr.payload_off = 400;
    hdr.payload_len = 600;
    EXPECT_TRUE(rx.onFrame(0, hdr, bytes.subspan(400)).delivered);
    EXPECT_EQ(rx.chunkBuffers(), 0u);

    // The wire delivers the tail again.
    const FrameReceiver::Result again = rx.onFrame(0, hdr, bytes.subspan(400));
    EXPECT_FALSE(again.chunk_complete);
    EXPECT_EQ(again.prefix, 0u);
    EXPECT_EQ(rx.chunkBuffers(), 0u);
    ASSERT_EQ(handed_up.size(), 1u);
    EXPECT_EQ(handed_up[0], chunk);
}

TEST(UdpReceiverRestart, MidChunkRestartsTheChunk)
{
    PollLoop loop;
    std::vector<std::vector<std::uint8_t>> handed_up;
    const DeliverySink sink = [&handed_up](const MessageKey &,
                                           std::vector<std::uint8_t> &&p) {
        handed_up.push_back(std::move(p));
    };
    auto ep = std::make_unique<UdpReceiverEndpoint>(loop, 0, sink);
    ASSERT_TRUE(ep->ok()) << ep->error();
    const std::uint16_t port = ep->port();

    // Every data frame is cut until the receiver restarts.
    SocketFaultPlan cut;
    cut.trunc_p = 1.0;
    SocketFaultInjector faults(cut);
    SocketOptions opts;
    opts.ack_timeout_s = 0.05;
    UdpBackend udp(loop, "127.0.0.1", port, opts, &faults);
    ASSERT_TRUE(udp.ok()) << udp.error();
    TransportConfig cfg;
    cfg.chunk_bytes = 8192;
    cfg.max_attempts_per_chunk = 0; // a stranded tail would retry forever.
    cfg.backoff_base_s = 0.05;
    cfg.backoff_max_s = 0.05;
    std::vector<TransportEvent> sent;
    ReliableLink link(udp, cfg,
                      [&sent](const TransportEvent &ev) { sent.push_back(ev); });

    std::vector<std::uint8_t> payload(8192);
    std::iota(payload.begin(), payload.end(), std::uint8_t{1});
    MessageKey key;
    key.worker = 3;
    key.version = 11;
    std::optional<SendResult> out;
    link.startSend(0, key, payload, kNoDeadline,
                   [&out](SendResult r) { out = r; });

    // Wait for a cut that left the receiver holding a prefix; the
    // resumed tail waits out its backoff.
    const auto resumed_past = [&sent](double off) {
        return std::any_of(sent.begin(), sent.end(), [off](const auto &ev) {
            return ev.kind == TransportEvent::Kind::Resume && ev.a > off;
        });
    };
    ASSERT_TRUE(loop.runUntil([&] { return resumed_past(0.0); }, 5.0));
    ASSERT_FALSE(out.has_value());

    // The receiving process restarts: a fresh endpoint on the same
    // port, and the wire turns clean.
    const std::size_t before_restart = sent.size();
    ep.reset();
    ep = std::make_unique<UdpReceiverEndpoint>(loop, port, sink, 1.0);
    ASSERT_TRUE(ep->ok()) << ep->error();
    faults = SocketFaultInjector(SocketFaultPlan{});

    ASSERT_TRUE(loop.runUntil([&out] { return out.has_value(); }, 5.0));
    EXPECT_TRUE(out->delivered);
    ASSERT_EQ(handed_up.size(), 1u);
    EXPECT_EQ(handed_up[0], payload);
    // The fresh receiver's partial ACK rewound the sender to offset 0.
    const bool rewound = std::any_of(
        sent.begin() + static_cast<std::ptrdiff_t>(before_restart),
        sent.end(), [](const TransportEvent &ev) {
            return ev.kind == TransportEvent::Kind::Resume && ev.a == 0.0;
        });
    EXPECT_TRUE(rewound);
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
