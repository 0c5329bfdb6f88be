/**
 * @file
 * A second send of an already delivered key, over the DES twin and
 * over UDP loopback: both backends run the one FrameReceiver, so both
 * must answer the resend as a duplicate of a complete message
 * (dup|complete), hand the payload up exactly once and log exactly one
 * Deliver event for the key.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/poll_loop.hpp"
#include "fault/invariant_checker.hpp"
#include "loopback_harness.hpp"
#include "net/channel.hpp"
#include "net/transport/des_backend.hpp"
#include "net/transport/payload.hpp"
#include "net/transport/reliable_link.hpp"
#include "net/transport/socket_backend.hpp"
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

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
