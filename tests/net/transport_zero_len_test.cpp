/**
 * @file
 * A zero-length payload must round-trip as a valid one-chunk message
 * over every backend: the DES twin and UDP datagrams.
 * Historically only the DES path was exercised (and zero bytes died on
 * an assert); delivery still means a header-only frame round-tripped
 * intact and was accepted exactly once.
 */
#include <gtest/gtest.h>

#include "loopback_harness.hpp"
#include "net/channel.hpp"
#include "net/transport/crossval.hpp"
#include "net/transport/des_backend.hpp"
#include "net/transport/reliable_link.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

using testing::countKind;
using testing::LoopbackOutcome;
using testing::quickSpec;
using testing::runLoopback;

TEST(TransportZeroLen, DesDeliversHeaderOnlyChunk)
{
    sim::Simulation sim;
    Channel ch(sim, {BandwidthTrace::constant(10e3, 600.0)});
    std::vector<TransportEvent> log;
    DesBackend backend(sim, ch);
    ReliableLink link(backend, TransportConfig{},
                      [&log](const TransportEvent &ev) { log.push_back(ev); });

    SendResult out;
    MessageKey key;
    key.version = 7;
    link.startSend(0, key, {}, kNoDeadline, [&](SendResult r) { out = r; });
    sim.run();

    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(out.chunks, 1u);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(out.payload_bytes, 0u);
    // The wire still carried the header.
    EXPECT_EQ(out.bytes_sent, FrameHeader::kWireSize);
    EXPECT_EQ(countKind(log, TransportEvent::Kind::Accept), 1u);
    EXPECT_EQ(countKind(log, TransportEvent::Kind::Deliver), 1u);
}

TEST(TransportZeroLen, DesEmptyPayloadSpanDelivers)
{
    sim::Simulation sim;
    Channel ch(sim, {BandwidthTrace::constant(10e3, 600.0)});
    std::vector<std::vector<std::uint8_t>> delivered;
    DesBackend backend(sim, ch,
                       [&delivered](const MessageKey &,
                                    std::vector<std::uint8_t> &&p) {
                           delivered.push_back(std::move(p));
                       });
    ReliableLink link(backend, TransportConfig{});

    SendResult out;
    MessageKey key;
    key.version = 9;
    link.startSend(0, key, {}, kNoDeadline, [&](SendResult r) { out = r; });
    sim.run();

    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(out.chunks, 1u);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_TRUE(delivered[0].empty());
}

TEST(TransportZeroLen, UdpLoopbackDelivers)
{
    const LoopbackOutcome out = runLoopback(quickSpec(2, 0));
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.delivered, 2u);
    EXPECT_EQ(out.rx_delivered, 2u);
    for (const SendResult &r : out.results) {
        EXPECT_TRUE(r.delivered);
        EXPECT_EQ(r.chunks, 1u);
        EXPECT_EQ(r.bytes_sent, FrameHeader::kWireSize);
    }
    EXPECT_EQ(countKind(out.receiver_log, TransportEvent::Kind::Accept),
              2u);
}

TEST(TransportZeroLen, UdpZeroLenRunCrossValidates)
{
    const LoopbackOutcome out = runLoopback(quickSpec(2, 0));
    ASSERT_TRUE(out.ok) << out.error;
    const CrossvalReport report =
        crossValidate(out.trace, out.merged_log);
    EXPECT_TRUE(report.ok) << report.detail;
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
