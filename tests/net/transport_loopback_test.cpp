/**
 * @file
 * Loopback integration tests: the unchanged protocol core over real
 * UDP datagrams under seeded wire faults (drop, duplicate, truncate,
 * corrupt, delay). Assertions mirror the DES suites:
 * exactly-once delivery, CRC discard, resume-from-offset retransmit
 * accounting — now proven with real packets. Timeouts are tuned so the
 * whole file is `ctest -L fast`-safe.
 */
#include <gtest/gtest.h>

#include "loopback_harness.hpp"
#include "net/transport/crossval.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

using testing::countKind;
using testing::LoopbackOutcome;
using testing::LoopbackSpec;
using testing::quickSpec;
using testing::runLoopback;

/** Chunks a payload of @p bytes splits into under @p spec. */
std::size_t
chunksOf(const LoopbackSpec &spec)
{
    return spec.config.chunkCount(spec.bytes);
}

TEST(TransportLoopback, UdpCleanDeliversAll)
{
    const LoopbackSpec spec = quickSpec(3, 40000);
    const LoopbackOutcome out = runLoopback(spec);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.delivered, 3u);
    EXPECT_EQ(out.rx_delivered, 3u);
    // Clean wire: one attempt per chunk, nothing retried or dedup'd.
    EXPECT_EQ(out.totals.attempts, 3 * chunksOf(spec));
    EXPECT_EQ(out.totals.retries, 0u);
    EXPECT_EQ(countKind(out.receiver_log,
                        TransportEvent::Kind::Duplicate),
              0u);
    EXPECT_EQ(countKind(out.receiver_log,
                        TransportEvent::Kind::CorruptDrop),
              0u);
}

TEST(TransportLoopback, UdpDropsAreRetriedToExactlyOnceDelivery)
{
    LoopbackSpec spec = quickSpec(3, 40000);
    SocketFaultPlan plan;
    plan.seed = 11;
    plan.drop_p = 0.3;
    spec.faults = &plan;
    const LoopbackOutcome out = runLoopback(spec);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.delivered, 3u);
    EXPECT_EQ(out.rx_delivered, 3u);
    // Every chunk is accepted exactly once regardless of how many
    // attempts its datagrams needed.
    EXPECT_EQ(countKind(out.receiver_log, TransportEvent::Kind::Accept),
              3 * chunksOf(spec));
    EXPECT_GT(out.totals.attempts, 3 * chunksOf(spec));
    EXPECT_GT(out.totals.retries, 0u);
    EXPECT_GT(out.totals.backoff_s, 0.0);
}

TEST(TransportLoopback, UdpDuplicatesAreDedupd)
{
    LoopbackSpec spec = quickSpec(3, 40000);
    SocketFaultPlan plan;
    plan.seed = 5;
    plan.dup_p = 0.6;
    plan.delay_p = 0.3;
    plan.delay_s = 0.002;
    spec.faults = &plan;
    const LoopbackOutcome out = runLoopback(spec);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.delivered, 3u);
    EXPECT_EQ(out.rx_delivered, 3u);
    EXPECT_EQ(countKind(out.receiver_log, TransportEvent::Kind::Accept),
              3 * chunksOf(spec));
    // With dup_p this high some duplicate must have hit the dedup set.
    // (The sender rarely sees it — the duplicate's ACK usually arrives
    // after the original already resolved the pending attempt — so the
    // receiver's log and rx trace carry the evidence.)
    EXPECT_GT(countKind(out.receiver_log,
                        TransportEvent::Kind::Duplicate),
              0u);
    EXPECT_GT(out.trace.rx.size(), 3 * chunksOf(spec));
}

TEST(TransportLoopback, UdpTruncationResumesFromDeliveredOffset)
{
    LoopbackSpec spec = quickSpec(3, 50000);
    SocketFaultPlan plan;
    plan.seed = 23;
    plan.trunc_p = 0.5;
    spec.faults = &plan;
    const LoopbackOutcome out = runLoopback(spec);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.delivered, 3u);
    EXPECT_EQ(out.rx_delivered, 3u);
    // Cut datagrams produce partial ACKs, which resume mid-chunk.
    EXPECT_GT(countKind(out.sender_log, TransportEvent::Kind::Resume),
              0u);
    EXPECT_GT(out.totals.retries, 0u);
    // Resume accounting: a resumed retry re-sends only the header
    // again, so retransmitted bytes stay well under one whole chunk
    // per retry.
    EXPECT_GT(out.totals.retransmitted_bytes, 0u);
    EXPECT_LT(out.totals.retransmitted_bytes,
              out.totals.retries *
                  (spec.config.chunk_bytes + FrameHeader::kWireSize));
}

TEST(TransportLoopback, UdpResumeOffRetransmitsMore)
{
    SocketFaultPlan plan;
    plan.seed = 23;
    plan.trunc_p = 0.5;

    LoopbackSpec on = quickSpec(3, 50000);
    on.faults = &plan;
    LoopbackSpec off = on;
    off.config.resume_from_offset = false;

    const LoopbackOutcome r_on = runLoopback(on);
    const LoopbackOutcome r_off = runLoopback(off);
    ASSERT_TRUE(r_on.ok) << r_on.error;
    ASSERT_TRUE(r_off.ok) << r_off.error;
    EXPECT_EQ(r_on.delivered, 3u);
    EXPECT_EQ(r_off.delivered, 3u);
    // Identical fault stream; the from-scratch baseline re-sends whole
    // chunks where resume re-sends tails.
    EXPECT_LT(r_on.totals.retransmitted_bytes,
              r_off.totals.retransmitted_bytes);
    EXPECT_EQ(countKind(r_off.sender_log, TransportEvent::Kind::Resume),
              0u);
}

TEST(TransportLoopback, UdpCorruptionIsCaughtByCrc)
{
    LoopbackSpec spec = quickSpec(3, 40000);
    SocketFaultPlan plan;
    plan.seed = 41;
    plan.corrupt_p = 0.4;
    spec.faults = &plan;
    const LoopbackOutcome out = runLoopback(spec);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.delivered, 3u);
    EXPECT_EQ(out.rx_delivered, 3u);
    EXPECT_GT(countKind(out.receiver_log,
                        TransportEvent::Kind::CorruptDrop),
              0u);
    EXPECT_GT(out.totals.corrupt_chunks, 0u);
    // Corruption never reaches acceptance: every chunk still lands
    // exactly once.
    EXPECT_EQ(countKind(out.receiver_log, TransportEvent::Kind::Accept),
              3 * chunksOf(spec));
}

TEST(TransportLoopback, UdpFaultSoupCrossValidates)
{
    LoopbackSpec spec = quickSpec(4, 60000);
    SocketFaultPlan plan;
    plan.seed = 7;
    plan.drop_p = 0.15;
    plan.dup_p = 0.1;
    plan.trunc_p = 0.2;
    plan.corrupt_p = 0.1;
    plan.delay_p = 0.1;
    plan.delay_s = 0.002;
    spec.faults = &plan;
    const LoopbackOutcome out = runLoopback(spec);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.delivered, 4u);
    const CrossvalReport report =
        crossValidate(out.trace, out.merged_log);
    EXPECT_TRUE(report.ok) << report.detail;
}

TEST(TransportLoopback, UdpDeadlineExpiresUnderTotalLoss)
{
    LoopbackSpec spec = quickSpec(1, 20000);
    spec.deadline_rel = 0.15;
    SocketFaultPlan plan;
    plan.seed = 3;
    plan.drop_p = 1.0; // the wire eats everything.
    spec.faults = &plan;
    const LoopbackOutcome out = runLoopback(spec);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.delivered, 0u);
    ASSERT_EQ(out.results.size(), 1u);
    EXPECT_TRUE(out.results[0].deadline_expired);
    EXPECT_EQ(countKind(out.sender_log, TransportEvent::Kind::Fail),
              1u);
    EXPECT_EQ(out.rx_delivered, 0u);
}

// A backend destroyed while a `delay` fault holds one of its datagrams
// (the session fabric drops and rebuilds its backend on every Hello
// retry and reconnect) must take that datagram with it: the held send
// may neither run on the freed backend nor reach the receiver.
TEST(TransportLoopback, UdpBackendDestroyedWithADelayedDatagramSendsNothing)
{
    PollLoop loop;
    UdpReceiverEndpoint rx(loop, 0);
    ASSERT_TRUE(rx.ok()) << rx.error();
    SocketFaultPlan plan;
    plan.seed = 1;
    plan.delay_p = 1.0;
    plan.delay_s = 0.01;
    SocketFaultInjector faults(plan);
    const LoopbackSpec spec = quickSpec(1, 2000);
    auto sock = std::make_unique<UdpBackend>(loop, "127.0.0.1", rx.port(),
                                             spec.opts, &faults);
    ASSERT_TRUE(sock->ok()) << sock->error();
    auto link = std::make_unique<ReliableLink>(*sock, spec.config);
    const MessageKey key = testing::loopbackKey(0);
    link->startSend(0, key,
                    synthesizeMessage(key, spec.bytes,
                                      spec.config.chunk_bytes),
                    kNoDeadline, [](SendResult) {});
    // As SocketFabric::connectPeer replaces a peer: link, then backend.
    link.reset();
    sock.reset();
    loop.runUntil([] { return false; }, 0.05);
    EXPECT_TRUE(rx.ok()) << rx.error();
    EXPECT_EQ(rx.deliveredMessages(), 0u);
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
