/**
 * @file
 * Unit tests for the reliable transport sublayer: framed chunked
 * delivery over the fluid channel, resume-from-offset after a cut
 * link, CRC-triggered retransmission of corrupted chunks, duplicate
 * deduplication, deadline-aware give-up, attempt caps, payload
 * reassembly, and teardown safety — each driven by a curated fault
 * plan and watched by the InvariantChecker.
 */
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariant_checker.hpp"
#include "net/transport/des_backend.hpp"
#include "net/transport/payload.hpp"
#include "net/transport/reliable_link.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

constexpr double kHdr = FrameHeader::kWireSize;

MessageKey
key(std::uint16_t worker = 0, std::int64_t version = 1,
    std::uint32_t row = 0, bool pull = false)
{
    MessageKey k;
    k.worker = worker;
    k.version = version;
    k.row = row;
    k.pull = pull;
    return k;
}

/** One link at a constant rate, one message, one curated fault plan;
 *  every event goes to the checker and the log, every delivered
 *  payload to @c delivered. */
struct Bench
{
    sim::Simulation sim;
    fault::FaultPlan plan;
    std::unique_ptr<fault::FaultInjector> injector;
    std::unique_ptr<Channel> channel;
    fault::InvariantChecker checker;
    std::vector<TransportEvent> events;
    std::vector<std::pair<MessageKey, std::vector<std::uint8_t>>> delivered;
    std::unique_ptr<DesBackend> backend;
    std::unique_ptr<ReliableLink> link;
    std::size_t chunk_bytes = 0;

    explicit Bench(const TransportConfig &cfg, fault::FaultPlan p = {},
                   double rate = 1000.0)
        : plan(std::move(p)), chunk_bytes(cfg.chunk_bytes)
    {
        injector = std::make_unique<fault::FaultInjector>(sim, plan);
        channel = std::make_unique<Channel>(
            sim, std::vector<BandwidthTrace>{
                     BandwidthTrace::constant(rate, 600.0)});
        injector->attach(*channel);
        backend = std::make_unique<DesBackend>(
            sim, *channel,
            [this](const MessageKey &k, std::vector<std::uint8_t> &&p) {
                delivered.emplace_back(k, std::move(p));
            });
        link = std::make_unique<ReliableLink>(
            *backend, cfg, [this](const TransportEvent &ev) {
                checker.onTransportEvent(ev);
                events.push_back(ev);
            });
    }

    /** The event log as text, one event per line. */
    std::string
    eventText() const
    {
        std::ostringstream os;
        for (const auto &ev : events)
            os << toString(ev) << '\n';
        return os.str();
    }

    /** The payload delivered last for @p k (empty if none). */
    std::vector<std::uint8_t>
    payloadOf(const MessageKey &k) const
    {
        for (auto it = delivered.rbegin(); it != delivered.rend(); ++it)
            if (it->first == k)
                return it->second;
        return {};
    }

    /** Send @p bytes keyed test bytes as @p k and run to the end. */
    SendResult
    send(const MessageKey &k, std::size_t bytes,
         double deadline = kNoDeadline)
    {
        SendResult out;
        int fired = 0;
        link->startSend(0, k, synthesizeMessage(k, bytes, chunk_bytes),
                        deadline, [&](SendResult r) {
            out = r;
            ++fired;
        });
        sim.run();
        EXPECT_EQ(fired, 1);
        return out;
    }
};

fault::TransferFaultRule
rule(double at)
{
    fault::TransferFaultRule r;
    r.link = 0;
    r.at_s = at;
    return r;
}

TEST(TransportLink, SingleChunkCleanDelivery)
{
    TransportConfig cfg;
    Bench b(cfg);
    const auto r = b.send(key(), 952);
    EXPECT_TRUE(r.delivered);
    EXPECT_FALSE(r.deadline_expired);
    EXPECT_EQ(r.chunks, 1u);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.payload_bytes, 952u);
    // Wire = payload + one frame header, at 1000 B/s.
    EXPECT_NEAR(r.bytes_sent, 952.0 + kHdr, 1e-6);
    EXPECT_NEAR(r.elapsed_s, 1.0, 1e-6);
    EXPECT_DOUBLE_EQ(r.retransmitted_bytes, 0.0);
    EXPECT_TRUE(b.checker.clean()) << b.checker.report();
}

TEST(TransportLink, MultiChunkPaysOneHeaderPerChunk)
{
    TransportConfig cfg;
    cfg.chunk_bytes = 400;
    Bench b(cfg);
    const auto r = b.send(key(), 1000); // 400 + 400 + 200.
    EXPECT_TRUE(r.delivered);
    EXPECT_EQ(r.chunks, 3u);
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_NEAR(r.bytes_sent, 1000.0 + 3 * kHdr, 1e-6);
    EXPECT_NEAR(r.elapsed_s, (1000.0 + 3 * kHdr) / 1000.0, 1e-6);
    EXPECT_TRUE(b.checker.clean()) << b.checker.report();
}

TEST(TransportLink, TruncationResumesFromDeliveredOffset)
{
    // The link dies 3000 wire-bytes into an 8240-byte chunk frame; the
    // retry resends only the header and the missing payload tail.
    TransportConfig cfg;
    cfg.jitter_frac = 0.0; // exact timing math below.
    fault::FaultPlan plan;
    auto t = rule(0.0);
    t.truncate_bytes = 3000.0;
    plan.transfer_faults.push_back(t);

    Bench b(cfg, plan);
    const auto r = b.send(key(), 8192);
    EXPECT_TRUE(r.delivered);
    EXPECT_EQ(r.chunks, 1u);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(r.retries, 1u);
    // First attempt delivered header + 2952 payload; the resumed retry
    // sends header + the remaining 5240 payload bytes.
    EXPECT_NEAR(r.bytes_sent, 3000.0 + kHdr + (8192.0 - 2952.0), 1e-6);
    // Only the header travels twice.
    EXPECT_NEAR(r.retransmitted_bytes, kHdr, 1e-6);
    EXPECT_NEAR(r.backoff_s, cfg.backoff_base_s, 1e-9);
    EXPECT_TRUE(b.checker.clean()) << b.checker.report();
}

TEST(TransportLink, FromScratchBaselineResendsWholeChunk)
{
    TransportConfig cfg;
    cfg.jitter_frac = 0.0;
    cfg.resume_from_offset = false;
    fault::FaultPlan plan;
    auto t = rule(0.0);
    t.truncate_bytes = 3000.0;
    plan.transfer_faults.push_back(t);

    Bench b(cfg, plan);
    const auto r = b.send(key(), 8192);
    EXPECT_TRUE(r.delivered);
    EXPECT_EQ(r.retries, 1u);
    // The retry resends everything, so the 2952 payload bytes that had
    // already been delivered travel again (plus the header).
    EXPECT_NEAR(r.bytes_sent, 3000.0 + kHdr + 8192.0, 1e-6);
    EXPECT_NEAR(r.retransmitted_bytes, kHdr + 2952.0, 1e-6);
    EXPECT_TRUE(b.checker.clean()) << b.checker.report();
}

TEST(TransportLink, CorruptedChunkFailsCrcAndIsRetransmitted)
{
    TransportConfig cfg;
    fault::FaultPlan plan;
    auto c = rule(0.0);
    c.corrupt = true;
    plan.transfer_faults.push_back(c);

    Bench b(cfg, plan);
    const auto r = b.send(key(), 2000);
    EXPECT_TRUE(r.delivered);
    EXPECT_EQ(r.chunks, 1u);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(r.corrupt_chunks, 1u);
    // The corrupted copy is discarded whole: the clean retry resends
    // the full chunk, so everything delivered twice is retransmission.
    EXPECT_NEAR(r.retransmitted_bytes, kHdr + 2000.0, 1e-6);
    // The checker saw the CRC rejection and the clean accept; neither
    // violates an invariant (no corrupted chunk was *accepted*).
    EXPECT_TRUE(b.checker.clean()) << b.checker.report();

    // A corrupted transfer that is cut mid-flow leaves a garbled byte
    // in the receiver's prefix: the resumed tail completes the chunk,
    // which fails its CRC once and is then resent whole. A corrupted
    // transfer that delivers no payload byte (the header is cut, or is
    // all that got through, or the chunk is empty) has no byte to
    // garble, so it arrives intact, as over UDP.
    struct Case
    {
        const char *what;
        double truncate_bytes;
        std::size_t bytes;
        std::size_t attempts;
        std::size_t corrupt_chunks;
    };
    const Case cases[] = {
        {"cut after 500 payload bytes", kHdr + 500.0, 2000, 3, 1},
        {"cut inside the header", kHdr / 2, 2000, 2, 0},
        {"cut after the header", kHdr, 2000, 2, 0},
        {"empty chunk", kHdr, 0, 1, 0},
    };
    for (const Case &k : cases) {
        fault::FaultPlan cut;
        auto cc = rule(0.0);
        cc.corrupt = true;
        cc.truncate_bytes = k.truncate_bytes;
        cut.transfer_faults.push_back(cc);
        Bench bc(cfg, cut);
        const MessageKey mk = key(0, 2);
        const auto rc = bc.send(mk, k.bytes);
        EXPECT_TRUE(rc.delivered) << k.what;
        EXPECT_EQ(rc.attempts, k.attempts) << k.what;
        EXPECT_EQ(rc.corrupt_chunks, k.corrupt_chunks) << k.what;
        EXPECT_EQ(bc.payloadOf(mk),
                  synthesizeMessage(mk, k.bytes, cfg.chunk_bytes))
            << k.what;
        EXPECT_TRUE(bc.checker.clean()) << k.what << bc.checker.report();
    }
}

TEST(TransportLink, DuplicateDeliveryIsAppliedExactlyOnce)
{
    TransportConfig cfg;
    fault::FaultPlan plan;
    auto d = rule(0.0);
    d.duplicate = true;
    plan.transfer_faults.push_back(d);

    Bench b(cfg, plan);
    const auto r = b.send(key(), 2000);
    EXPECT_TRUE(r.delivered);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_EQ(r.duplicate_chunks, 1u);
    // Apply-once under duplication is exactly what the checker's
    // accepted-chunks shadow set verifies.
    EXPECT_TRUE(b.checker.clean()) << b.checker.report();
}

TEST(TransportLink, DeadlineExpiresInsteadOfBackingOffPastIt)
{
    // A link that is dead for the first 10 s: a send with a 1 s
    // deadline must give up at the deadline, not retry into the void.
    TransportConfig cfg;
    fault::FaultPlan plan;
    fault::LinkFault dead;
    dead.link = 0;
    dead.start_s = 0.0;
    dead.duration_s = 10.0;
    dead.factor = 0.0;
    plan.link_faults.push_back(dead);

    sim::Simulation sim;
    fault::FaultInjector injector(sim, plan);
    Channel ch(sim, {injector.perturbTrace(
                    BandwidthTrace::constant(1000.0, 600.0), 0, 600.0)});
    injector.attach(ch);
    fault::InvariantChecker checker;
    DesBackend backend(sim, ch);
    ReliableLink link(backend, cfg, [&checker](const TransportEvent &ev) {
        checker.onTransportEvent(ev);
    });

    SendResult out;
    int fired = 0;
    link.startSend(0, key(), std::vector<std::uint8_t>(500), 1.0,
                   [&](SendResult r) {
        out = r;
        ++fired;
    });
    sim.run();
    ASSERT_EQ(fired, 1);
    EXPECT_FALSE(out.delivered);
    EXPECT_TRUE(out.deadline_expired);
    EXPECT_NEAR(out.elapsed_s, 1.0, 1e-6);
    EXPECT_EQ(out.bytes_sent, 0u);
    EXPECT_TRUE(checker.clean()) << checker.report();
}

TEST(TransportLink, AttemptCapGivesUpAfterRepeatedCorruption)
{
    TransportConfig cfg;
    cfg.max_attempts_per_chunk = 2;
    fault::FaultPlan plan;
    for (const double at : {0.0, 0.01}) {
        auto c = rule(at);
        c.corrupt = true;
        plan.transfer_faults.push_back(c);
    }

    Bench b(cfg, plan);
    const auto r = b.send(key(), 1000);
    EXPECT_FALSE(r.delivered);
    EXPECT_FALSE(r.deadline_expired);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(r.corrupt_chunks, 2u);
    // Nothing corrupted was ever accepted.
    EXPECT_TRUE(b.checker.clean()) << b.checker.report();
}

TEST(TransportLink, PayloadReassemblyIsByteIdenticalUnderFaults)
{
    // Real bytes through truncation + corruption + duplication: the
    // receiver must reassemble exactly what was sent.
    TransportConfig cfg;
    cfg.chunk_bytes = 300;
    fault::FaultPlan plan;
    auto t = rule(0.0);
    t.truncate_bytes = 150.0;
    plan.transfer_faults.push_back(t);
    auto c = rule(0.2);
    c.corrupt = true;
    plan.transfer_faults.push_back(c);
    auto d = rule(0.5);
    d.duplicate = true;
    plan.transfer_faults.push_back(d);

    Bench b(cfg, plan);
    std::vector<std::uint8_t> payload(1000);
    std::iota(payload.begin(), payload.end(), std::uint8_t{0});

    SendResult out;
    int fired = 0;
    const MessageKey k = key(3, 42, 7);
    b.link->startSend(0, k, payload, kNoDeadline, [&](SendResult r) {
        out = r;
        ++fired;
    });
    b.sim.run();
    ASSERT_EQ(fired, 1);
    EXPECT_TRUE(out.delivered);
    EXPECT_GT(out.retries, 0u);
    EXPECT_EQ(b.payloadOf(k), payload);
    EXPECT_TRUE(b.checker.clean()) << b.checker.report();
}

TEST(TransportLink, PayloadNeedNotOutliveStartCall)
{
    // The lifetime contract (see startSend): the link leases a
    // retransmission copy before returning, so the caller may destroy
    // and even clobber its buffer immediately — mid-send, with
    // retransmissions still reading "the payload". Faults force both a
    // resume and a CRC retry so retries really do re-read it.
    TransportConfig cfg;
    cfg.chunk_bytes = 300;
    fault::FaultPlan plan;
    auto t = rule(0.0);
    t.truncate_bytes = 150.0;
    plan.transfer_faults.push_back(t);
    auto c = rule(0.3);
    c.corrupt = true;
    plan.transfer_faults.push_back(c);

    Bench b(cfg, plan);
    std::vector<std::uint8_t> expected(1000);
    std::iota(expected.begin(), expected.end(), std::uint8_t{0});

    SendResult out;
    int fired = 0;
    const MessageKey k = key(1, 9, 4);
    {
        auto doomed = expected; // dies (and is poisoned) below.
        b.link->startSend(0, k, doomed, kNoDeadline, [&](SendResult r) {
            out = r;
            ++fired;
        });
        std::fill(doomed.begin(), doomed.end(), std::uint8_t{0xEE});
    }
    b.sim.run();
    ASSERT_EQ(fired, 1);
    EXPECT_TRUE(out.delivered);
    EXPECT_GT(out.retries, 0u);
    EXPECT_EQ(b.payloadOf(k), expected);
    EXPECT_TRUE(b.checker.clean()) << b.checker.report();
}

TEST(TransportLink, PoolRecyclesAcrossBackToBackSends)
{
    // Steady-state sends lease their working buffers from the global
    // BufferPool: after the first send warmed the pool, later sends
    // should be served mostly from the free lists.
    TransportConfig cfg;
    Bench b(cfg);
    b.send(key(0, 1), 500); // warm-up.
    const auto before = BufferPool::global().stats();
    for (std::int64_t v = 2; v < 10; ++v)
        EXPECT_TRUE(b.send(key(0, v), 500).delivered);
    const auto after = BufferPool::global().stats();
    EXPECT_GT(after.leases, before.leases);
    EXPECT_EQ(after.allocations, before.allocations)
        << "steady-state sends allocated fresh buffers";
}

TEST(TransportLink, TotalsAggregateAcrossSends)
{
    TransportConfig cfg;
    fault::FaultPlan plan;
    auto c = rule(0.0);
    c.corrupt = true;
    plan.transfer_faults.push_back(c);

    Bench b(cfg, plan);
    const auto r1 = b.send(key(0, 1), 500);
    const auto r2 = b.send(key(0, 2), 700);
    EXPECT_TRUE(r1.delivered);
    EXPECT_TRUE(r2.delivered);
    const auto &t = b.link->totals();
    EXPECT_EQ(t.sends, 2u);
    EXPECT_EQ(t.delivered, 2u);
    EXPECT_EQ(t.failed, 0u);
    EXPECT_EQ(t.attempts, r1.attempts + r2.attempts);
    EXPECT_EQ(t.corrupt_chunks, 1u);
    EXPECT_EQ(t.bytes_sent, r1.bytes_sent + r2.bytes_sent);
}

TEST(TransportLink, BackoffJitterIsDeterministicPerKey)
{
    // Same config + same faults + same key ⇒ byte-identical event log;
    // a different message key draws a different jitter stream.
    const auto run = [](const MessageKey &k) {
        TransportConfig cfg;
        fault::FaultPlan plan;
        auto t = rule(0.0);
        t.truncate_bytes = 200.0;
        plan.transfer_faults.push_back(t);
        auto t2 = rule(0.05);
        t2.truncate_bytes = 100.0;
        plan.transfer_faults.push_back(t2);
        Bench b(cfg, plan);
        const auto r = b.send(k, 2000);
        EXPECT_TRUE(r.delivered);
        return b.eventText();
    };
    const auto a1 = run(key(1, 5, 2));
    const auto a2 = run(key(1, 5, 2));
    const auto other = run(key(2, 5, 2));
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, other);
}

TEST(TransportLink, DestroyMidSendInvokesDropNotDone)
{
    sim::Simulation sim;
    Channel ch(sim, {BandwidthTrace::constant(1.0, 600.0)});
    DesBackend backend(sim, ch);
    bool done_fired = false;
    bool drop_fired = false;
    {
        ReliableLink link(backend, TransportConfig{});
        link.startSend(
            0, key(), std::vector<std::uint8_t>(100000), kNoDeadline,
            [&](SendResult) { done_fired = true; },
            [&] { drop_fired = true; });
        // Destroy the link with the first chunk still in the air.
    }
    EXPECT_FALSE(done_fired);
    EXPECT_TRUE(drop_fired);
    sim.run(); // stale channel callbacks must no-op.
    EXPECT_FALSE(done_fired);
}

TEST(TransportLink, ResetAbortsInFlightSends)
{
    // Peer-restart contract on the sending side (see reset()): every
    // in-flight send fails fast with delivered=false. The receiver is
    // not the link's to reset: it still remembers the delivered key,
    // so a re-send of it is answered as a duplicate, not handed up.
    TransportConfig cfg;
    Bench b(cfg);
    std::vector<std::uint8_t> payload(600);
    std::iota(payload.begin(), payload.end(), std::uint8_t{1});

    const MessageKey done_key = key(0, 1);
    SendResult first;
    int first_fired = 0;
    b.link->startSend(0, done_key, payload, kNoDeadline, [&](SendResult r) {
        first = r;
        ++first_fired;
    });
    b.sim.run();
    ASSERT_EQ(first_fired, 1);
    ASSERT_TRUE(first.delivered);
    ASSERT_EQ(b.delivered.size(), 1u);
    ASSERT_EQ(b.payloadOf(done_key), payload);

    // A second message still in the air when the peer dies.
    const MessageKey inflight_key = key(0, 2);
    SendResult aborted;
    int aborted_fired = 0;
    b.link->startSend(0, inflight_key, std::vector<std::uint8_t>(100000),
                      kNoDeadline, [&](SendResult r) {
                          aborted = r;
                          ++aborted_fired;
                      });
    b.sim.runUntil(b.sim.now() + 0.05);
    ASSERT_EQ(aborted_fired, 0); // genuinely mid-flight.

    b.link->reset();
    EXPECT_EQ(aborted_fired, 1);
    EXPECT_FALSE(aborted.delivered);
    EXPECT_EQ(b.delivered.size(), 1u); // the abort handed nothing up.

    SendResult again;
    b.link->startSend(0, done_key, payload, kNoDeadline,
                      [&](SendResult r) { again = r; });
    b.sim.run(); // stale channel callbacks from the aborted op must no-op.
    EXPECT_TRUE(again.delivered);
    EXPECT_EQ(again.duplicate_chunks, 1u);
    EXPECT_EQ(b.delivered.size(), 1u);
    EXPECT_EQ(aborted_fired, 1);
    EXPECT_TRUE(b.checker.clean()) << b.checker.report();
}

TEST(TransportLink, ReceiverRestartForgetsDeliveredKeys)
{
    // The remote process restarted (DesFabricNet::restartReceivers):
    // its fresh receiver has never seen the key, so the same key flows
    // end to end again and is handed up a second time.
    TransportConfig cfg;
    Bench b(cfg);
    std::vector<std::uint8_t> payload(600);
    std::iota(payload.begin(), payload.end(), std::uint8_t{1});
    const MessageKey k = key(0, 1);
    b.link->startSend(0, k, payload, kNoDeadline, {});
    b.sim.run();
    ASSERT_EQ(b.delivered.size(), 1u);

    b.backend->restartReceiver();
    SendResult again;
    b.link->startSend(0, k, payload, kNoDeadline,
                      [&](SendResult r) { again = r; });
    b.sim.run();
    EXPECT_TRUE(again.delivered);
    EXPECT_EQ(again.duplicate_chunks, 0u);
    ASSERT_EQ(b.delivered.size(), 2u);
    EXPECT_EQ(b.payloadOf(k), payload);
}

TEST(TransportLink, ReceiverRestartMidChunkRestartsTheChunk)
{
    // A receiver that restarts between a cut attempt and its resume
    // has lost the chunk's prefix, so the resumed tail cannot complete
    // the chunk. The twin reports the prefix the receiver holds (none),
    // as a socket receiver's partial ACK does, and the sender resumes
    // from there: the chunk restarts whole and is delivered, once.
    TransportConfig cfg;
    cfg.max_attempts_per_chunk = 3;
    fault::FaultPlan plan;
    auto t = rule(0.0);
    t.truncate_bytes = 3000.0;
    plan.transfer_faults.push_back(t);
    Bench b(cfg, plan);

    const MessageKey k = key();
    std::vector<std::uint8_t> payload(8192);
    std::iota(payload.begin(), payload.end(), std::uint8_t{1});
    SendResult out;
    b.link->startSend(0, k, payload, kNoDeadline,
                      [&](SendResult r) { out = r; });
    b.sim.runUntil(3.5); // cut at 3 s; the resumed tail is in flight.
    ASSERT_EQ(out.attempts, 0u);
    b.backend->restartReceiver();
    b.sim.run();
    EXPECT_TRUE(out.delivered);
    // The cut, the stranded tail, then the whole chunk from offset 0.
    EXPECT_EQ(out.attempts, 3u);
    EXPECT_EQ(out.bytes_sent, 3000u + kHdr + (kHdr + 8192u));
    ASSERT_EQ(b.delivered.size(), 1u);
    EXPECT_EQ(b.payloadOf(k), payload);
    EXPECT_TRUE(b.checker.clean()) << b.checker.report();
}

TEST(TransportLink, ResetCallbackMayStartNewSend)
{
    // The done callback of an aborted op may start its retry
    // immediately (the worker's re-Hello path does exactly this): the
    // new op must land in the fresh op set, not the one being torn
    // down, and then complete normally.
    TransportConfig cfg;
    Bench b(cfg);
    SendResult retry;
    int retry_fired = 0;
    b.link->startSend(0, key(0, 7), std::vector<std::uint8_t>(100000),
                      kNoDeadline, [&](SendResult r) {
                          if (r.delivered)
                              return;
                          b.link->startSend(0, key(0, 8),
                                            std::vector<std::uint8_t>(400),
                                            kNoDeadline,
                                            [&](SendResult r2) {
                                                retry = r2;
                                                ++retry_fired;
                                            });
                      });
    b.sim.runUntil(0.05);
    b.link->reset();
    EXPECT_EQ(retry_fired, 0);
    b.sim.run();
    ASSERT_EQ(retry_fired, 1);
    EXPECT_TRUE(retry.delivered);
}

TEST(TransportLink, InvalidArgumentsDie)
{
    sim::Simulation sim;
    Channel ch(sim, {BandwidthTrace::constant(100.0, 60.0)});
    DesBackend backend(sim, ch);
    TransportConfig bad;
    bad.chunk_bytes = 0;
    EXPECT_DEATH(ReliableLink(backend, bad), "chunk");
    TransportConfig big;
    big.chunk_bytes = kMaxChunkBytes + 1;
    EXPECT_DEATH(ReliableLink(backend, big), "chunk");
    TransportConfig badj;
    badj.jitter_frac = 1.5;
    EXPECT_DEATH(ReliableLink(backend, badj), "jitter");
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
