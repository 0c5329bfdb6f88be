/**
 * @file
 * Resume economics: retrying a cut chunk from the delivered byte
 * offset must retransmit measurably fewer bytes than the from-scratch
 * baseline (resume_from_offset = false), both in an exact single-cut
 * micro scenario and in aggregate over randomized truncation/timeout
 * schedules. The aggregate numbers are reported for EXPERIMENTS.md.
 */
#include <gtest/gtest.h>

#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/trace_generator.hpp"
#include "net/transport/des_backend.hpp"
#include "net/transport/payload.hpp"
#include "net/transport/reliable_link.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

constexpr double kHdr = FrameHeader::kWireSize;

SendResult
runSingleCut(bool resume)
{
    // One 8192-byte chunk, cut 3000 wire-bytes in (header + 2952
    // payload), then a clean retry.
    fault::FaultPlan plan;
    fault::TransferFaultRule t;
    t.link = 0;
    t.at_s = 0.0;
    t.truncate_bytes = 3000.0;
    plan.transfer_faults.push_back(t);

    sim::Simulation sim;
    fault::FaultInjector injector(sim, plan);
    Channel ch(sim, {BandwidthTrace::constant(10e3, 600.0)});
    injector.attach(ch);
    TransportConfig cfg;
    cfg.jitter_frac = 0.0;
    cfg.resume_from_offset = resume;
    DesBackend backend(sim, ch);
    ReliableLink link(backend, cfg);

    SendResult out;
    MessageKey key;
    key.version = 1;
    link.startSend(0, key, synthesizeMessage(key, 8192, cfg.chunk_bytes),
                   kNoDeadline, [&](SendResult r) { out = r; });
    sim.run();
    return out;
}

TEST(TransportResume, SingleCutRetransmitsOnlyTheHeader)
{
    const auto resumed = runSingleCut(true);
    const auto scratch = runSingleCut(false);
    ASSERT_TRUE(resumed.delivered);
    ASSERT_TRUE(scratch.delivered);
    EXPECT_EQ(resumed.retries, 1u);
    EXPECT_EQ(scratch.retries, 1u);

    // Resumed retry: header again + the missing 5240-byte tail.
    EXPECT_NEAR(resumed.retransmitted_bytes, kHdr, 1e-6);
    EXPECT_NEAR(resumed.bytes_sent, 3000.0 + kHdr + 5240.0, 1e-6);
    // From-scratch retry: the whole 8192-byte chunk travels again.
    EXPECT_NEAR(scratch.retransmitted_bytes, kHdr + 2952.0, 1e-6);
    EXPECT_NEAR(scratch.bytes_sent, 3000.0 + kHdr + 8192.0, 1e-6);

    EXPECT_LT(resumed.retransmitted_bytes,
              scratch.retransmitted_bytes);
    EXPECT_LT(resumed.bytes_sent, scratch.bytes_sent);
}

TransportTotals
runSchedule(std::uint64_t seed, bool resume)
{
    Rng rng(seed);
    fault::FaultPlanConfig fcfg;
    fcfg.links = 2;
    fcfg.horizon_s = 40.0;
    fcfg.max_truncations_per_link = 2;
    fcfg.max_timeouts_per_link = 2;
    fcfg.truncate_min_bytes = 500.0;
    fcfg.truncate_max_bytes = 20e3;
    const fault::FaultPlan plan = fault::FaultPlan::random(seed, fcfg);

    sim::Simulation sim;
    fault::FaultInjector injector(sim, plan);
    std::vector<BandwidthTrace> traces;
    for (std::size_t l = 0; l < 2; ++l) {
        const auto base = generateTrace(
            TraceModel::outdoor(rng.uniform(10e3, 40e3)), 60.0,
            seed * 100 + l);
        traces.push_back(injector.perturbTrace(base, l, 200.0));
    }
    Channel ch(sim, std::move(traces));
    injector.attach(ch);

    TransportConfig cfg;
    cfg.chunk_bytes = 8192;
    cfg.max_attempts_per_chunk = 0; // retry until delivered.
    cfg.resume_from_offset = resume;
    DesBackend backend(sim, ch);
    ReliableLink link(backend, cfg);

    for (std::size_t i = 0; i < 6; ++i) {
        const double start = rng.uniform(0.0, 30.0);
        const auto l = rng.uniformInt(std::size_t{2});
        const auto bytes =
            static_cast<std::size_t>(rng.uniform(2e3, 30e3));
        MessageKey key;
        key.worker = static_cast<std::uint16_t>(l);
        key.version = static_cast<std::int64_t>(i);
        sim.after(start, [&link, &cfg, l, key, bytes] {
            link.startSend(l, key,
                           synthesizeMessage(key, bytes, cfg.chunk_bytes),
                           kNoDeadline, [](SendResult) {});
        });
    }
    sim.run();
    return link.totals();
}

TEST(TransportResume, ResumeLowersRetransmittedBytesInAggregate)
{
    // 40 randomized truncation/timeout schedules, each run twice —
    // identical faults, resume on vs off. Every message must deliver
    // in both modes; resumption must cut the retransmitted bytes.
    double resumed_retrans = 0.0, scratch_retrans = 0.0;
    double resumed_sent = 0.0, scratch_sent = 0.0;
    std::size_t resumed_retries = 0, scratch_retries = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const auto on = runSchedule(seed, true);
        const auto off = runSchedule(seed, false);
        ASSERT_EQ(on.delivered, on.sends) << "seed " << seed;
        ASSERT_EQ(off.delivered, off.sends) << "seed " << seed;
        resumed_retrans += on.retransmitted_bytes;
        scratch_retrans += off.retransmitted_bytes;
        resumed_sent += on.bytes_sent;
        scratch_sent += off.bytes_sent;
        resumed_retries += on.retries;
        scratch_retries += off.retries;
    }
    // The schedules actually exercised retransmission...
    ASSERT_GT(resumed_retries, 0u);
    ASSERT_GT(scratch_retrans, 0.0);
    // ...and resumption measurably lowered it (EXPERIMENTS.md).
    EXPECT_LT(resumed_retrans, 0.5 * scratch_retrans);
    EXPECT_LT(resumed_sent, scratch_sent);

    std::cout << "[resume-economics] retransmitted bytes: resume="
              << resumed_retrans << " scratch=" << scratch_retrans
              << " (saving "
              << 100.0 * (1.0 - resumed_retrans / scratch_retrans)
              << "%); wire bytes: resume=" << resumed_sent
              << " scratch=" << scratch_sent << "; retries: resume="
              << resumed_retries << " scratch=" << scratch_retries
              << std::endl;
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
