/**
 * @file
 * The airtime-fair channel core: the virtual-clock net::FluidChannel
 * against the per-flow settle it replaced
 * (tests/net/fluid_channel_ref.hpp). Over randomized start, finish,
 * step and cut sequences on constant and outdoor-trace links both must
 * finish the same flows in the same order, at times that agree within
 * 1e-9 relative, and leave the same bytes to every cut (within 1e-9
 * relative, or both under the byte epsilon that reads as complete).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/fluid_channel.hpp"
#include "net/trace_generator.hpp"
#include "fluid_channel_ref.hpp"

namespace rog {
namespace net {
namespace {

std::vector<BandwidthTrace>
constantLinks(std::initializer_list<double> rates)
{
    std::vector<BandwidthTrace> links;
    for (double r : rates)
        links.push_back(BandwidthTrace::constant(r, 0.1));
    return links;
}

TEST(FluidChannelTest, OneTransferRunsAtItsLinkRate)
{
    FluidChannel ch(constantLinks({100.0}));
    ch.start(2.0, 0, 300.0, 7);
    EXPECT_EQ(ch.active(), 1u);
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 5.0);
    EXPECT_EQ(ch.finish(5.0), 7u);
    EXPECT_TRUE(ch.empty());
}

TEST(FluidChannelTest, SharesAirtimeAndTiesGoByStartOrder)
{
    FluidChannel ch(constantLinks({100.0, 50.0}));
    // Two transfers at rate 100 share the airtime: each moves 50 B/s.
    ch.start(0.0, 0, 100.0, 1);
    ch.start(0.0, 0, 100.0, 2);
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 2.0);
    EXPECT_EQ(ch.finish(2.0), 1u); // the tie goes to the earlier start.
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 2.0);
    EXPECT_EQ(ch.finish(2.0), 2u);

    // A late joiner halves the first transfer's share from t = 11.
    ch.start(10.0, 1, 100.0, 3); // alone: 50 B by t = 11.
    ch.start(11.0, 1, 25.0, 4);  // both at 25 B/s from t = 11.
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 12.0);
    EXPECT_EQ(ch.finish(12.0), 4u);
    // Transfer 3 has 25 B left, alone again at 50 B/s.
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 12.5);
    EXPECT_EQ(ch.finish(12.5), 3u);
}

TEST(FluidChannelTest, ConstantLinkSchedulesNoStepWake)
{
    FluidChannel ch(constantLinks({100.0}));
    ch.start(0.05, 0, 1000.0, 1);
    EXPECT_EQ(ch.nextEvent(), ch.nextFinish());
    EXPECT_DOUBLE_EQ(ch.nextEvent(), 10.05);
}

TEST(FluidChannelTest, VaryingLinkWakesAtTheNextStepAndRekeys)
{
    // 100 B/s for 0.2 s, then 200 B/s.
    std::vector<double> samples(2, 100.0);
    samples.resize(20, 200.0);
    FluidChannel ch({BandwidthTrace(samples, 0.1)});
    ch.start(0.05, 0, 100.0, 1);
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 1.05);
    EXPECT_DOUBLE_EQ(ch.nextEvent(), 0.1);
    ch.advance(0.1); // same rate: the key stays.
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 1.05);
    EXPECT_DOUBLE_EQ(ch.nextEvent(), 0.2);
    ch.advance(0.2); // 15 B through, 85 B left at 200 B/s.
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 0.2 + 85.0 / 200.0);
    EXPECT_DOUBLE_EQ(ch.cut(0.3, 1), 65.0);
    EXPECT_TRUE(ch.empty());
    EXPECT_EQ(ch.nextEvent(), std::numeric_limits<double>::infinity());
}

TEST(FluidChannelTest, DeadLinkHoldsItsBytesUntilTheRateReturns)
{
    std::vector<double> samples(3, 0.0);
    samples.resize(10, 50.0);
    FluidChannel ch({BandwidthTrace(samples, 0.1)});
    ch.start(0.0, 0, 10.0, 4);
    EXPECT_EQ(ch.nextFinish(), std::numeric_limits<double>::infinity());
    EXPECT_FALSE(ch.nextDone(0.1));
    for (double t : {0.1, 0.2, 0.30000000000000004})
        ch.advance(t);
    EXPECT_NEAR(ch.nextFinish(), 0.5, 1e-12); // 10 B at 50 B/s.
    ch.advance(0.4);
    // The finish lands on the 0.5 step: whichever rounds first, the
    // flow is through there.
    const double t = ch.nextEvent();
    EXPECT_NEAR(t, 0.5, 1e-12);
    EXPECT_TRUE(ch.nextDone(t));
    EXPECT_EQ(ch.finish(t), 4u);
}

bool
closeRelative(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::fmax(std::fabs(a), std::fabs(b));
}

/** Cut bytes agree within 1e-9 relative, or both are rounding residue
 *  the channel reads as a completed flow. */
bool
sameCutBytes(double a, double b)
{
    return (a <= FluidChannel::kByteEpsilon &&
            b <= FluidChannel::kByteEpsilon) ||
           closeRelative(a, b);
}

/** Links for a history: @p traced of them outdoor traces (mean
 *  @p mean_rate), the rest constant at +-50% around it. */
std::vector<BandwidthTrace>
historyLinks(Rng &rng, std::size_t count, std::size_t traced,
             double mean_rate, std::uint64_t seed)
{
    std::vector<BandwidthTrace> links;
    for (std::size_t l = 0; l < count; ++l) {
        if (l < traced)
            links.push_back(generateTrace(TraceModel::outdoor(mean_rate),
                                          60.0, seed * 100 + l));
        else
            links.push_back(BandwidthTrace::constant(
                mean_rate * (1.0 + 0.5 * rng.uniform(-1.0, 1.0)), 0.1));
    }
    return links;
}

/** One randomized history on both channels. Starts and cuts land at
 *  the current instant (dt = 0) or between events, never past the
 *  oracle's next finish or step; the rest of the ops advance both to
 *  that event. The oracle steps at every boundary, so the core is
 *  never driven past its own next step. */
void
runHistory(std::uint64_t seed, std::size_t ops, double mean_rate,
           std::size_t traced, bool cuts)
{
    Rng rng(seed);
    const auto links = historyLinks(rng, 16, traced, mean_rate, seed);
    FluidChannel fast(links);
    ref::ScanChannel slow(links);
    std::vector<std::uint64_t> live;
    double now = 0.0;
    std::uint64_t next_tag = 0;
    std::size_t finished = 0;
    std::size_t cut_count = 0;
    for (std::size_t op = 0; op < ops; ++op) {
        ASSERT_EQ(fast.active(), slow.active());
        const double next = slow.nextEvent();
        const std::uint64_t pick = rng.uniformInt(100);
        if (!slow.empty() && (slow.active() > 64 || pick < 45)) {
            now = next;
            if (slow.nextFinish() > now) {
                fast.advance(now); // a rate step.
                slow.advance(now);
                continue;
            }
            ASSERT_TRUE(closeRelative(fast.nextFinish(), slow.nextFinish()))
                << "op " << op << ": " << fast.nextFinish() << " vs "
                << slow.nextFinish();
            const std::uint64_t tag = slow.finish(now);
            ASSERT_EQ(fast.finish(now), tag) << "op " << op;
            live.erase(std::find(live.begin(), live.end(), tag));
            ++finished;
            continue;
        }
        const double horizon = slow.empty() ? 0.01 : next - now;
        switch (rng.uniformInt(3)) {
        case 0:
            break; // at the current instant.
        case 1:
            now += rng.uniform(0.0, 1.0) * horizon;
            break;
        default:
            now += std::fmin(rng.uniform(0.0, 0.01), horizon);
            break;
        }
        if (cuts && !live.empty() && pick < 55) {
            const std::size_t i = rng.uniformInt(live.size());
            const std::uint64_t tag = live[i];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
            const double left_fast = fast.cut(now, tag);
            const double left_slow = slow.cut(now, tag);
            ASSERT_TRUE(sameCutBytes(left_fast, left_slow))
                << "op " << op << ": cut left " << left_fast << " vs "
                << left_slow;
            ++cut_count;
            continue;
        }
        const double bytes = rng.uniformInt(4) == 0
                                 ? 16.0 // header-only pulls.
                                 : 16.0 + rng.uniform(0.0, 4096.0);
        const std::size_t link = rng.uniformInt(links.size());
        fast.start(now, link, bytes, next_tag);
        slow.start(now, link, bytes, next_tag);
        live.push_back(next_tag++);
    }
    while (!slow.empty()) {
        now = slow.nextEvent();
        if (slow.nextFinish() > now) {
            fast.advance(now);
            slow.advance(now);
            continue;
        }
        ASSERT_TRUE(closeRelative(fast.nextFinish(), slow.nextFinish()));
        ASSERT_EQ(fast.finish(now), slow.finish(now));
        ++finished;
    }
    EXPECT_TRUE(fast.empty());
    EXPECT_EQ(finished + cut_count, next_tag);
    if (cuts) {
        EXPECT_GT(cut_count, 0u);
    }
}

TEST(FluidChannelTest, MatchesTheScanOracleOnConstantLinks)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        runHistory(seed, 4000, seed % 2 == 0 ? 2e6 : 1e3, 0, false);
        if (HasFatalFailure())
            return;
    }
}

TEST(FluidChannelTest, MatchesTheScanOracleOnOutdoorLinksWithCuts)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        runHistory(seed, 4000, seed % 2 == 0 ? 2e6 : 1e4, 8, true);
        if (HasFatalFailure())
            return;
    }
}

TEST(FluidChannelTest, IdenticalTransfersFinishInStartOrder)
{
    const auto links = constantLinks({1e6});
    FluidChannel fast(links);
    ref::ScanChannel slow(links);
    for (std::uint64_t tag = 0; tag < 50; ++tag) {
        fast.start(1.0, 0, 256.0, tag);
        slow.start(1.0, 0, 256.0, tag);
    }
    for (std::uint64_t tag = 0; tag < 50; ++tag) {
        const double t = slow.nextFinish();
        EXPECT_EQ(fast.finish(t), tag);
        EXPECT_EQ(slow.finish(t), tag);
    }
}

} // namespace
} // namespace net
} // namespace rog
