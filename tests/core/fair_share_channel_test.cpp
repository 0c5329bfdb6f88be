/**
 * @file
 * The fleet's airtime-fair channel: the virtual-clock
 * core::FairShareChannel against the per-transfer settle it replaced
 * (tests/core/fair_share_channel_ref.hpp). Over randomized start and
 * finish sequences both must finish the same transfers in the same
 * order, at times that agree within 1e-9 relative.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "core/fair_share_channel.hpp"
#include "core/fair_share_channel_ref.hpp"

namespace rog {
namespace core {
namespace {

TEST(FairShareChannelTest, OneTransferRunsAtItsLinkRate)
{
    FairShareChannel ch;
    ch.start(2.0, 300.0, 100.0, 7);
    EXPECT_EQ(ch.active(), 1u);
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 5.0);
    EXPECT_EQ(ch.finish(5.0), 7u);
    EXPECT_TRUE(ch.empty());
}

TEST(FairShareChannelTest, SharesAirtimeAndTiesGoByStartOrder)
{
    FairShareChannel ch;
    // Two transfers at rate 100 share the airtime: each moves 50 B/s.
    ch.start(0.0, 100.0, 100.0, 1);
    ch.start(0.0, 100.0, 100.0, 2);
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 2.0);
    EXPECT_EQ(ch.finish(2.0), 1u); // the tie goes to the earlier start.
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 2.0);
    EXPECT_EQ(ch.finish(2.0), 2u);

    // A late joiner halves the first transfer's share from t = 1.
    ch.start(10.0, 100.0, 50.0, 3); // alone: 50 B by t = 11.
    ch.start(11.0, 25.0, 50.0, 4);  // both at 25 B/s from t = 11.
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 12.0);
    EXPECT_EQ(ch.finish(12.0), 4u);
    // Transfer 3 has 25 B left, alone again at 50 B/s.
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 12.5);
    EXPECT_EQ(ch.finish(12.5), 3u);
}

bool
closeRelative(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::fmax(std::fabs(a), std::fabs(b));
}

/** One randomized history on both channels. Rates spread like the
 *  fleet's links (+-50% around @p mean_rate); starts land at finish
 *  instants (a push completion starting its pull), at the current time
 *  (dt = 0), or between events, never after a pending finish. */
void
runHistory(std::uint64_t seed, std::size_t ops, double mean_rate)
{
    Rng rng(seed);
    FairShareChannel fast;
    ref::ScanChannel slow;
    double now = 0.0;
    std::uint64_t next_tag = 0;
    std::size_t finished = 0;
    for (std::size_t op = 0; op < ops; ++op) {
        ASSERT_EQ(fast.active(), slow.active());
        const bool finish =
            !slow.empty() &&
            (slow.active() > 64 || rng.uniformInt(100) < 45);
        if (finish) {
            const double t_fast = fast.nextFinish();
            const double t_slow = slow.nextFinish();
            ASSERT_TRUE(closeRelative(t_fast, t_slow))
                << "op " << op << ": " << t_fast << " vs " << t_slow;
            now = t_slow;
            ASSERT_EQ(fast.finish(now), slow.finish(now)) << "op " << op;
            ++finished;
            continue;
        }
        // Never past the next finish: the event queue fires it first.
        const double horizon = slow.empty() ? 0.01 : slow.nextFinish() - now;
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
        const double bytes = rng.uniformInt(4) == 0
                                 ? 16.0 // header-only pulls.
                                 : 16.0 + rng.uniform(0.0, 4096.0);
        const double rate = mean_rate * (1.0 + 0.5 * rng.uniform(-1.0, 1.0));
        fast.start(now, bytes, rate, next_tag);
        slow.start(now, bytes, rate, next_tag);
        ++next_tag;
    }
    while (!slow.empty()) {
        ASSERT_TRUE(closeRelative(fast.nextFinish(), slow.nextFinish()));
        now = slow.nextFinish();
        ASSERT_EQ(fast.finish(now), slow.finish(now));
        ++finished;
    }
    EXPECT_TRUE(fast.empty());
    EXPECT_EQ(finished, next_tag);
}

TEST(FairShareChannelTest, MatchesTheScanOracleOnRandomHistories)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        runHistory(seed, 4000, seed % 2 == 0 ? 2e6 : 1e3);
        if (HasFatalFailure())
            return;
    }
}

TEST(FairShareChannelTest, IdenticalTransfersFinishInStartOrder)
{
    FairShareChannel fast;
    ref::ScanChannel slow;
    for (std::uint64_t tag = 0; tag < 50; ++tag) {
        fast.start(1.0, 256.0, 1e6, tag);
        slow.start(1.0, 256.0, 1e6, tag);
    }
    for (std::uint64_t tag = 0; tag < 50; ++tag) {
        const double t = slow.nextFinish();
        EXPECT_EQ(fast.finish(t), tag);
        EXPECT_EQ(slow.finish(t), tag);
    }
}

} // namespace
} // namespace core
} // namespace rog
