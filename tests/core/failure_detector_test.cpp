/**
 * @file
 * Unit tests of the phi-accrual membership tracker: suspicion grows
 * with silence, regular heartbeats keep a worker alive, the hard
 * detection bound catches workers that never beat, and the lifecycle
 * (alive -> suspect -> dead -> rejoining -> alive) is walked exactly
 * as documented with every transition recorded in the history.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/failure_detector.hpp"

namespace rog {
namespace core {
namespace {

FailureDetectorConfig
testConfig()
{
    FailureDetectorConfig cfg;
    cfg.heartbeat_interval_s = 1.0;
    cfg.phi_suspect = 2.0;
    cfg.phi_evict = 4.0;
    cfg.detection_bound_s = 30.0;
    cfg.min_samples = 3;
    return cfg;
}

/** Deliver @p n on-schedule beats at the configured interval. */
double
beatRegularly(MembershipTracker &t, std::size_t worker, std::size_t n,
              double start = 0.0, double interval = 1.0)
{
    double now = start;
    for (std::size_t i = 0; i < n; ++i) {
        t.observeHeartbeat(worker, now);
        now += interval;
    }
    return now - interval; // time of the last beat.
}

TEST(FailureDetectorConfig, ValidatesItsFields)
{
    EXPECT_TRUE(FailureDetectorConfig{}.validationError().empty());

    auto bad = testConfig();
    bad.heartbeat_interval_s = 0.0;
    EXPECT_FALSE(bad.validationError().empty());

    bad = testConfig();
    bad.phi_evict = bad.phi_suspect - 1.0;
    EXPECT_FALSE(bad.validationError().empty());

    bad = testConfig();
    bad.detection_bound_s = bad.heartbeat_interval_s;
    EXPECT_FALSE(bad.validationError().empty());

    bad = testConfig();
    bad.check_interval_s = -1.0;
    EXPECT_FALSE(bad.validationError().empty());
}

TEST(MembershipTracker, RejectsBadConfigFatally)
{
    auto bad = testConfig();
    bad.phi_suspect = -1.0;
    EXPECT_THROW(MembershipTracker(2, bad), std::runtime_error);
}

TEST(MembershipTracker, RegularHeartbeatsStayAlive)
{
    MembershipTracker t(2, testConfig());
    const double last = beatRegularly(t, 0, 50);
    beatRegularly(t, 1, 50);
    const auto events = t.evaluate(last + 1.0);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(t.state(0), MemberState::Alive);
    EXPECT_EQ(t.state(1), MemberState::Alive);
    EXPECT_TRUE(t.history().empty());
}

TEST(MembershipTracker, PhiGrowsWithSilence)
{
    MembershipTracker t(1, testConfig());
    const double last = beatRegularly(t, 0, 10);
    const double p1 = t.phi(0, last + 1.0);
    const double p5 = t.phi(0, last + 5.0);
    const double p20 = t.phi(0, last + 20.0);
    EXPECT_LT(p1, p5);
    EXPECT_LT(p5, p20);
    EXPECT_NEAR(t.silence(0, last + 5.0), 5.0, 1e-12);
}

TEST(MembershipTracker, SilenceWalksSuspectThenDead)
{
    MembershipTracker t(1, testConfig());
    const double last = beatRegularly(t, 0, 10);

    // phi = silence / (1.0 * ln 10): suspect at ~4.6s, dead at ~9.2s.
    auto ev = t.evaluate(last + 5.0);
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].from, MemberState::Alive);
    EXPECT_EQ(ev[0].to, MemberState::Suspect);
    EXPECT_GE(ev[0].phi, 2.0);
    EXPECT_EQ(t.state(0), MemberState::Suspect);

    ev = t.evaluate(last + 10.0);
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].from, MemberState::Suspect);
    EXPECT_EQ(ev[0].to, MemberState::Dead);
    EXPECT_EQ(t.state(0), MemberState::Dead);
    EXPECT_EQ(t.history().size(), 2u);
}

TEST(MembershipTracker, JumpStraightToDeadEmitsBothTransitions)
{
    MembershipTracker t(1, testConfig());
    beatRegularly(t, 0, 10);
    // One evaluation far past the eviction threshold: the suspect
    // step is not skipped in the record.
    const auto ev = t.evaluate(9.0 + 25.0);
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].to, MemberState::Suspect);
    EXPECT_EQ(ev[1].to, MemberState::Dead);
}

TEST(MembershipTracker, HeartbeatClearsSuspicion)
{
    MembershipTracker t(1, testConfig());
    const double last = beatRegularly(t, 0, 10);
    t.evaluate(last + 5.0);
    ASSERT_EQ(t.state(0), MemberState::Suspect);
    t.observeHeartbeat(0, last + 5.5);
    EXPECT_EQ(t.state(0), MemberState::Alive);
    // And the fresh arrival resets the silence clock.
    EXPECT_TRUE(t.evaluate(last + 6.0).empty());
}

TEST(MembershipTracker, HardBoundCatchesWorkerThatNeverBeat)
{
    // No heartbeat ever arrives, so phi stays 0 (below min_samples);
    // only the hard bound can declare this worker dead.
    MembershipTracker t(1, testConfig());
    EXPECT_TRUE(t.evaluate(29.0).empty());
    const auto ev = t.evaluate(30.0);
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(t.state(0), MemberState::Dead);
}

TEST(MembershipTracker, PhiUntrustedBelowMinSamples)
{
    MembershipTracker t(1, testConfig());
    t.observeHeartbeat(0, 0.0);
    t.observeHeartbeat(0, 1.0); // two samples < min_samples = 3.
    EXPECT_EQ(t.phi(0, 11.0), 0.0);
    // Ten seconds of silence would be phi ~4.3 with enough samples,
    // but below min_samples only the 30s hard bound applies.
    EXPECT_TRUE(t.evaluate(11.0).empty());
    EXPECT_EQ(t.state(0), MemberState::Alive);
}

TEST(MembershipTracker, SlowLinkEarnsLongerGrace)
{
    // A worker whose beats arrive every 4s must survive a silence
    // that would kill a 1s-interval worker.
    MembershipTracker t(2, testConfig());
    const double last_fast = beatRegularly(t, 0, 10, 0.0, 1.0);
    const double last_slow = beatRegularly(t, 1, 10, 0.0, 4.0);
    EXPECT_GT(t.phi(0, last_fast + 10.0), t.phi(1, last_slow + 10.0));
    t.evaluate(last_slow + 10.0);
    EXPECT_EQ(t.state(0), MemberState::Dead);
    EXPECT_EQ(t.state(1), MemberState::Alive);
}

TEST(MembershipTracker, RejoinLifecycleRoundTrips)
{
    MembershipTracker t(1, testConfig());
    const double last = beatRegularly(t, 0, 10);
    t.evaluate(last + 10.0);
    ASSERT_EQ(t.state(0), MemberState::Dead);

    // Dead workers do not revive on a stray late heartbeat.
    t.observeHeartbeat(0, last + 11.0);
    EXPECT_EQ(t.state(0), MemberState::Dead);

    t.markRejoining(0, last + 12.0);
    EXPECT_EQ(t.state(0), MemberState::Rejoining);

    t.markRejoined(0, last + 13.0);
    EXPECT_EQ(t.state(0), MemberState::Alive);
    // Statistics restarted: the pre-crash gaps are forgotten and the
    // silence clock starts at the rejoin time.
    EXPECT_EQ(t.phi(0, last + 14.0), 0.0);
    EXPECT_NEAR(t.silence(0, last + 14.0), 1.0, 1e-12);

    ASSERT_EQ(t.history().size(), 4u);
    EXPECT_EQ(t.history().back().to, MemberState::Alive);
}

TEST(MembershipTracker, ResetStatsClearsSuspectWithoutLifecycle)
{
    MembershipTracker t(1, testConfig());
    const double last = beatRegularly(t, 0, 10);
    t.evaluate(last + 5.0);
    ASSERT_EQ(t.state(0), MemberState::Suspect);
    t.resetStats(0, last + 6.0);
    EXPECT_EQ(t.state(0), MemberState::Alive);
    EXPECT_EQ(t.phi(0, last + 7.0), 0.0);
    EXPECT_TRUE(t.evaluate(last + 7.0).empty());
}

TEST(MembershipTracker, DeactivatedWorkerIsNeverScored)
{
    MembershipTracker t(2, testConfig());
    beatRegularly(t, 0, 10);
    beatRegularly(t, 1, 10);
    t.deactivate(1);
    EXPECT_FALSE(t.active(1));
    EXPECT_TRUE(t.active(0));
    // Arbitrarily long silence: the finished worker is not reported.
    const auto ev = t.evaluate(1000.0);
    for (const auto &e : ev)
        EXPECT_NE(e.worker, 1u);
    EXPECT_NE(t.state(1), MemberState::Dead);
}

TEST(MembershipTracker, StateNamesAreStable)
{
    EXPECT_STREQ(memberStateName(MemberState::Alive), "alive");
    EXPECT_STREQ(memberStateName(MemberState::Suspect), "suspect");
    EXPECT_STREQ(memberStateName(MemberState::Dead), "dead");
    EXPECT_STREQ(memberStateName(MemberState::Rejoining), "rejoining");
}

} // namespace
} // namespace core
} // namespace rog
