/**
 * @file
 * Unit tests for the FLOWN dynamic-threshold scheduler.
 */
#include <gtest/gtest.h>

#include "core/flown.hpp"

namespace rog {
namespace core {
namespace {

TEST(FlownTest, ConservativeUntilAllSeeded)
{
    FlownScheduler sched(3, FlownConfig{});
    sched.reportThroughput(0, 1000.0);
    EXPECT_EQ(sched.thresholdFor(0), 1u);
    sched.reportThroughput(1, 1000.0);
    sched.reportThroughput(2, 1000.0);
    EXPECT_GE(sched.thresholdFor(0), 1u);
}

TEST(FlownTest, EqualRatesGetBaseThreshold)
{
    FlownConfig cfg;
    cfg.base_threshold = 2;
    FlownScheduler sched(2, cfg);
    sched.reportThroughput(0, 500.0);
    sched.reportThroughput(1, 500.0);
    EXPECT_EQ(sched.thresholdFor(0), 2u);
    EXPECT_EQ(sched.thresholdFor(1), 2u);
}

TEST(FlownTest, SlowWorkerGetsLargerAllowance)
{
    FlownScheduler sched(2, FlownConfig{});
    sched.reportThroughput(0, 1000.0);
    sched.reportThroughput(1, 100.0); // 10x slower.
    EXPECT_GT(sched.thresholdFor(1), sched.thresholdFor(0));
    EXPECT_EQ(sched.thresholdFor(1), FlownConfig{}.max_threshold);
}

TEST(FlownTest, FastWorkerClampedToMin)
{
    FlownScheduler sched(2, FlownConfig{});
    sched.reportThroughput(0, 10000.0);
    sched.reportThroughput(1, 100.0);
    EXPECT_EQ(sched.thresholdFor(0), FlownConfig{}.min_threshold);
}

TEST(FlownTest, EstimatedRateUsesEwma)
{
    // A wide base allowance makes the threshold resolve the estimate:
    // threshold_0 = round(100 * mean / rate_0). Worker 0's EWMA of 100
    // then 300 is 200, equal to worker 1's 200, so both get the base.
    // The first sample alone (100) would give 150, the last (300) 83.
    FlownConfig cfg;
    cfg.ewma_alpha = 0.5;
    cfg.base_threshold = 100;
    cfg.max_threshold = 1000;
    FlownScheduler sched(2, cfg);
    sched.reportThroughput(0, 100.0);
    sched.reportThroughput(0, 300.0);
    sched.reportThroughput(1, 200.0);
    EXPECT_EQ(sched.thresholdFor(0), 100u);
    EXPECT_EQ(sched.thresholdFor(1), 100u);
}

TEST(FlownTest, EstimateLagsSuddenChange)
{
    // The paper's point: EWMA estimates cannot follow sharp
    // fluctuation — a worker that suddenly fades keeps a stale (too
    // optimistic) estimate for several rounds.
    FlownConfig cfg;
    cfg.ewma_alpha = 0.3;
    FlownScheduler sched(2, cfg);
    for (int i = 0; i < 20; ++i) {
        sched.reportThroughput(0, 1000.0);
        sched.reportThroughput(1, 1000.0);
    }
    // Worker 1 collapses to 1% of its bandwidth.
    sched.reportThroughput(1, 10.0);
    // One observation later its estimate is still 703 against worker
    // 0's 1000, so the straggler keeps the base allowance; an estimate
    // that followed the collapse would give it the cap.
    EXPECT_EQ(sched.thresholdFor(1), cfg.base_threshold);
    EXPECT_LT(sched.thresholdFor(1), cfg.max_threshold);
}

TEST(FlownTest, BadConfigDies)
{
    FlownConfig cfg;
    cfg.min_threshold = 5;
    cfg.max_threshold = 2;
    EXPECT_DEATH(FlownScheduler(2, cfg), "bounds");
}

} // namespace
} // namespace core
} // namespace rog
