/**
 * @file
 * Unit tests for checkpoint merging and curve queries.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "stats/run_analysis.hpp"

namespace rog {
namespace stats {
namespace {

core::RunResult
sampleResult()
{
    core::RunResult r;
    r.workers = 2;
    // Worker 0 and 1 checkpoints at iters 0, 10, 20.
    auto add = [&](std::size_t w, std::size_t it, double t, double e,
                   double m) {
        core::CheckpointRecord c;
        c.worker = w;
        c.iteration = it;
        c.time_s = t;
        c.energy_j = e;
        c.metric = m;
        r.checkpoints.push_back(c);
    };
    add(0, 0, 0.0, 0.0, 50.0);
    add(1, 0, 0.0, 0.0, 50.0);
    add(0, 10, 100.0, 1000.0, 60.0);
    add(1, 10, 120.0, 1200.0, 64.0);
    add(0, 20, 200.0, 2000.0, 70.0);
    add(1, 20, 240.0, 2400.0, 74.0);
    // Iteration 30 reached by worker 0 only: must be dropped.
    add(0, 30, 300.0, 3000.0, 75.0);
    return r;
}

TEST(RunAnalysisTest, MergeAveragesAcrossWorkers)
{
    const auto curve = mergeCheckpoints(sampleResult());
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_EQ(curve[0].iteration, 0u);
    EXPECT_EQ(curve[1].iteration, 10u);
    EXPECT_DOUBLE_EQ(curve[1].mean_time_s, 110.0);
    EXPECT_DOUBLE_EQ(curve[1].mean_energy_j, 1100.0);
    EXPECT_DOUBLE_EQ(curve[1].mean_metric, 62.0);
    EXPECT_EQ(curve[2].iteration, 20u);
}

TEST(RunAnalysisTest, MergeDropsPartialIterations)
{
    const auto curve = mergeCheckpoints(sampleResult());
    for (const auto &c : curve)
        EXPECT_NE(c.iteration, 30u);
}

TEST(RunAnalysisTest, TimeToReachInterpolates)
{
    const auto curve = mergeCheckpoints(sampleResult());
    // Metric 66 sits between 62 (t=110) and 72 (t=220): t = 154.
    EXPECT_NEAR(timeToReach(curve, 66.0, false), 154.0, 1e-9);
}

TEST(RunAnalysisTest, EnergyToReachInterpolates)
{
    const auto curve = mergeCheckpoints(sampleResult());
    EXPECT_NEAR(energyToReach(curve, 66.0, false), 1540.0, 1e-9);
}

TEST(RunAnalysisTest, UnreachableTargetIsNaN)
{
    const auto curve = mergeCheckpoints(sampleResult());
    EXPECT_TRUE(std::isnan(timeToReach(curve, 99.0, false)));
    EXPECT_TRUE(std::isnan(energyToReach(curve, 99.0, false)));
}

TEST(RunAnalysisTest, LowerIsBetterTargets)
{
    std::vector<MergedCheckpoint> curve = {
        {0, 0.0, 0.0, 2.0},
        {10, 100.0, 1000.0, 1.0},
        {20, 200.0, 2000.0, 0.5},
    };
    EXPECT_NEAR(timeToReach(curve, 1.0, true), 100.0, 1e-9);
    EXPECT_NEAR(timeToReach(curve, 0.75, true), 150.0, 1e-9);
    EXPECT_TRUE(std::isnan(timeToReach(curve, 0.1, true)));
}

TEST(RunAnalysisTest, MetricAtTimeClampsAndInterpolates)
{
    const auto curve = mergeCheckpoints(sampleResult());
    EXPECT_DOUBLE_EQ(metricAtTime(curve, -5.0), 50.0);
    EXPECT_DOUBLE_EQ(metricAtTime(curve, 1e9), 72.0);
    EXPECT_NEAR(metricAtTime(curve, 165.0), 67.0, 1e-9);
}

TEST(RunAnalysisTest, MetricAtIteration)
{
    const auto curve = mergeCheckpoints(sampleResult());
    EXPECT_DOUBLE_EQ(metricAtIteration(curve, 0), 50.0);
    EXPECT_NEAR(metricAtIteration(curve, 15), 67.0, 1e-9);
    EXPECT_DOUBLE_EQ(metricAtIteration(curve, 500), 72.0);
}

TEST(RunAnalysisTest, EmptyResultYieldsEmptyCurve)
{
    core::RunResult r;
    r.workers = 2;
    EXPECT_TRUE(mergeCheckpoints(r).empty());
}

} // namespace
} // namespace stats
} // namespace rog
