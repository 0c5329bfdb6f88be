/**
 * @file
 * Integration tests for the engine extensions: heterogeneous compute
 * with dynamic batching, and pipelined pulls (Sec. VI-D future work).
 */
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/workloads.hpp"
#include "fault/fault_plan.hpp"
#include "net/bandwidth_trace.hpp"
#include "net/trace_generator.hpp"

namespace rog {
namespace core {
namespace {

CrudaWorkloadConfig
tinyCruda(std::size_t workers)
{
    CrudaWorkloadConfig cfg;
    cfg.data.train_samples = 800;
    cfg.data.test_samples = 200;
    cfg.model.hidden = {16, 12};
    cfg.workers = workers;
    cfg.pretrain_iters = 60;
    cfg.eval_subset = 200;
    cfg.batch_size = 8;
    cfg.opt.learning_rate = 0.01f;
    return cfg;
}

NetworkSetup
stableNetwork(std::size_t workers, double rate = 50e3)
{
    NetworkSetup net;
    for (std::size_t i = 0; i < workers; ++i)
        net.link_traces.push_back(net::BandwidthTrace::constant(rate));
    return net;
}

TEST(HeterogeneityTest, DynamicBatchingEqualizesComputeTimes)
{
    CrudaWorkload workload(tinyCruda(3));
    EngineConfig cfg;
    cfg.system = SystemConfig::bsp();
    cfg.iterations = 8;
    cfg.eval_every = 100;
    cfg.heterogeneous_seconds_per_sample = {0.09, 0.09, 0.18};
    cfg.dynamic_batching = true;
    const auto res = runDistributedTraining(workload, cfg,
                                            stableNetwork(3));
    // Per-worker compute times must be near-equal.
    double lo = 1e300, hi = 0.0;
    for (const auto &r : res.iterations) {
        lo = std::min(lo, r.compute_s);
        hi = std::max(hi, r.compute_s);
    }
    EXPECT_LT(hi / lo, 1.2);
}

TEST(HeterogeneityTest, UniformBatchingCreatesComputeStragglers)
{
    CrudaWorkload workload(tinyCruda(3));
    EngineConfig cfg;
    cfg.system = SystemConfig::bsp();
    cfg.iterations = 8;
    cfg.eval_every = 100;
    cfg.heterogeneous_seconds_per_sample = {0.09, 0.09, 0.27};
    cfg.dynamic_batching = false;
    const auto res = runDistributedTraining(workload, cfg,
                                            stableNetwork(3));
    double lo = 1e300, hi = 0.0;
    double fast_stall = 0.0;
    for (const auto &r : res.iterations) {
        lo = std::min(lo, r.compute_s);
        hi = std::max(hi, r.compute_s);
        if (r.worker != 2)
            fast_stall += r.stall_s;
    }
    EXPECT_GT(hi / lo, 1.5);     // slow device computes ~3x longer.
    EXPECT_GT(fast_stall, 1.0);  // fast devices stall at the barrier.
}

TEST(HeterogeneityTest, DynamicBatchingReducesBspStall)
{
    const std::vector<double> speeds = {0.09, 0.09, 0.22};
    auto run = [&](bool dynamic) {
        CrudaWorkload workload(tinyCruda(3));
        EngineConfig cfg;
        cfg.system = SystemConfig::bsp();
        cfg.iterations = 10;
        cfg.eval_every = 100;
        cfg.heterogeneous_seconds_per_sample = speeds;
        cfg.dynamic_batching = dynamic;
        return runDistributedTraining(workload, cfg, stableNetwork(3));
    };
    const auto with = run(true);
    const auto without = run(false);
    double c, m, stall_with, stall_without;
    with.meanTimeComposition(c, m, stall_with);
    without.meanTimeComposition(c, m, stall_without);
    EXPECT_LT(stall_with, stall_without);
    EXPECT_LT(with.sim_seconds, without.sim_seconds);
}

TEST(HeterogeneityTest, WrongSpeedCountDies)
{
    CrudaWorkload workload(tinyCruda(2));
    EngineConfig cfg;
    cfg.system = SystemConfig::bsp();
    cfg.heterogeneous_seconds_per_sample = {0.1, 0.1, 0.1};
    EXPECT_DEATH(runDistributedTraining(workload, cfg,
                                        stableNetwork(2)),
                 "speed");
}

NetworkSetup
unstableNetwork(std::size_t workers)
{
    NetworkSetup net;
    const auto model = net::TraceModel::outdoor(20e3);
    for (std::size_t i = 0; i < workers; ++i)
        net.link_traces.push_back(
            net::generateTrace(model, 120.0, 31 + i * 1000));
    return net;
}

TEST(PipelineTest, CompletesAndKeepsInvariants)
{
    CrudaWorkload workload(tinyCruda(3));
    EngineConfig cfg;
    cfg.system = SystemConfig::rog(4);
    cfg.iterations = 30;
    cfg.eval_every = 10;
    cfg.pipeline_pull = true;
    const auto res = runDistributedTraining(workload, cfg,
                                            unstableNetwork(3));
    EXPECT_EQ(res.completed_iterations, 30u);
    EXPECT_EQ(res.iterations.size(), 90u);
    // Pull bytes are still delivered and accounted somewhere.
    double pulled = 0.0;
    for (const auto &r : res.iterations)
        pulled += r.bytes_pulled;
    EXPECT_GT(pulled, 0.0);
}

TEST(PipelineTest, HidesPullLatency)
{
    auto run = [&](bool pipeline) {
        CrudaWorkload workload(tinyCruda(3));
        EngineConfig cfg;
        cfg.system = SystemConfig::ssp(4);
        cfg.iterations = 30;
        cfg.eval_every = 100;
        cfg.pipeline_pull = pipeline;
        return runDistributedTraining(workload, cfg,
                                      unstableNetwork(3));
    };
    const auto piped = run(true);
    const auto plain = run(false);
    // Overlapping the pull with compute shortens the run.
    EXPECT_LT(piped.sim_seconds, plain.sim_seconds);
}

TEST(ChurnTest, DepartedWorkerDoesNotStallSurvivors)
{
    CrudaWorkload workload(tinyCruda(3));
    EngineConfig cfg;
    cfg.system = SystemConfig::bsp(); // tightest gate: worst case.
    cfg.iterations = 40;
    cfg.eval_every = 100;
    // Worker 2's battery dies ~5 iterations in.
    const auto plan = fault::FaultPlan::parse("leave worker=2 at=25");
    cfg.fault_plan = &plan;
    const auto res = runDistributedTraining(workload, cfg,
                                            stableNetwork(3));
    ASSERT_EQ(res.worker_iterations.size(), 3u);
    EXPECT_EQ(res.worker_iterations[0], 40u);
    EXPECT_EQ(res.worker_iterations[1], 40u);
    EXPECT_LT(res.worker_iterations[2], 15u);
    EXPECT_GT(res.worker_iterations[2], 0u);
    // Survivors finish in bounded time: no deadlock on the departed
    // worker's frozen versions.
    EXPECT_LT(res.sim_seconds, 40 * 10.0);
}

TEST(ChurnTest, RogSurvivesChurnUnderInstability)
{
    CrudaWorkload workload(tinyCruda(4));
    EngineConfig cfg;
    cfg.system = SystemConfig::rog(4);
    cfg.iterations = 120;
    cfg.eval_every = 40;
    const auto plan = fault::FaultPlan::parse("leave worker=1 at=60\n"
                                              "leave worker=3 at=120");
    cfg.fault_plan = &plan;
    NetworkSetup net;
    const auto model = net::TraceModel::outdoor(20e3);
    for (std::size_t i = 0; i < 4; ++i)
        net.link_traces.push_back(
            net::generateTrace(model, 120.0, 51 + i * 1000));
    const auto res = runDistributedTraining(workload, cfg, net);
    EXPECT_EQ(res.worker_iterations[0], 120u);
    EXPECT_EQ(res.worker_iterations[2], 120u);
    EXPECT_LT(res.worker_iterations[1], 120u);
    // Training still improves despite losing half the team (the
    // survivors' contributions stay diluted by 1/num_workers, so
    // progress is slower — robustness, not speed, is under test).
    double first = 0.0, best = 0.0;
    for (const auto &c : res.checkpoints) {
        if (c.iteration == 0)
            first = c.metric;
        best = std::max(best, c.metric);
    }
    EXPECT_GT(best, first + 2.0);
}

TEST(AutoThresholdEngineTest, CompletesAndBoundsStaleness)
{
    CrudaWorkload workload(tinyCruda(3));
    EngineConfig cfg;
    cfg.system = SystemConfig::rog(4);
    cfg.iterations = 60;
    cfg.eval_every = 30;
    cfg.auto_threshold = true;
    const auto res = runDistributedTraining(workload, cfg,
                                            unstableNetwork(3));
    EXPECT_EQ(res.completed_iterations, 60u);
    // The controller never exceeds its configured ceiling (40).
    for (const auto &r : res.iterations)
        EXPECT_LE(r.staleness_behind, 40);
}

TEST(AutoThresholdEngineTest, AdaptsTransmissionUnderPressure)
{
    // On a very tight network the controller should end up shipping
    // smaller fractions than the fixed ROG-4 floor (32%) would.
    CrudaWorkload workload(tinyCruda(3));
    EngineConfig cfg;
    cfg.system = SystemConfig::rog(4);
    cfg.iterations = 80;
    cfg.eval_every = 100;
    cfg.auto_threshold = true;
    NetworkSetup net;
    const auto model = net::TraceModel::outdoor(6e3);
    for (std::size_t i = 0; i < 3; ++i)
        net.link_traces.push_back(
            net::generateTrace(model, 120.0, 71 + i * 1000));
    const auto res = runDistributedTraining(workload, cfg, net);
    double min_fraction = 1.0;
    for (const auto &r : res.iterations)
        min_fraction = std::min(min_fraction, r.push_fraction);
    EXPECT_LT(min_fraction, 0.32);
}

TEST(PipelineTest, StillTrains)
{
    CrudaWorkload workload(tinyCruda(3));
    EngineConfig cfg;
    cfg.system = SystemConfig::rog(4);
    cfg.iterations = 100;
    cfg.eval_every = 50;
    cfg.pipeline_pull = true;
    const auto res = runDistributedTraining(workload, cfg,
                                            unstableNetwork(3));
    double first = 0.0, last = 0.0;
    for (const auto &c : res.checkpoints) {
        if (c.iteration == 0)
            first = c.metric;
        if (c.iteration == 100)
            last = c.metric;
    }
    EXPECT_GT(last, first + 5.0);
}

} // namespace
} // namespace core
} // namespace rog
