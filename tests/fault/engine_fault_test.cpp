/**
 * @file
 * Engine behavior under injected churn: crashes discard in-flight rows
 * without corrupting server state, rejoins resume from the current
 * model version, detection frees stalled survivors, graceful leaves
 * finish their iteration, and ROG's staleness slack rides through an
 * outage that stalls BSP — all watched by the InvariantChecker.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.hpp"
#include "core/workloads.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariant_checker.hpp"
#include "net/trace_generator.hpp"

namespace rog {
namespace fault {
namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kIterations = 25;

core::CrudaWorkloadConfig
tinyCruda()
{
    core::CrudaWorkloadConfig cfg;
    cfg.data.train_samples = 800;
    cfg.data.test_samples = 200;
    cfg.model.hidden = {16, 12};
    cfg.workers = kWorkers;
    cfg.pretrain_iters = 60;
    cfg.eval_subset = 200;
    cfg.batch_size = 8;
    cfg.opt.learning_rate = 0.01f;
    return cfg;
}

core::NetworkSetup
unstableNetwork()
{
    core::NetworkSetup net;
    const auto model = net::TraceModel::outdoor(20e3);
    for (std::size_t i = 0; i < kWorkers; ++i)
        net.link_traces.push_back(
            net::generateTrace(model, 120.0, 17 + i * 1000));
    return net;
}

core::NetworkSetup
stableNetwork(double rate = 50e3)
{
    core::NetworkSetup net;
    for (std::size_t i = 0; i < kWorkers; ++i)
        net.link_traces.push_back(net::BandwidthTrace::constant(rate));
    return net;
}

core::EngineConfig
engineConfig(core::SystemConfig system)
{
    core::EngineConfig cfg;
    cfg.system = std::move(system);
    cfg.iterations = kIterations;
    cfg.eval_every = 10;
    return cfg;
}

struct FaultyRun
{
    core::RunResult result;
    InvariantChecker checker;
};

FaultyRun
runWithPlan(core::SystemConfig system, const core::NetworkSetup &net,
            const FaultPlan &plan)
{
    core::CrudaWorkload workload(tinyCruda());
    FaultyRun out;
    auto cfg = engineConfig(std::move(system));
    cfg.fault_plan = &plan;
    cfg.invariants = &out.checker;
    out.result = core::runDistributedTraining(workload, cfg, net);
    return out;
}

/** Virtual seconds of the fault-free run, for placing churn events. */
double
faultFreeSeconds(core::SystemConfig system, const core::NetworkSetup &net)
{
    core::CrudaWorkload workload(tinyCruda());
    const auto res = core::runDistributedTraining(
        workload, engineConfig(std::move(system)), net);
    return res.sim_seconds;
}

TEST(EngineFault, ChaosRunsKeepInvariantsClean)
{
    // Random everything-at-once plans: blackouts, degrades, transfer
    // truncations/timeouts, crashes with and without rejoin, leaves.
    const auto net = unstableNetwork();
    const double horizon =
        faultFreeSeconds(core::SystemConfig::rog(4), net);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        FaultPlanConfig fcfg;
        fcfg.links = kWorkers;
        fcfg.workers = kWorkers;
        fcfg.horizon_s = horizon;
        fcfg.crash_prob = 0.4;
        fcfg.leave_prob = 0.2;
        fcfg.detect_s = horizon / 10.0;
        const FaultPlan plan = FaultPlan::random(seed, fcfg);
        const auto run =
            runWithPlan(core::SystemConfig::rog(4), net, plan);
        EXPECT_TRUE(run.checker.clean())
            << "seed " << seed << "\n"
            << run.checker.report();
        EXPECT_GT(run.checker.checksRun(), 0u) << "seed " << seed;
        // The run must terminate with every worker accounted for
        // (asserted inside the engine) and virtual time advanced.
        EXPECT_GT(run.result.sim_seconds, 0.0) << "seed " << seed;
    }
}

TEST(EngineFault, CrashWithRejoinResumesFromCurrentVersion)
{
    const auto net = unstableNetwork();
    const double total =
        faultFreeSeconds(core::SystemConfig::rog(4), net);

    FaultPlan plan;
    ChurnEvent e;
    e.worker = 1;
    e.at_s = 0.3 * total;
    e.rejoin_s = 0.55 * total;
    e.detect_s = 2.0;
    plan.churn.push_back(e);
    plan.validate();

    const auto run = runWithPlan(core::SystemConfig::rog(4), net, plan);
    EXPECT_TRUE(run.checker.clean()) << run.checker.report();

    // The rejoined worker skips the missed iterations — it resumes at
    // the freshest peer's version, not where it crashed — and still
    // finishes the budget.
    for (std::size_t w = 0; w < kWorkers; ++w)
        EXPECT_EQ(run.result.worker_iterations[w], kIterations)
            << "worker " << w;
    std::size_t w1_records = 0;
    std::size_t w1_max_iter = 0;
    for (const auto &r : run.result.iterations) {
        if (r.worker != 1)
            continue;
        ++w1_records;
        // Iterations strictly increase across the resync jump.
        EXPECT_GT(r.iteration, w1_max_iter);
        w1_max_iter = r.iteration;
        // Nothing of worker 1 finishes inside the outage window.
        const bool in_outage =
            r.end_time_s > e.at_s && r.end_time_s < e.rejoin_s;
        EXPECT_FALSE(in_outage) << "iteration " << r.iteration;
    }
    EXPECT_EQ(w1_max_iter, kIterations);
    EXPECT_LT(w1_records, kIterations); // some iterations were skipped.
    EXPECT_GE(w1_records, 5u);
}

TEST(EngineFault, PermanentCrashDetectionFreesSurvivors)
{
    const auto net = unstableNetwork();
    const double total =
        faultFreeSeconds(core::SystemConfig::rog(4), net);

    FaultPlan plan;
    ChurnEvent e;
    e.worker = 2;
    e.at_s = 0.4 * total;
    e.rejoin_s = kNever;
    e.detect_s = 0.15 * total;
    plan.churn.push_back(e);
    plan.validate();

    const auto run = runWithPlan(core::SystemConfig::rog(4), net, plan);
    EXPECT_TRUE(run.checker.clean()) << run.checker.report();
    // Survivors complete the budget; the ghost does not.
    EXPECT_EQ(run.result.worker_iterations[0], kIterations);
    EXPECT_EQ(run.result.worker_iterations[1], kIterations);
    EXPECT_LT(run.result.worker_iterations[2], kIterations);
    EXPECT_GT(run.result.worker_iterations[2], 0u);
}

TEST(EngineFault, GracefulLeaveFinishesIterationThenRetires)
{
    const auto net = unstableNetwork();
    const double total =
        faultFreeSeconds(core::SystemConfig::rog(4), net);

    FaultPlan plan;
    ChurnEvent e;
    e.worker = 0;
    e.at_s = 0.37 * total;
    e.graceful = true;
    plan.churn.push_back(e);
    plan.validate();

    const auto run = runWithPlan(core::SystemConfig::rog(4), net, plan);
    EXPECT_TRUE(run.checker.clean()) << run.checker.report();
    EXPECT_LT(run.result.worker_iterations[0], kIterations);
    EXPECT_GT(run.result.worker_iterations[0], 0u);
    EXPECT_EQ(run.result.worker_iterations[1], kIterations);
    EXPECT_EQ(run.result.worker_iterations[2], kIterations);

    // Announced departure: the iteration in flight at the leave time
    // still completes (its record ends after the announcement).
    double w0_last_end = 0.0;
    for (const auto &r : run.result.iterations)
        if (r.worker == 0)
            w0_last_end = std::max(w0_last_end, r.end_time_s);
    EXPECT_GT(w0_last_end, e.at_s);
}

TEST(EngineFault, BspStallsThroughOutageWhileRogRides)
{
    const auto net = stableNetwork();

    const auto stallDuringOutage =
        [&](core::SystemConfig system) -> double {
        const double total = faultFreeSeconds(system, net);
        FaultPlan plan;
        ChurnEvent e;
        e.worker = 2;
        e.at_s = 0.4 * total;
        e.rejoin_s = kNever;
        e.detect_s = 0.2 * total; // the outage survivors live through.
        plan.churn.push_back(e);
        plan.validate();
        const auto run = runWithPlan(std::move(system), net, plan);
        EXPECT_TRUE(run.checker.clean()) << run.checker.report();
        EXPECT_EQ(run.result.worker_iterations[0], kIterations);
        EXPECT_EQ(run.result.worker_iterations[1], kIterations);
        return run.result.worker_stall_s[0] +
               run.result.worker_stall_s[1];
    };

    const double bsp_stall =
        stallDuringOutage(core::SystemConfig::bsp());
    const double rog_stall =
        stallDuringOutage(core::SystemConfig::rog(4));

    // BSP survivors freeze for essentially the whole detection window;
    // ROG's staleness slack lets them keep training through most of it.
    EXPECT_GT(bsp_stall, 0.0);
    EXPECT_LT(rog_stall, 0.6 * bsp_stall);
}

TEST(EngineFaultDeathTest, CorruptionClassRulesAreRejected)
{
    // The engine moves bulk transfers: it can truncate or cut one, but
    // it has no frames to corrupt or duplicate. Such a rule must stop
    // the run instead of being silently ignored.
    for (const char *spec : {"corrupt link=1 at=3",
                             "duplicate link=0 at=2"}) {
        SCOPED_TRACE(spec);
        const FaultPlan plan = FaultPlan::parse(spec);
        EXPECT_DEATH(runWithPlan(core::SystemConfig::rog(4),
                                 stableNetwork(), plan),
                     "cannot honour");
    }
}

} // namespace
} // namespace fault
} // namespace rog
