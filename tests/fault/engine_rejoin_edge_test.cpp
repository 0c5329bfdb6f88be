/**
 * @file
 * Rejoin-resync edge cases: a crashed worker that comes back while the
 * freshest live replica is mid-push must resync without ever moving a
 * version backwards — the resume point is the max of the best live
 * replica's iteration and the rejoiner's own rows still standing at
 * the server (it may have pushed and crashed while stalling). Swept
 * over a grid of crash/rejoin times on a communication-bound network
 * so rejoins land in every phase of the survivors' iterations.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.hpp"
#include "core/workloads.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariant_checker.hpp"

namespace rog {
namespace fault {
namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kIterations = 15;

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

/** Slow links: workers spend most of each iteration mid-push. */
core::NetworkSetup
commBoundNetwork()
{
    core::NetworkSetup net;
    for (std::size_t i = 0; i < kWorkers; ++i)
        net.link_traces.push_back(net::BandwidthTrace::constant(8e3));
    return net;
}

struct RejoinRun
{
    core::RunResult result;
    InvariantChecker checker;
};

RejoinRun
runWithCrash(double at_frac, double outage_frac)
{
    core::EngineConfig cfg;
    cfg.system = core::SystemConfig::rog(4);
    cfg.iterations = kIterations;
    cfg.eval_every = 100;
    const auto net = commBoundNetwork();

    // Fault-free length to place the crash.
    double total = 0.0;
    {
        core::CrudaWorkload workload(tinyCruda());
        total = core::runDistributedTraining(workload, cfg, net)
                    .sim_seconds;
    }

    FaultPlan plan;
    ChurnEvent e;
    e.worker = 1;
    e.at_s = at_frac * total;
    e.rejoin_s = e.at_s + outage_frac * total;
    e.detect_s = 0.05 * total;
    plan.churn.push_back(e);
    plan.validate();

    RejoinRun out;
    core::CrudaWorkload workload(tinyCruda());
    cfg.fault_plan = &plan;
    cfg.invariants = &out.checker;
    out.result = core::runDistributedTraining(workload, cfg, net);
    return out;
}

void
checkRejoinRun(const RejoinRun &run, const char *label)
{
    EXPECT_TRUE(run.checker.clean())
        << label << "\n" << run.checker.report();
    EXPECT_GT(run.checker.checksRun(), 0u) << label;
    // Everybody — including the rejoiner — finishes the budget.
    for (std::size_t w = 0; w < kWorkers; ++w)
        EXPECT_EQ(run.result.worker_iterations[w], kIterations)
            << label << " worker " << w;
    // The rejoiner's iteration records never move backwards: the
    // resync resumes at or past the freshest live replica, even when
    // that replica was mid-push at the rejoin instant.
    std::size_t last = 0;
    for (const auto &r : run.result.iterations) {
        if (r.worker != 1)
            continue;
        EXPECT_GT(r.iteration, last) << label;
        last = std::max(last, r.iteration);
    }
    EXPECT_EQ(last, kIterations) << label;
}

TEST(EngineRejoinEdge, RejoinLandsInEveryPushPhaseLegacyPath)
{
    // Sweep the crash instant across one iteration's worth of phases
    // and use a short outage, so the rejoin fires while survivors are
    // in compute, mid-push, gate-stalled, or mid-pull.
    for (const double at : {0.30, 0.35, 0.40, 0.45, 0.50, 0.55}) {
        const auto run = runWithCrash(at, 0.08);
        checkRejoinRun(run, "legacy");
    }
}

TEST(EngineRejoinEdge, InstantDetectionWithLateRejoin)
{
    // Detection retires the ghost before it returns: the rejoin must
    // re-admit it to the gate and the server must have cleared its
    // stale pending rows (no double-apply after resync).
    const auto run = runWithCrash(0.4, 0.3);
    checkRejoinRun(run, "late-rejoin");
}

} // namespace
} // namespace fault
} // namespace rog
