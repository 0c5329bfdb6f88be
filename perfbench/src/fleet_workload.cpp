/**
 * @file
 * fleet_1024: core::runFleetSimulation with 1024 workers over 8 shards,
 * 64 rows of 8 floats, RSP threshold 4 with ATP, on a 2-thread pool.
 * The sim event queue, the coordinator's channel scans, ServerShard
 * apply and the parallel fork/join do all the work; no tensor or nn.
 *
 * The fleet has no seam, so the traced run reads counts from
 * FleetResult and replays the event core, shard apply and fork/join at
 * the fleet's shapes; the coordinator's share is the remainder.
 */
#include <iostream>

#include "calibrate.hpp"
#include "core/fleet.hpp"
#include "core/mta.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rog;

constexpr std::size_t kIterations = 8;     //!< per worker, per rep.
constexpr std::size_t kGateIterations = 2; //!< second-seed gate.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kSetupReps = 9;

core::FleetConfig
fleetConfig(std::uint64_t seed, std::size_t iterations)
{
    core::FleetConfig cfg;
    cfg.workers = 1024;
    cfg.rows = 64;
    cfg.row_width = 8;
    cfg.shards = 8;
    cfg.iterations = iterations;
    cfg.staleness_threshold = 4;
    cfg.atp = true;
    cfg.seed = seed;
    return cfg;
}

struct FleetRep
{
    double wall_s = 0.0;
    double slowdown = 1.0; //!< host probe over the reference.
    core::FleetResult result;
};

FleetRep
runRep(const core::FleetConfig &cfg, parallel::ThreadPool &pool)
{
    FleetRep rep;
    const Clock::time_point t0 = Clock::now();
    rep.result = core::runFleetSimulation(cfg, pool);
    rep.wall_s = secondsSince(t0);
    return rep;
}

bool
sameOutputs(const core::FleetResult &a, const core::FleetResult &b)
{
    return a.state_digest == b.state_digest &&
           a.iterations_completed == b.iterations_completed &&
           a.events_processed == b.events_processed &&
           a.sim_seconds == b.sim_seconds;
}

/** Count the rep's iterations against the budget and check them. */
void
account(const core::FleetConfig &cfg, const FleetRep &rep, Report &report)
{
    const std::uint64_t budget = cfg.workers * cfg.iterations;
    const std::uint64_t done = rep.result.iterations_completed;
    report.attempt(budget, done < budget ? budget - done : 0);
    report.check(done == budget, "fleet_1024: iterations short of budget");
}

std::vector<FleetRep>
runPhase(const core::FleetConfig &cfg, double budget_s, Report &report)
{
    std::vector<FleetRep> reps;
    HostProbe probe(&parallel::ThreadPool::global());
    const Clock::time_point t0 = Clock::now();
    while (reps.size() < kMinReps || secondsSince(t0) < budget_s) {
        reps.push_back(runRep(cfg, parallel::ThreadPool::global()));
        reps.back().slowdown = probe.next();
        account(cfg, reps.back(), report);
        report.check(sameOutputs(reps.back().result, reps.front().result),
                     "fleet_1024: rep digests differ at one seed");
    }
    return reps;
}

} // namespace

void
runFleet1024(const Options &opt, Report &report, Values &out)
{
    const core::FleetConfig cfg = fleetConfig(opt.seed, kIterations);

    // Set-up: the fixed cost of standing the fleet up (worker arena,
    // shard servers and lanes, thread pool), read as the wall time of a
    // one-iteration fleet.
    std::vector<double> setup;
    HostProbe setup_probe(&parallel::ThreadPool::global());
    for (std::size_t i = 0; i < kSetupReps; ++i) {
        const core::FleetConfig one = fleetConfig(opt.seed, 1);
        const FleetRep rep = runRep(one, parallel::ThreadPool::global());
        account(one, rep, report);
        setup.push_back(rep.wall_s / setup_probe.next());
    }

    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::vector<FleetRep> plain = runPhase(cfg, budget, report);
    const core::FleetResult &ref = plain.front().result;
    std::cerr << "fleet_1024: " << plain.size() << " reps, digest 0x"
              << std::hex << ref.state_digest << std::dec << ", "
              << ref.events_processed << " events, "
              << ref.iterations_completed << " iterations, host slowdown "
              << median(collect(plain, [](const FleetRep &r) {
                     return r.slowdown;
                 }))
              << "\n";

    // The digest must not depend on the pool size: one rep on a
    // 1-thread pool, and the same on a second seed. The second seed
    // must also change the digest of an otherwise identical fleet.
    parallel::ThreadPool one_thread(1);
    const FleetRep serial = runRep(cfg, one_thread);
    account(cfg, serial, report);
    report.check(sameOutputs(serial.result, ref),
                 "fleet_1024: digest differs at 1 thread");
    const core::FleetConfig gate =
        fleetConfig(opt.seed + 0x9E3779B9u, kGateIterations);
    const core::FleetConfig gate_same_seed =
        fleetConfig(opt.seed, kGateIterations);
    const FleetRep g_pool = runRep(gate, parallel::ThreadPool::global());
    const FleetRep g_serial = runRep(gate, one_thread);
    const FleetRep g_first =
        runRep(gate_same_seed, parallel::ThreadPool::global());
    account(gate, g_pool, report);
    account(gate, g_serial, report);
    account(gate_same_seed, g_first, report);
    report.check(sameOutputs(g_pool.result, g_serial.result),
                 "fleet_1024: second-seed digest differs across pools");
    report.check(g_pool.result.state_digest != g_first.result.state_digest,
                 "fleet_1024: the digest does not depend on the seed");

    const std::vector<double> wall =
        collect(plain, [](const FleetRep &r) { return r.wall_s; });
    if (!opt.trace) {
        // Reference-host figures: each rep scaled by its slowdown.
        out["train_iters_per_s"] = median(collect(plain, [](const FleetRep &r) {
            return static_cast<double>(r.result.iterations_completed) /
                   r.wall_s * r.slowdown;
        }));
        const std::vector<double> per_push =
            collect(plain, [](const FleetRep &r) {
                return r.wall_s * 1e6 /
                       static_cast<double>(r.result.iterations_completed) /
                       r.slowdown;
            });
        out["push_apply_p50_us"] = median(per_push);
        out["push_apply_p99_us"] = tailQuantile(per_push);
        out["setup_s"] = median(setup);
        out["peak_rss_mb"] = peakRssMb();
        return;
    }

    const std::vector<FleetRep> traced = runPhase(cfg, budget, report);
    for (const FleetRep &r : traced)
        report.check(sameOutputs(r.result, ref),
                     "fleet_1024: traced digest differs from untraced");
    const double traced_wall = median(
        collect(traced, [](const FleetRep &r) { return r.wall_s; }));
    const double events = static_cast<double>(ref.events_processed);
    const double iters = static_cast<double>(ref.iterations_completed);

    const double event_ns = replay::eventCoreNsPerOp(4 * cfg.workers);
    const double apply_ns = replay::shardApplyNsPerRow();
    const double fork_us = replay::forkJoinUs();
    // An estimate, not a measurement: the fleet has no seam, so the
    // replayed costs are multiplied by assumed counts. Every event is
    // taken as one queue step; each iteration applies its ATP push rows,
    // spread evenly over the pool's threads, and drains the shard lanes
    // twice (after its compute and after its push), though a drain with
    // nothing pending returns without a fork/join. The coordinator's
    // share is what remains.
    const double push_rows = static_cast<double>(
        core::mtaUnits(cfg.staleness_threshold, cfg.rows));
    const double threads =
        static_cast<double>(parallel::ThreadPool::global().threads());
    const double attributed_s =
        events * event_ns * 1e-9 +
        iters * push_rows * apply_ns * 1e-9 / threads +
        2.0 * iters * fork_us * 1e-6;

    out["sim.sim_s_per_wall_s"] = median(collect(plain, [](const FleetRep &r) {
        return r.result.sim_seconds / r.wall_s;
    }));
    out["sim.ns_per_event"] = traced_wall * 1e9 / events;
    out["sim.events_per_iter"] = events / iters;
    out["sim.event_core_ns_per_op"] = event_ns;
    out["core.shard_apply_ns_per_row"] = apply_ns;
    out["parallel.fork_join_us"] = fork_us;
    out["core.fleet_coordinator_share_est"] = 1.0 - attributed_s / traced_wall;
    out["common.pool_hit_rate"] = ref.pool_hit_rate;
    out["trace.attributed_share"] = attributed_s / traced_wall;
    out["trace.overhead"] = traced_wall / median(wall) - 1.0;
}

} // namespace perfbench
