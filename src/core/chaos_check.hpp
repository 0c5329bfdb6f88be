/**
 * @file
 * Post-mortem invariant verification of a chaos run.
 *
 * The chaos supervisor (tools/rog_chaos) SIGKILLs workers mid-push,
 * restarts them, and injects seeded wire faults; this checker then
 * reads only the run's on-disk artifacts — no live process state —
 * and decides whether the system stayed correct:
 *
 *  1. The server checkpoint parses with a valid CRC (crash-consistent
 *     write survived the run).
 *  2. The final model file parses with a valid CRC and evaluates to a
 *     finite metric.
 *  3. No (worker, iteration, unit) gradient was applied twice
 *     (application-level exactly-once, from the server run log).
 *  4. The server's transport event log shows no receiver-side
 *     exactly-once violation: at most one Deliver per message key, at
 *     most one fresh Accept per (key, chunk), as
 *     fault::InvariantChecker::onTransportEvent judges it.
 *  5. Every killed worker was either evicted or re-admitted (and when
 *     the run requires it, finished with a Bye).
 *  6. The final metric is within tolerance of the DES twin of the
 *     same seed and plan (the twin replays the server-crash fault
 *     plan in simulation when the run used one).
 *  7. When the supervisor killed the server, each restart is visible
 *     as a recovered server_start under a strictly higher epoch, no
 *     gradient the checkpoint already covered is re-applied by a
 *     later incarnation, and every worker that finished after the
 *     last restart was re-admitted under the final epoch.
 *  8. Every planned fault fired: each planned worker kill is listed in
 *     kills.txt, a planned server kill restarted the server, and each
 *     partition victim's run log has a timed event at or after its
 *     window start (the log and the fault injector read the same
 *     process clock, so the victim was running while the window was
 *     open). A fault that never took effect checks nothing.
 *
 * Violations are returned as human-readable strings; an empty list is
 * a passing run.
 */
#ifndef ROG_CORE_CHAOS_CHECK_HPP
#define ROG_CORE_CHAOS_CHECK_HPP

#include <map>
#include <string>
#include <vector>

#include "core/node_runner.hpp"

namespace rog {
namespace core {

struct ChaosCheckOptions
{
    /** Workers the supervisor killed at least once. */
    std::vector<std::size_t> killed_workers;

    /** Require a Bye from every worker (restart-all scenarios). */
    bool require_all_bye = true;

    /** |metric - twin metric| bound, in metric units (accuracy
     *  percentage points for CRUDA). */
    double metric_tolerance = 15.0;

    /** Skip invariant 6 when no DES twin summary exists. */
    bool require_twin = true;

    /** Times the supervisor SIGKILLed + restarted the *server*. When
     *  > 0 the checker additionally requires: one server_start line
     *  per incarnation, the last one recovered from a checkpoint, a
     *  strictly rising epoch, and every worker that finished after
     *  the last restart re-admitted under the final epoch. */
    std::size_t server_restarts = 0;

    /** Workers the plan asked to kill; each must be in kills.txt. */
    std::vector<std::size_t> planned_kills;

    /** The plan asked to kill the server; it must have restarted. */
    bool server_kill_planned = false;

    /** Partitioned workers and their window starts, in seconds of the
     *  victim's process clock. */
    std::map<std::size_t, double> partition_starts;
};

struct ChaosCheckResult
{
    bool ok = false;
    std::vector<std::string> violations;
    /** One-line-per-check human readable report. */
    std::string report;
};

/** Verify the artifacts under cfg.artifact_dir. */
ChaosCheckResult checkChaosRun(const NodeRunConfig &cfg,
                               const ChaosCheckOptions &opts);

/** Worker @p w's run log under @p dir shows a push in flight at an
 *  iteration >= @p min_iter: the supervisor's kill/stall trigger. */
bool pushInFlight(const std::string &dir, std::size_t w,
                  std::int64_t min_iter);

/** The server run log under @p dir shows an apply at an iteration
 *  >= @p min_iter and a durable checkpoint: killing earlier would test
 *  a cold start, not recovery. */
bool serverKillReady(const std::string &dir, std::int64_t min_iter);

} // namespace core
} // namespace rog

#endif // ROG_CORE_CHAOS_CHECK_HPP
