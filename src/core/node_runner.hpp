/**
 * @file
 * Process entry points for the session-layer training nodes.
 *
 * One NodeRunConfig describes a whole run — workload sizing,
 * transport tuning, fault plan, failure detector tuning, artifact
 * paths — and is shared verbatim by the server process, every worker
 * process, and the in-simulation DES twin, so "same run, different
 * wire" is a choice of runner, not a code path. The runners here own
 * everything OS-flavored the node engine refuses to know about: poll
 * loops, fabrics, artifact files, worker resume records, and run
 * timeouts.
 */
#ifndef ROG_CORE_NODE_RUNNER_HPP
#define ROG_CORE_NODE_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/node_engine.hpp"
#include "net/transport/backend.hpp"
#include "net/transport/socket_backend.hpp"
#include "net/transport/socket_fault.hpp"

namespace rog {
namespace core {

/** Everything one training run needs, for every role. */
struct NodeRunConfig
{
    NodeTrainConfig train;

    /** Tiny-CRUDA workload sizing (deterministic per seed). */
    std::size_t workers = 4;
    std::uint64_t workload_seed = 1234;

    net::transport::TransportConfig transport;
    net::transport::SocketOptions socket;

    /** Seeded wire faults on worker->server pushes (a clean plan
     *  installs no injector). */
    net::transport::SocketFaultPlan fault_plan;

    /** Server listen port (0 = ephemeral). A restarted server passes
     *  its old port here to reclaim it (with the bind-retry window). */
    std::uint16_t listen_port = 0;

    /**
     * DES twin server-crash plan: destroy the in-simulation server
     * once a push at this iteration (or later) applies, then rebuild
     * it from its checkpoint after the delay — the simulation analogue
     * of `rog_chaos --kill-server-iter`. 0 = never crash.
     */
    std::int64_t server_crash_iter = 0;
    double server_crash_restart_s = 0.5;

    /** Wall-clock (or simulated, for DES) run bound. */
    double run_timeout_s = 120.0;

    /** Logs / checkpoints / summaries land here ("" = none). */
    std::string artifact_dir;

    /** DES twin channel bandwidth. */
    double des_rate_bps = 4.0e6;
};

/** Fill in the cross-role defaults a chaos run wants: fast failure
 *  detection, unbounded chunk retries, quick transport backoff. */
NodeRunConfig chaosRunDefaults();

/** The tiny CRUDA workload every role builds identically. */
std::unique_ptr<Workload> makeNodeWorkload(const NodeRunConfig &cfg);

/**
 * Why no role could run @p cfg, as one line; empty when it can. A run
 * needs 1 to 240 workers (each worker's shard of the node workload's
 * 240 training samples must be non-empty) and, when it names an
 * artifact directory, that directory must exist.
 */
std::string nodeRunConfigError(const NodeRunConfig &cfg);

/** Worker resume record from workerStatePath(@p state_dir, @p worker)
 *  (incarnation already bumped for the new process); zeros and no
 *  model when absent, torn or corrupt. */
WorkerResumeState loadWorkerResume(const std::string &state_dir,
                                   std::size_t worker);

struct ServerRunResult
{
    bool done = false; //!< every worker said Bye before the timeout.
    double metric = 0.0;
    std::string metric_name;
    std::size_t applied_pushes = 0;
    std::size_t duplicate_pushes = 0;
    std::size_t stale_drops = 0;
    std::uint64_t epoch = 0;  //!< run epoch the server ended with.
    bool recovered = false;   //!< construction restored a checkpoint.
    std::string error; //!< why the socket could not open; else empty.
};

/**
 * Run the server role over real sockets until every worker finished
 * or the timeout passed. @p on_listen fires with the bound port
 * before the loop starts (the harness prints it for the workers).
 * Writes artifacts (run log, receiver event log, final model,
 * checkpoint, summary) under cfg.artifact_dir.
 */
ServerRunResult
runServerNode(const NodeRunConfig &cfg,
              const std::function<void(std::uint16_t)> &on_listen = {});

struct WorkerRunResult
{
    bool done = false;
    bool failed = false;
    std::int64_t done_iter = 0;
    std::string error; //!< why the socket could not open; else empty.
};

/** Run one worker role over real sockets against @p host:@p port. */
WorkerRunResult runWorkerNode(const NodeRunConfig &cfg,
                              std::size_t worker,
                              const std::string &host,
                              std::uint16_t port);

struct DesTwinResult
{
    bool done = false;
    double metric = 0.0;
    std::string metric_name;
    std::size_t applied_pushes = 0;
};

/**
 * The correctness twin: the identical engine/server code over the
 * discrete-event fabric, fault-free, same seed and plan. Its metric
 * is the reference the chaos checker compares a faulted socket run
 * against.
 */
DesTwinResult runDesTwin(const NodeRunConfig &cfg);

} // namespace core
} // namespace rog

#endif // ROG_CORE_NODE_RUNNER_HPP
