/**
 * @file
 * Shared CLI-to-NodeRunConfig mapping for rog_noded and rog_chaos.
 *
 * Both tools must build bit-identical run configurations from the
 * same flags — the server process, every worker process, the DES
 * correctness twin, and the supervisor all describe one run — so the
 * mapping lives here instead of being copied per tool.
 */
#ifndef ROG_TOOLS_NODE_CLI_HPP
#define ROG_TOOLS_NODE_CLI_HPP

#include <set>
#include <string>

#include "common/args.hpp"
#include "common/logging.hpp"
#include "core/node_runner.hpp"
#include "net/transport/socket_fault.hpp"

namespace rog {
namespace tools {

/** Option names understood by configFromArgs (merge with the tool's
 *  own before constructing Args). */
inline std::set<std::string>
nodeConfigOptions()
{
    return {"dir",   "workers", "iters",       "staleness", "seed",
            "epoch", "faults",  "timeout",     "hb",        "detect",
            "codec", "rate",    "listen-port", "bind-retry"};
}

/** Build the run config shared by every role of one run. */
inline core::NodeRunConfig
configFromArgs(const Args &args)
{
    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.artifact_dir = args.get("dir", "");
    cfg.workers = args.getSize("workers", cfg.workers);
    cfg.workload_seed = args.getSize("seed", cfg.workload_seed);
    cfg.run_timeout_s = args.getDouble("timeout", cfg.run_timeout_s);
    cfg.des_rate_bps = args.getDouble("rate", cfg.des_rate_bps);
    cfg.listen_port = static_cast<std::uint16_t>(
        args.getSize("listen-port", cfg.listen_port));
    cfg.socket.bind_retry_window_s = args.getDouble(
        "bind-retry", cfg.socket.bind_retry_window_s);

    cfg.train.max_iters = static_cast<std::int64_t>(
        args.getSize("iters", static_cast<std::size_t>(
                                  cfg.train.max_iters)));
    cfg.train.staleness = static_cast<std::int64_t>(
        args.getSize("staleness", static_cast<std::size_t>(
                                      cfg.train.staleness)));
    cfg.train.epoch = args.getSize("epoch", cfg.train.epoch);
    cfg.train.codec = args.get("codec", cfg.train.codec);
    cfg.train.detector.heartbeat_interval_s =
        args.getDouble("hb", cfg.train.detector.heartbeat_interval_s);
    cfg.train.detector.detection_bound_s = args.getDouble(
        "detect", cfg.train.detector.detection_bound_s);
    if (!cfg.artifact_dir.empty())
        cfg.train.worker_state_dir = cfg.artifact_dir;

    const std::string faults = args.get("faults", "");
    if (!faults.empty()) {
        const net::transport::SocketFaultParseResult parsed =
            net::transport::SocketFaultPlan::tryParse(faults);
        if (!parsed.ok())
            ROG_USAGE_ERROR("bad --faults: ", parsed.error);
        cfg.fault_plan = parsed.plan;
    }
    return cfg;
}

} // namespace tools
} // namespace rog

#endif // ROG_TOOLS_NODE_CLI_HPP
