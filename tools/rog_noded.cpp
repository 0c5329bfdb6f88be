/**
 * @file
 * rog_noded — one ROG training node per process, over real sockets.
 *
 * Subcommands:
 *
 *   rog_noded server --dir DIR [--workers N] ...
 *       Bind the parameter-server role, print "port <N>" once bound,
 *       run until every worker said Bye or --timeout passed. Exit 0
 *       iff the run completed. Artifacts (run log, transport event
 *       log, final model, checkpoint, summary.txt) land in --dir.
 *
 *   rog_noded worker --worker W --port P [--host H] --dir DIR ...
 *       Run worker W against the server at H:P. Resumes from its
 *       one resume record DIR/worker<W>.rogw (resume token, done
 *       iteration, incarnation and model, CRC-checked) when present:
 *       a restarted process re-enters with a bumped incarnation and
 *       its resume token.
 *       Exit 0 iff the worker finished its iterations and said Bye.
 *
 *   rog_noded des --dir DIR ...
 *       The correctness twin: the identical engine code over the
 *       discrete-event fabric, fault-free, same seed and plan. Writes
 *       DIR/des_summary.txt for the chaos checker to compare against.
 *
 * Shared knobs (see tools/node_cli.hpp): --dir, --workers, --iters,
 * --staleness, --seed, --epoch, --codec, --faults SPEC, --timeout,
 * --hb, --detect, --rate. All roles of one run must be launched with
 * identical values; tools/rog_chaos does exactly that.
 */
#include <cstdio>
#include <string>

#include "node_cli.hpp"

namespace {

using namespace rog;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: rog_noded server --dir DIR [options]\n"
        "       rog_noded worker --worker W --port P [--host H] "
        "--dir DIR [options]\n"
        "       rog_noded des --dir DIR [options]\n"
        "options: --workers N  --iters N\n"
        "         --staleness N  --seed S  --epoch E  --codec NAME\n"
        "         --faults SPEC  --timeout SECS  --hb SECS\n"
        "         --detect SECS  --rate BPS\n"
        "         --listen-port P  --bind-retry SECS  (server: rebind "
        "a restarted server's old port)\n");
    return 2;
}

int
runServer(const core::NodeRunConfig &cfg)
{
    const core::ServerRunResult res =
        core::runServerNode(cfg, [](std::uint16_t port) {
            std::printf("port %u\n", static_cast<unsigned>(port));
            std::fflush(stdout);
        });
    std::printf("done %d metric %.4f applied %zu dup %zu stale %zu "
                "epoch %llu recovered %d\n",
                res.done ? 1 : 0, res.metric, res.applied_pushes,
                res.duplicate_pushes, res.stale_drops,
                static_cast<unsigned long long>(res.epoch),
                res.recovered ? 1 : 0);
    return res.done ? 0 : 1;
}

int
runWorker(const core::NodeRunConfig &cfg, const Args &args)
{
    if (!args.has("worker") || !args.has("port")) {
        std::fprintf(stderr,
                     "rog_noded worker: --worker and --port are "
                     "required\n");
        return 2;
    }
    const std::size_t w = args.getSize("worker", 0);
    const std::string host = args.get("host", "127.0.0.1");
    const std::uint16_t port =
        static_cast<std::uint16_t>(args.getSize("port", 0));
    if (w >= cfg.workers) {
        std::fprintf(stderr, "rog_noded worker: index %zu >= %zu\n", w,
                     cfg.workers);
        return 2;
    }
    const core::WorkerRunResult res =
        core::runWorkerNode(cfg, w, host, port);
    std::printf("done %d failed %d iter %lld\n", res.done ? 1 : 0,
                res.failed ? 1 : 0,
                static_cast<long long>(res.done_iter));
    return res.done ? 0 : 1;
}

int
runDes(const core::NodeRunConfig &cfg)
{
    const core::DesTwinResult res = core::runDesTwin(cfg);
    std::printf("done %d %s %.4f applied %zu\n", res.done ? 1 : 0,
                res.metric_name.c_str(), res.metric,
                res.applied_pushes);
    return res.done ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rog;

    std::set<std::string> known = tools::nodeConfigOptions();
    known.insert("worker");
    known.insert("host");
    known.insert("port");

    try {
        const Args args(argc, argv, known);
        if (args.positional().size() != 1)
            return usage();
        const core::NodeRunConfig cfg = tools::configFromArgs(args);
        const std::string error = core::nodeRunConfigError(cfg);
        if (!error.empty()) {
            std::fprintf(stderr, "rog_noded: %s\n", error.c_str());
            return 2;
        }

        const std::string &cmd = args.positional()[0];
        if (cmd == "server")
            return runServer(cfg);
        if (cmd == "worker")
            return runWorker(cfg, args);
        if (cmd == "des")
            return runDes(cfg);
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rog_noded: %s\n", e.what());
        return 2;
    }
}
