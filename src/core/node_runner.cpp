#include "core/node_runner.hpp"

#include <cstdio>
#include <fstream>

#include <sys/stat.h>

#include "common/durable_file.hpp"
#include "core/workloads.hpp"
#include "net/session/des_fabric.hpp"
#include "net/session/socket_fabric.hpp"
#include "nn/serialize.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace core {

namespace {

/** Line-buffered artifact log: every line hits the disk immediately,
 *  because the interesting processes are the ones that get SIGKILLed
 *  mid-sentence. */
class LineLog
{
  public:
    explicit LineLog(const std::string &path)
    {
        if (!path.empty())
            f_ = std::fopen(path.c_str(), "a");
    }

    ~LineLog()
    {
        if (f_ != nullptr)
            std::fclose(f_);
    }

    void
    line(const std::string &s)
    {
        if (f_ == nullptr)
            return;
        std::fwrite(s.data(), 1, s.size(), f_);
        std::fputc('\n', f_);
        std::fflush(f_);
    }

    NodeLogger
    logger()
    {
        if (f_ == nullptr)
            return {};
        return [this](const std::string &s) { line(s); };
    }

  private:
    FILE *f_ = nullptr;
};

net::session::SocketFabricOptions
fabricOptions(const NodeRunConfig &cfg,
              const net::transport::SocketFaultPlan &faults,
              std::uint16_t listen_port)
{
    net::session::SocketFabricOptions o;
    o.transport = cfg.transport;
    o.socket = cfg.socket;
    o.fault_plan = faults;
    o.listen_port = listen_port;
    return o;
}

} // namespace

NodeRunConfig
chaosRunDefaults()
{
    NodeRunConfig cfg;
    cfg.train.max_iters = 12;
    cfg.train.staleness = 3;
    cfg.train.checkpoint_every = 8;

    // Fast detection so a SIGKILLed worker is evicted in about a
    // second; restarts usually beat the bound and re-enter as a
    // planned rejoin instead.
    cfg.train.detector.heartbeat_interval_s = 0.1;
    cfg.train.detector.check_interval_s = 0.05;
    cfg.train.detector.detection_bound_s = 1.5;
    cfg.train.detector.min_samples = 3;

    cfg.train.welcome_timeout_s = 3.0;
    cfg.train.pull_timeout_s = 6.0;
    cfg.train.hello_retry_base_s = 0.1;
    cfg.train.hello_retry_max_s = 1.0;
    cfg.train.hello_max_tries = 60;

    // Worker-side server failure detection: quick checks, a silence
    // bound a bit past the worst legitimate pull stall (a dead peer
    // worker holds the RSP gate for detection_bound + restart time).
    cfg.train.server_check_interval_s = 0.1;
    cfg.train.server_silence_bound_s = 2.5;
    cfg.train.server_phi_suspect = 6.0;

    // A restarted server reclaims its port even if the kernel is
    // still tearing down its predecessor's socket: receivers bind
    // without SO_REUSEADDR, so that bind fails until the socket is
    // gone.
    cfg.socket.bind_retry_window_s = 3.0;

    // Pushes ride out partitions: unbounded chunk retries, quick
    // capped backoff.
    cfg.transport.max_attempts_per_chunk = 0;
    cfg.transport.backoff_base_s = 0.02;
    cfg.transport.backoff_max_s = 0.25;
    cfg.socket.ack_timeout_s = 0.1;
    return cfg;
}

/** The node workload's training set: one sample per worker at most. */
constexpr std::size_t kNodeTrainSamples = 240;

std::unique_ptr<Workload>
makeNodeWorkload(const NodeRunConfig &cfg)
{
    // Small enough that a Welcome's model resync fits one transport
    // chunk and a full chaos fleet converges in seconds, big enough
    // that row-granularity partitioning yields a real unit fan-out.
    CrudaWorkloadConfig wc;
    wc.data.input_dim = 8;
    wc.data.classes = 4;
    wc.data.train_samples = kNodeTrainSamples;
    wc.data.test_samples = 80;
    wc.data.seed = cfg.workload_seed;
    wc.model = nn::ClassifierConfig{8, {12}, 4};
    wc.workers = cfg.workers;
    wc.batch_size = 4;
    // Momentum-free so the canonical server replica (per-push applies)
    // and the worker replicas (per-pull aggregate applies) follow the
    // same additive trajectory.
    wc.opt = nn::OptimizerConfig{0.05f, 0.0f};
    wc.pretrain_iters = 40;
    wc.pretrain_batch = 16;
    wc.eval_subset = 80;
    wc.seed = cfg.workload_seed;
    return std::make_unique<CrudaWorkload>(wc);
}

std::string
nodeRunConfigError(const NodeRunConfig &cfg)
{
    if (cfg.workers == 0 || cfg.workers > kNodeTrainSamples)
        return std::to_string(cfg.workers) + " workers: the node "
               "workload has " + std::to_string(kNodeTrainSamples) +
               " training samples, so a run takes 1 to " +
               std::to_string(kNodeTrainSamples) + " workers";
    if (cfg.artifact_dir.empty())
        return {};
    struct stat st;
    if (::stat(cfg.artifact_dir.c_str(), &st) != 0)
        return "artifact directory '" + cfg.artifact_dir +
               "' does not exist";
    if (!S_ISDIR(st.st_mode))
        return "artifact directory '" + cfg.artifact_dir +
               "' is not a directory";
    return {};
}

WorkerResumeState
loadWorkerResume(const std::string &state_dir, std::size_t worker)
{
    if (state_dir.empty())
        return {};
    try {
        WorkerResumeState r =
            readWorkerState(workerStatePath(state_dir, worker));
        ++r.incarnation; // this is a new process.
        return r;
    } catch (const std::exception &) {
        return {}; // no record, or a torn one: a fresh process.
    }
}

ServerRunResult
runServerNode(const NodeRunConfig &cfg,
              const std::function<void(std::uint16_t)> &on_listen)
{
    ServerRunResult res;
    std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);
    res.metric_name = workload->metricName();

    PollLoop loop;
    std::ofstream events; // these two outlive the fabric that
    std::string event_line; // writes to them.
    // The server never injects faults: perturbation belongs on the
    // worker->server push path where the chaos plan puts it.
    net::session::SocketFabric fabric(
        loop, net::session::kServerNode,
        fabricOptions(cfg, /*faults=*/{}, cfg.listen_port));
    if (!fabric.ok())
        return res;
    if (!cfg.artifact_dir.empty()) {
        // Streamed as it happens: the receiver keeps no event log.
        events.open(cfg.artifact_dir + "/server_events.log",
                    std::ios::trunc);
        fabric.setReceiverEventSink(
            [&](const net::transport::TransportEvent &ev) {
                event_line.clear();
                net::transport::appendEvent(event_line, ev);
                event_line += '\n';
                events << event_line;
            });
    }
    if (on_listen)
        on_listen(fabric.listenPort());

    NodeTrainConfig train = cfg.train;
    if (!cfg.artifact_dir.empty() && train.checkpoint_path.empty())
        train.checkpoint_path = cfg.artifact_dir + "/checkpoint.rogs";

    LineLog log(cfg.artifact_dir.empty()
                    ? std::string()
                    : cfg.artifact_dir + "/server_run.log");
    ServerNode server(fabric, *workload, train, log.logger());
    server.start();

    const double deadline = loop.now() + cfg.run_timeout_s;
    while (!server.done() && loop.now() < deadline)
        loop.step(0.05);

    res.done = server.done();
    res.metric = server.evaluateModel();
    res.applied_pushes = server.appliedPushes();
    res.duplicate_pushes = server.duplicatePushes();
    res.stale_drops = server.staleDrops();
    res.epoch = server.epoch();
    res.recovered = server.recovered();
    if (!res.done)
        log.line(toLine({.kind = NodeEvent::Kind::ServerTimeout}));

    if (!cfg.artifact_dir.empty()) {
        server.checkpointNow();
        nn::saveModelFile(cfg.artifact_dir + "/model.rogm",
                          server.model());
        events.close();
        writeFileDurably(cfg.artifact_dir + "/summary.txt",
                         [&](std::ostream &sum) {
            sum << "done " << (res.done ? 1 : 0) << '\n'
                << "metric_name " << res.metric_name << '\n'
                << "metric " << res.metric << '\n'
                << "applied_pushes " << res.applied_pushes << '\n'
                << "duplicate_pushes " << res.duplicate_pushes << '\n'
                << "stale_drops " << res.stale_drops << '\n'
                << "min_worker_iteration "
                << server.minWorkerIteration() << '\n'
                << "epoch " << res.epoch << '\n'
                << "recovered " << (res.recovered ? 1 : 0) << '\n';
        });
    }
    return res;
}

WorkerRunResult
runWorkerNode(const NodeRunConfig &cfg, std::size_t worker,
              const std::string &host, std::uint16_t port)
{
    WorkerRunResult res;
    std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);

    PollLoop loop;
    net::session::SocketFabric fabric(
        loop, net::session::workerNode(worker),
        fabricOptions(cfg, cfg.fault_plan, /*listen_port=*/0));
    if (!fabric.ok()) {
        res.failed = true;
        return res;
    }

    const WorkerResumeState resume =
        loadWorkerResume(cfg.train.worker_state_dir, worker);
    LineLog log(cfg.artifact_dir.empty()
                    ? std::string()
                    : cfg.artifact_dir + "/worker" +
                          std::to_string(worker) + ".log");
    log.line(toLine({.kind = NodeEvent::Kind::WorkerStart,
                     .w = worker,
                     .inc = resume.incarnation,
                     .done_iter = resume.last_done_iter,
                     .token = resume.resume_token}));
    WorkerNode node(fabric, *workload, cfg.train, worker, resume,
                    log.logger());
    node.start(host, port);

    const double deadline = loop.now() + cfg.run_timeout_s;
    while (!node.done() && !node.failed() && loop.now() < deadline)
        loop.step(0.05);

    res.done = node.done();
    res.failed = node.failed();
    res.done_iter = node.iter();
    if (!res.done && !res.failed)
        log.line(toLine({.kind = NodeEvent::Kind::WorkerTimeout}));
    return res;
}

DesTwinResult
runDesTwin(const NodeRunConfig &cfg)
{
    DesTwinResult res;
    std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);
    res.metric_name = workload->metricName();

    sim::Simulation sim;
    net::session::DesFabricNet net(sim, cfg.des_rate_bps,
                                   cfg.transport);

    // The twin ignores socket-only knobs (fault plan, ack timeouts)
    // but shares the training plan, seeds, detector tuning, and
    // transport config with the socket run it twins.
    NodeTrainConfig train = cfg.train;
    train.worker_state_dir.clear(); // no process restarts to resume.
    train.checkpoint_path.clear();

    // The server_crash fault plan needs a checkpoint to recover from.
    const bool crash_plan =
        cfg.server_crash_iter > 0 && !cfg.artifact_dir.empty();
    if (crash_plan) {
        train.checkpoint_path =
            cfg.artifact_dir + "/des_checkpoint.rogs";
        std::remove(train.checkpoint_path.c_str());
    }

    // LineLog appends (right for a restarted server's log); each twin
    // run starts its log afresh.
    const std::string log_path =
        cfg.artifact_dir.empty() ? std::string()
                                 : cfg.artifact_dir + "/des_twin.log";
    if (!log_path.empty())
        std::remove(log_path.c_str());
    LineLog log(log_path);
    net::session::DesFabric &server_fabric =
        net.node(net::session::kServerNode);
    auto server = std::make_unique<ServerNode>(server_fabric, *workload,
                                               train, log.logger());
    bool crash_requested = false;
    if (crash_plan)
        server->setApplyHook([&crash_requested, &cfg](std::int64_t it) {
            if (it >= cfg.server_crash_iter)
                crash_requested = true;
        });
    server->start();

    std::vector<std::unique_ptr<WorkerNode>> nodes;
    for (std::size_t w = 0; w < cfg.workers; ++w) {
        nodes.push_back(std::make_unique<WorkerNode>(
            net.node(net::session::workerNode(w)), *workload, train, w,
            WorkerResumeState{}, log.logger()));
        nodes.back()->start("des", 0);
    }

    if (!crash_plan) {
        sim.runUntil(cfg.run_timeout_s);
    } else {
        // Slice the simulation so the crash lands mid-run, exactly
        // where the fork harness SIGKILLs its server: destroy the
        // node (in-flight state evaporates), wait out the restart
        // delay in simulated time, rebuild from the checkpoint.
        // Slices stay fine-grained until the restart has happened —
        // a DES iteration takes well under a millisecond, and a
        // coarse slice would fire the "crash" after the fleet
        // already finished.
        double restart_at = -1.0;
        double t = 0.0;
        bool restarted = false;
        while (t < cfg.run_timeout_s) {
            t = std::min(cfg.run_timeout_s,
                         t + (restarted ? 0.05 : 0.0005));
            sim.runUntil(t);
            if (crash_requested && server) {
                crash_requested = false;
                server.reset();
                log.line(toLine({.kind = NodeEvent::Kind::DesServerKilled}));
                restart_at = t + cfg.server_crash_restart_s;
            }
            if (restart_at >= 0.0 && t >= restart_at) {
                restart_at = -1.0;
                restarted = true;
                // A restarted socket server comes back with a fresh
                // receiver endpoint; so does the twin's.
                net.restartReceivers(net::session::kServerNode);
                server = std::make_unique<ServerNode>(
                    server_fabric, *workload, train, log.logger());
                server->start();
            }
            if (server && server->done())
                break;
        }
    }

    res.done = server && server->done();
    res.metric = server ? server->evaluateModel() : 0.0;
    res.applied_pushes = server ? server->appliedPushes() : 0;
    if (!cfg.artifact_dir.empty()) {
        writeFileDurably(cfg.artifact_dir + "/des_summary.txt",
                         [&res](std::ostream &sum) {
            sum << "done " << (res.done ? 1 : 0) << '\n'
                << "metric_name " << res.metric_name << '\n'
                << "metric " << res.metric << '\n'
                << "applied_pushes " << res.applied_pushes << '\n';
        });
    }
    return res;
}

} // namespace core
} // namespace rog
