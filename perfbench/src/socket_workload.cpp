/**
 * @file
 * socket_udp: a ServerNode and min(4, nproc) WorkerNodes over
 * loopback-UDP SocketFabrics sharing one PollLoop, on the
 * makeNodeWorkload tiny CRUDA model under chaosRunDefaults. This is
 * rog_noded without --dir, with all roles in one process. One short
 * durable rep (rog_noded --dir: server and worker checkpoints on disk)
 * is checked after the measured reps.
 *
 * Every fabric is wrapped in a ProbeFabric, the Fabric seam: it stamps
 * each gradient-unit push at the worker's sendTo and reads the stamp
 * back when the server's handler receives that key (push->apply
 * latency), counts sends and failed sends, and in the traced run times
 * sendTo and both roles' message handlers as nested spans.
 */
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>
#include <unordered_map>

#include "calibrate.hpp"
#include "common/poll_loop.hpp"
#include "core/chaos_check.hpp"
#include "core/node_engine.hpp"
#include "core/node_runner.hpp"
#include "core/server_checkpoint.hpp"
#include "net/session/socket_fabric.hpp"
#include "net/session/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rog;
using net::session::Fabric;
using net::session::MessageKey;

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kSetupReps = 25;
constexpr double kRepTimeoutS = 30.0;

struct KeyHash
{
    std::size_t
    operator()(const MessageKey &k) const
    {
        std::uint64_t h = static_cast<std::uint64_t>(k.version);
        h = h * 0x9E3779B97F4A7C15ull ^ k.row;
        h = h * 0x9E3779B97F4A7C15ull ^ k.worker;
        return static_cast<std::size_t>(h ^ (k.pull ? 1 : 0));
    }
};

bool
isPush(const MessageKey &k)
{
    return !k.pull && !net::session::isControlRow(k.row);
}

/** What the probes of one rep record. */
struct Probe
{
    explicit Probe(bool traced_) : traced(traced_) {}

    bool traced;
    Tracer tracer;
    LayerClock send;
    LayerClock server_handler;
    LayerClock worker_handler;

    std::unordered_map<MessageKey, Clock::time_point, KeyHash> push_sent;
    std::vector<double> push_apply_us;
    std::unordered_map<int, Clock::time_point> hello_sent; //!< by node.
    std::vector<double> hello_welcome_us;

    std::uint64_t sends = 0;
    std::uint64_t send_failures = 0;
    std::uint64_t payload_bytes = 0;

    Tracer *spans() { return traced ? &tracer : nullptr; }
};

/** Delegates to a real fabric and records into a Probe. */
class ProbeFabric : public Fabric
{
  public:
    ProbeFabric(Fabric &inner, Probe &probe)
        : inner_(inner), probe_(probe),
          server_(inner.nodeId() == net::session::kServerNode)
    {
    }

    int nodeId() const override { return inner_.nodeId(); }
    double now() const override { return inner_.now(); }

    net::session::FabricTimer
    after(double delay_s, std::function<void()> fire) override
    {
        return inner_.after(delay_s, std::move(fire));
    }

    void
    cancelTimer(net::session::FabricTimer id) override
    {
        inner_.cancelTimer(id);
    }

    bool
    connectPeer(int peer, const std::string &host,
                std::uint16_t port) override
    {
        return inner_.connectPeer(peer, host, port);
    }

    bool hasPeer(int peer) const override { return inner_.hasPeer(peer); }

    bool
    peerHealthy(int peer) const override
    {
        return inner_.peerHealthy(peer);
    }

    void dropPeer(int peer) override { inner_.dropPeer(peer); }
    void resetPeer(int peer) override { inner_.resetPeer(peer); }

    void
    sendTo(int peer, const MessageKey &key,
           std::span<const std::uint8_t> payload, double deadline_s,
           SendDone done) override
    {
        ++probe_.sends;
        probe_.payload_bytes += payload.size();
        if (!server_) {
            if (isPush(key))
                probe_.push_sent.emplace(key, Clock::now());
            else if (key.row == net::session::kRowHello)
                probe_.hello_sent.emplace(nodeId(), Clock::now());
        }
        Probe &probe = probe_;
        SendDone counted = [&probe, done = std::move(done)](bool ok) {
            if (!ok)
                ++probe.send_failures;
            if (done)
                done(ok);
        };
        Tracer::Span span(probe_.spans(), probe_.send);
        inner_.sendTo(peer, key, payload, deadline_s, std::move(counted));
    }

    void
    setMessageHandler(MessageHandler handler) override
    {
        inner_.setMessageHandler(
            [this, handler = std::move(handler)](
                const MessageKey &key, std::vector<std::uint8_t> &&bytes) {
                received(key);
                Tracer::Span span(probe_.spans(), server_
                                                      ? probe_.server_handler
                                                      : probe_.worker_handler);
                handler(key, std::move(bytes));
            });
    }

    std::uint16_t listenPort() const override { return inner_.listenPort(); }

  private:
    void
    received(const MessageKey &key)
    {
        const Clock::time_point now = Clock::now();
        if (server_ && isPush(key)) {
            const auto it = probe_.push_sent.find(key);
            if (it == probe_.push_sent.end())
                return;
            probe_.push_apply_us.push_back(
                std::chrono::duration<double, std::micro>(now - it->second)
                    .count());
            probe_.push_sent.erase(it);
        } else if (!server_ && key.row == net::session::kRowWelcome) {
            const auto it = probe_.hello_sent.find(nodeId());
            if (it == probe_.hello_sent.end())
                return;
            probe_.hello_welcome_us.push_back(
                std::chrono::duration<double, std::micro>(now - it->second)
                    .count());
            probe_.hello_sent.erase(it);
        }
    }

    Fabric &inner_;
    Probe &probe_;
    bool server_;
};

/** The last lines the nodes of one rep logged, printed if it fails. */
class RingLog
{
  public:
    core::NodeLogger
    logger(std::string node)
    {
        return [this, node = std::move(node)](const std::string &line) {
            if (lines_.size() == kLines)
                lines_.pop_front();
            lines_.push_back(node + " " + line);
        };
    }

    void
    dump() const
    {
        for (const std::string &l : lines_)
            std::cerr << "  " << l << "\n";
    }

  private:
    static constexpr std::size_t kLines = 60;
    std::deque<std::string> lines_;
};

struct SocketRep
{
    explicit SocketRep(bool traced) : probe(traced) {}

    double wall_s = 0.0;
    double slowdown = 1.0; //!< host probe over the reference.
    bool all_done = false;
    std::uint64_t missing_iters = 0;
    std::uint64_t unfinished_nodes = 0;
    std::size_t applied = 0;
    std::size_t duplicates = 0;
    double metric = 0.0;
    bool checkpoint_decodes = false;
    double checkpoint_us = 0.0; //!< traced durable rep only.
    Probe probe;

    // Push->apply percentiles; the samples are dropped after the rep so
    // that the number of reps does not move the peak RSS.
    double p50_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;
};

/** The shared plan of every rep at one seed. */
core::NodeRunConfig
runConfig(std::uint64_t seed, std::int64_t iters)
{
    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = std::min<std::size_t>(
        4, std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN)));
    cfg.workload_seed = seed;
    cfg.train.max_iters = iters;
    cfg.train.session_salt = seed ^ 0x5a17u;
    cfg.train.checkpoint_path.clear();
    cfg.train.worker_state_dir.clear();
    return cfg;
}

std::size_t
unitsOf(const core::NodeRunConfig &cfg)
{
    return core::makeNodeWorkload(cfg)->buildReplica()->rowCount();
}

/**
 * The nodes of one rep and what they run on: the workload, the socket
 * binds and the server and worker nodes. Building one is the set-up.
 * With a non-empty @p dir the server and workers checkpoint into it.
 */
struct Nodes
{
    Nodes(const core::NodeRunConfig &cfg, const std::string &dir,
          Probe &probe)
        : workload(core::makeNodeWorkload(cfg)), train(cfg.train)
    {
        if (!dir.empty()) {
            train.checkpoint_path = dir + "/server.rogs";
            train.worker_state_dir = dir;
        }
        net::session::SocketFabricOptions sopts;
        sopts.kind = "udp";
        sopts.transport = cfg.transport;
        sopts.socket = cfg.socket;
        server_socket = std::make_unique<net::session::SocketFabric>(
            loop, net::session::kServerNode, sopts);
        server_fabric = std::make_unique<ProbeFabric>(*server_socket, probe);
        server = std::make_unique<core::ServerNode>(
            *server_fabric, *workload, train, log.logger("server"));
        bound = server_socket->ok();
        for (std::size_t w = 0; w < cfg.workers; ++w) {
            sockets.push_back(std::make_unique<net::session::SocketFabric>(
                loop, net::session::workerNode(w), sopts));
            bound = bound && sockets.back()->ok();
            fabrics.push_back(
                std::make_unique<ProbeFabric>(*sockets.back(), probe));
            workers.push_back(std::make_unique<core::WorkerNode>(
                *fabrics.back(), *workload, train, w,
                core::WorkerResumeState{},
                log.logger("worker" + std::to_string(w))));
        }
    }

    std::unique_ptr<core::Workload> workload;
    core::NodeTrainConfig train;
    PollLoop loop;
    RingLog log;
    std::unique_ptr<net::session::SocketFabric> server_socket;
    std::unique_ptr<ProbeFabric> server_fabric;
    std::unique_ptr<core::ServerNode> server;
    std::vector<std::unique_ptr<net::session::SocketFabric>> sockets;
    std::vector<std::unique_ptr<ProbeFabric>> fabrics;
    std::vector<std::unique_ptr<core::WorkerNode>> workers;
    bool bound = false;
};

/** Seconds to build the nodes of @p cfg, each scaled by its slowdown;
 *  the nodes are not started. */
std::vector<double>
setupTimes(const core::NodeRunConfig &cfg)
{
    Probe probe(false);
    std::vector<double> out;
    HostProbe host;
    for (std::size_t i = 0; i < kSetupReps; ++i) {
        const Clock::time_point t0 = Clock::now();
        {
            const Nodes nodes(cfg, {}, probe);
        }
        const double setup_s = secondsSince(t0);
        out.push_back(setup_s / host.next());
    }
    return out;
}

/**
 * One rep. With a non-empty @p dir (fresh per rep, so no rep restores
 * another's checkpoint) the server and workers checkpoint into it.
 */
SocketRep
runRep(const core::NodeRunConfig &cfg, const std::string &dir, bool traced)
{
    SocketRep rep(traced);
    Probe &probe = rep.probe;
    Nodes nodes(cfg, dir, probe);
    const core::NodeTrainConfig &train = nodes.train;
    PollLoop &loop = nodes.loop;
    core::ServerNode &server = *nodes.server;
    const auto &workers = nodes.workers;
    const bool bound = nodes.bound;

    const Clock::time_point t1 = Clock::now();
    if (bound) {
        server.start();
        for (auto &w : workers)
            w->start("127.0.0.1", nodes.server_socket->listenPort());
        loop.runUntil(
            [&] {
                if (!server.done())
                    return false;
                for (const auto &w : workers)
                    if (!w->done())
                        return false;
                return true;
            },
            kRepTimeoutS);
    }
    rep.wall_s = secondsSince(t1);

    rep.all_done = bound && server.done();
    rep.unfinished_nodes = server.done() ? 0 : 1;
    for (std::size_t w = 0; w < workers.size(); ++w) {
        if (!workers[w]->done()) {
            rep.all_done = false;
            ++rep.unfinished_nodes;
            const std::int64_t short_by =
                cfg.train.max_iters - workers[w]->iter();
            rep.missing_iters += static_cast<std::uint64_t>(
                std::max<std::int64_t>(short_by, 1));
            std::cerr << "socket: worker " << w << " unfinished at iter "
                      << workers[w]->iter() << (workers[w]->failed()
                                                    ? " (failed)"
                                                    : "")
                      << ", epoch " << workers[w]->epoch() << "\n";
        }
    }
    const std::size_t want = cfg.workers *
                             static_cast<std::size_t>(cfg.train.max_iters) *
                             server.model().rowCount();
    if (!rep.all_done || server.appliedPushes() != want ||
        server.duplicatePushes() != 0) {
        std::cerr << "socket: rep of " << cfg.train.max_iters
                  << " iterations: done " << rep.all_done << " after "
                  << rep.wall_s << " s, min iter "
                  << server.minWorkerIteration() << ", applied "
                  << server.appliedPushes() << " of " << want
                  << ", duplicates " << server.duplicatePushes()
                  << "; last log lines:\n";
        nodes.log.dump();
    }
    rep.p50_us = quantile(probe.push_apply_us, 0.50);
    rep.p99_us = quantile(probe.push_apply_us, 0.99);
    rep.p999_us = quantile(probe.push_apply_us, 0.999);
    std::vector<double>().swap(probe.push_apply_us);
    decltype(probe.push_sent)().swap(probe.push_sent);
    rep.applied = server.appliedPushes();
    rep.duplicates = server.duplicatePushes();
    rep.metric = server.evaluateModel();

    if (!dir.empty()) {
        try {
            core::readServerCheckpointFile(train.checkpoint_path);
            rep.checkpoint_decodes = true;
        } catch (const std::exception &e) {
            std::cerr << "socket: checkpoint does not decode: " << e.what()
                      << "\n";
        }
        if (traced) {
            // Replay: the public checkpoint call on the finished server.
            constexpr int kCalls = 16;
            std::vector<double> us;
            for (int i = 0; i < kCalls; ++i) {
                const Clock::time_point c0 = Clock::now();
                server.checkpointNow();
                us.push_back(secondsSince(c0) * 1e6);
            }
            rep.checkpoint_us = median(us);
        }
    }
    return rep;
}

/** Account one rep and check its invariants. */
void
checkRep(const core::NodeRunConfig &cfg, std::size_t units, bool durable,
         const SocketRep &rep, Report &report, const char *what)
{
    const std::uint64_t budget =
        cfg.workers * static_cast<std::uint64_t>(cfg.train.max_iters);
    report.attempt(budget, rep.missing_iters);
    report.attempt(rep.probe.sends, rep.probe.send_failures);
    report.attempt(cfg.workers + 1, rep.unfinished_nodes);
    // Exactly-once: every unit of every iteration applied once. A clean
    // rep re-sends nothing. On the durable rep a checkpoint stall longer
    // than the workers' server-silence detector allows (about 1.4 s
    // under chaosRunDefaults) makes them resync and re-send their parked
    // pushes, which the server drops as duplicates; there they may occur.
    report.check(rep.applied == budget * units &&
                     (durable || rep.duplicates == 0),
                 std::string(what) + ": applied " +
                     std::to_string(rep.applied) + " pushes, want " +
                     std::to_string(budget * units) + ", " +
                     std::to_string(rep.duplicates) + " duplicates");
    report.check(std::isfinite(rep.metric), std::string(what) +
                                                ": metric not finite");
    if (durable)
        report.check(rep.checkpoint_decodes,
                     std::string(what) + ": final checkpoint undecodable");
}

/** Server metric against runDesTwin, within the chaos tolerance. */
void
checkTwin(const core::NodeRunConfig &cfg, double metric, Report &report,
          const char *what)
{
    const core::DesTwinResult twin = core::runDesTwin(cfg);
    const double tol = core::ChaosCheckOptions{}.metric_tolerance;
    report.check(twin.done && std::fabs(metric - twin.metric) <= tol,
                 std::string(what) + ": metric " + std::to_string(metric) +
                     " vs DES twin " + std::to_string(twin.metric));
}

/** A fresh directory, removed with everything in it at scope exit. */
class ScopedDir
{
  public:
    explicit ScopedDir(std::string path) : path_(std::move(path))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScopedDir() { std::filesystem::remove_all(path_); }
    ScopedDir(const ScopedDir &) = delete;
    ScopedDir &operator=(const ScopedDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

using Reps = std::vector<SocketRep>;

double
iterRate(const core::NodeRunConfig &cfg, const SocketRep &r)
{
    return static_cast<double>(cfg.workers * cfg.train.max_iters) /
           r.wall_s;
}

} // namespace

void
runSocketUdp(const Options &opt, Report &report, Values &out)
{
    const char *name = "socket_udp";
    const core::NodeRunConfig cfg = runConfig(opt.seed, 1000);
    const std::size_t units = unitsOf(cfg);

    // The resident set grows by a few MiB over some reps, so it is read
    // after the first kMinReps measured reps, not after however many
    // reps the run's seconds allow.
    double peak_rss = 0.0;
    const auto phase = [&](bool traced, double budget_s) {
        Reps reps;
        const Clock::time_point t0 = Clock::now();
        HostProbe host;
        while (reps.size() < kMinReps || secondsSince(t0) < budget_s) {
            reps.push_back(runRep(cfg, {}, traced));
            reps.back().slowdown = host.next();
            if (reps.size() == kMinReps && peak_rss == 0.0)
                peak_rss = peakRssMb();
            checkRep(cfg, units, false, reps.back(), report, name);
            if (!reps.back().all_done)
                break; // a rep timed out: report it, do not wait again.
        }
        return reps;
    };

    // Short gate reps at this seed and a second one, first so that they
    // also warm up. Their metrics are checked against runDesTwin after
    // the measured reps: the DES twin keeps every transport event, and
    // its memory would otherwise be this run's peak RSS.
    constexpr std::int64_t kGateIters = 150;
    std::vector<core::NodeRunConfig> gates;
    std::vector<double> gate_metrics;
    for (const std::uint64_t s : {opt.seed, opt.seed + 0x9E3779B9u}) {
        gates.push_back(runConfig(s, kGateIters));
        const auto g = runRep(gates.back(), {}, false);
        checkRep(gates.back(), units, false, g, report, name);
        gate_metrics.push_back(g.metric);
    }

    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const Reps plain = phase(false, budget);
    if (peak_rss == 0.0)
        peak_rss = peakRssMb();
    std::cerr << name << ": " << plain.size() << " reps of "
              << cfg.workers << "x" << cfg.train.max_iters
              << " iterations, " << units << " units, metric "
              << plain.front().metric << ", host slowdown "
              << median(collect(plain, [](const SocketRep &r) {
                     return r.slowdown;
                 }))
              << "\n";
    for (std::size_t i = 0; i < gates.size(); ++i)
        checkTwin(gates[i], gate_metrics[i], report, name);

    // The durable path of rog_noded --dir: the server checkpoints every
    // 8 applies and every worker after every pull. Its speed follows the
    // host disk, which throttles (see README.md), so one short rep after
    // the measured ones is checked, and timed only by the checkpoint
    // replay of the traced run.
    const ScopedDir dir(opt.scratch_dir + "/durable");
    const auto durable = runRep(gates.front(), dir.path(), opt.trace);
    checkRep(gates.front(), units, true, durable, report,
             "socket_udp durable");

    const std::vector<double> wall =
        collect(plain, [](const SocketRep &r) { return r.wall_s; });
    if (!opt.trace) {
        // Reference-host figures: each rep scaled by its slowdown.
        out["train_iters_per_s"] = median(collect(plain, [&](const SocketRep &r) {
            return iterRate(cfg, r) * r.slowdown;
        }));
        out["push_apply_p50_us"] = median(collect(
            plain, [](const SocketRep &r) { return r.p50_us / r.slowdown; }));
        out["push_apply_p99_us"] = median(collect(
            plain, [](const SocketRep &r) { return r.p99_us / r.slowdown; }));
        out["setup_s"] = median(setupTimes(cfg));
        out["peak_rss_mb"] = peak_rss;
        return;
    }

    const Reps traced = phase(true, budget);
    const auto med = [&](auto f) { return median(collect(traced, f)); };
    const double traced_wall =
        med([](const SocketRep &r) { return r.wall_s; });
    const auto perCall = [](const LayerClock &c) {
        return c.calls == 0 ? 0.0
                            : c.self_s * 1e6 / static_cast<double>(c.calls);
    };
    const auto attributed = [](const SocketRep &r) {
        return (r.probe.send.self_s + r.probe.server_handler.self_s +
                r.probe.worker_handler.self_s) /
               r.wall_s;
    };

    out["net.send_us"] = med(
        [&](const SocketRep &r) { return perCall(r.probe.send); });
    out["net.sends"] = med([](const SocketRep &r) {
        return static_cast<double>(r.probe.sends);
    });
    out["net.payload_bytes"] = med([](const SocketRep &r) {
        return static_cast<double>(r.probe.payload_bytes);
    });
    out["net.send_fail_ratio"] = med([](const SocketRep &r) {
        return static_cast<double>(r.probe.send_failures) /
               static_cast<double>(std::max<std::uint64_t>(r.probe.sends, 1));
    });
    out["net.poll_wait_share"] =
        med([&](const SocketRep &r) { return 1.0 - attributed(r); });
    std::vector<double> hello;
    for (const SocketRep &r : traced)
        hello.insert(hello.end(), r.probe.hello_welcome_us.begin(),
                     r.probe.hello_welcome_us.end());
    out["net.hello_welcome_us"] = median(hello);
    out["net.hello_welcome_count"] = static_cast<double>(hello.size());
    out["net.push_apply_p999_us"] =
        med([](const SocketRep &r) { return r.p999_us; });
    out["core.server_handler_us"] = med(
        [&](const SocketRep &r) { return perCall(r.probe.server_handler); });
    out["core.worker_handler_us"] = med(
        [&](const SocketRep &r) { return perCall(r.probe.worker_handler); });
    out["core.server_checkpoint_us"] = durable.checkpoint_us;
    out["compress.transcode_ns_per_row"] = replay::transcodeNsPerRow(
        *core::makeNodeWorkload(cfg)->buildReplica());
    out["common.crc32c_ns_per_kib"] = replay::crc32cNsPerKib();
    out["trace.attributed_share"] = med(attributed);
    out["trace.overhead"] = traced_wall / median(wall) - 1.0;
}

} // namespace perfbench
