#include "core/chaos_check.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/text_line.hpp"
#include "core/node_event.hpp"
#include "core/server_checkpoint.hpp"
#include "fault/invariant_checker.hpp"
#include "net/transport/event_log.hpp"
#include "nn/serialize.hpp"

namespace rog {
namespace core {

namespace {

/** A summary file's "key value" lines, or the first bad line. */
struct Summary
{
    std::map<std::string, std::string> kv;
    std::string error; //!< "line N: ..."; empty when every line parsed.
};

/**
 * Read @p path, where every line is exactly one key and one value and
 * no key repeats. An absent file reads as an empty summary.
 */
Summary
readSummary(const std::string &path)
{
    Summary s;
    std::ifstream is(path);
    std::string line;
    for (std::size_t n = 1; s.error.empty() && std::getline(is, line);
         ++n) {
        TextLine f(line, n);
        if (f.size() != 2)
            f.fail("expected 'key value', got " +
                   std::to_string(f.size()) + " tokens");
        const std::string key(f.word());
        const std::string value(f.word());
        if (f.ok() && !s.kv.emplace(key, value).second)
            f.fail("repeated key '" + key + "'");
        s.error = f.error();
    }
    return s;
}

} // namespace

ChaosCheckResult
checkChaosRun(const NodeRunConfig &cfg, const ChaosCheckOptions &opts)
{
    ChaosCheckResult res;
    std::ostringstream report;
    const std::string &dir = cfg.artifact_dir;
    auto violate = [&](const std::string &what) {
        res.violations.push_back(what);
    };

    // 1. Server checkpoint: present and CRC-clean.
    try {
        const ServerCheckpoint ckpt =
            readServerCheckpointFile(dir + "/checkpoint.rogs");
        report << "checkpoint: ok (iter " << ckpt.iteration << ")\n";
    } catch (const std::exception &e) {
        violate(std::string("checkpoint unreadable: ") + e.what());
        report << "checkpoint: FAIL\n";
    }

    // 2. Final model: CRC-clean and finite under evaluation.
    double metric = std::nan("");
    try {
        std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);
        std::unique_ptr<nn::Model> model = workload->buildReplica();
        nn::loadModelFile(dir + "/model.rogm", *model);
        metric = workload->evaluate(*model);
        if (!std::isfinite(metric))
            violate("final model evaluates non-finite");
        report << "model: ok (" << workload->metricName() << ' '
               << metric << ")\n";
    } catch (const std::exception &e) {
        violate(std::string("final model unreadable: ") + e.what());
        report << "model: FAIL\n";
    }

    // 3. Application-level exactly-once + 5. membership outcomes +
    //    7. server restart invariants, all from the structured server
    //    run log. The log is append-mode across server incarnations;
    //    each `server_start` line opens a new segment with its own
    //    applied-set (a restarted server legitimately re-applies
    //    pushes its checkpoint never covered) and its own restored
    //    watermark (anything at or below it must NOT re-apply).
    //    An `apply` record lists one push's units; each of its
    //    (w, iter, unit) triples is checked on its own.
    std::set<std::size_t> admitted_restart; //!< admit with inc >= 1.
    std::set<std::size_t> evicted;
    std::set<std::size_t> byed;
    struct Incarnation
    {
        std::uint64_t epoch = 0;
        bool recovered = false;
        /** Restored per-(worker,unit) apply watermark from the
         *  recover_w lines; applies at or below it are duplicates. */
        std::map<std::size_t, std::vector<std::int64_t>> watermark;
        std::set<std::tuple<std::size_t, std::int64_t, std::size_t>>
            applied;
        std::map<std::size_t, std::uint64_t> admit_epoch;
        std::set<std::size_t> byes;
    };
    std::vector<Incarnation> incs;
    {
        std::size_t total_applies = 0;
        std::size_t dup_applies = 0;
        auto cur = [&incs]() -> Incarnation & {
            if (incs.empty())
                incs.emplace_back(); // pre-PR-9 logs: one segment.
            return incs.back();
        };
        const std::string log_path = dir + "/server_run.log";
        const NodeLogReadResult log = readNodeLog(log_path);
        if (!log.ok())
            violate(log_path + " unreadable: " + log.error);
        for (const NodeEvent &ev : log.events) {
            switch (ev.kind) {
            case NodeEvent::Kind::Apply: {
                Incarnation &seg = cur();
                auto wm = seg.watermark.find(ev.w);
                for (const std::size_t unit : ev.unit_list) {
                    ++total_applies;
                    auto triple = [&] {
                        return "w=" + std::to_string(ev.w) +
                               " iter=" + std::to_string(ev.iter) +
                               " unit=" + std::to_string(unit);
                    };
                    if (!seg.applied.emplace(ev.w, ev.iter, unit).second) {
                        ++dup_applies;
                        violate("gradient applied twice: " + triple());
                    }
                    if (wm != seg.watermark.end() &&
                        unit < wm->second.size() &&
                        ev.iter <= wm->second[unit]) {
                        ++dup_applies;
                        violate("gradient re-applied after server "
                                "restart: " +
                                triple() + " watermark=" +
                                std::to_string(wm->second[unit]));
                    }
                }
                break;
            }
            case NodeEvent::Kind::ServerStart:
                incs.emplace_back();
                incs.back().epoch = ev.epoch;
                incs.back().recovered = ev.recovered;
                break;
            case NodeEvent::Kind::RecoverW:
                cur().watermark[ev.w] = ev.versions;
                break;
            case NodeEvent::Kind::Admit:
                if (ev.inc >= 1)
                    admitted_restart.insert(ev.w);
                cur().admit_epoch[ev.w] = ev.epoch;
                break;
            case NodeEvent::Kind::Evict:
                evicted.insert(ev.w);
                break;
            case NodeEvent::Kind::ServerBye:
                byed.insert(ev.w);
                cur().byes.insert(ev.w);
                break;
            default:
                break;
            }
        }
        report << "applies: " << total_applies << " total over "
               << incs.size() << " server incarnation(s), "
               << dup_applies << " double-applied\n";
    }

    // 4. Transport-level exactly-once from the server's receiver
    //    event log, judged by the one transport checker.
    {
        std::ifstream is(dir + "/server_events.log");
        std::stringstream buf;
        buf << is.rdbuf();
        const net::transport::LogParseResult parsed =
            net::transport::tryParseLog(buf.str());
        if (!parsed.error.empty()) {
            violate("server event log unparsable: " + parsed.error);
            report << "transport log: FAIL\n";
        } else {
            fault::InvariantChecker checker;
            for (const auto &ev : parsed.events)
                checker.onTransportEvent(ev);
            for (const std::string &v : checker.violations())
                violate(v);
            report << "transport log: " << parsed.events.size()
                   << " events, " << checker.violationCount()
                   << " exactly-once violations\n";
        }
    }

    // 5. Every killed worker must have been evicted or re-admitted
    //    as a restarted incarnation — a silent disappearance is a
    //    failure-detection bug.
    for (std::size_t w : opts.killed_workers) {
        if (admitted_restart.count(w) == 0 && evicted.count(w) == 0)
            violate("killed worker neither evicted nor re-admitted: "
                    "w=" +
                    std::to_string(w));
        if (opts.require_all_bye && byed.count(w) == 0)
            violate("killed+restarted worker never finished: w=" +
                    std::to_string(w));
    }
    if (opts.require_all_bye) {
        for (std::size_t w = 0; w < cfg.workers; ++w)
            if (byed.count(w) == 0)
                violate("worker never said bye: w=" +
                        std::to_string(w));
    }
    report << "membership: " << admitted_restart.size()
           << " restarted-admits, " << evicted.size() << " evictions, "
           << byed.size() << " byes\n";

    // 7. Server crash-restart invariants: every kill produced a new
    //    incarnation that recovered from the checkpoint under a
    //    strictly higher epoch, and the workers that finished after
    //    the last restart did so under that final epoch — i.e. they
    //    actually crossed the Hello/Welcome re-admission gate instead
    //    of talking to a ghost of the old server.
    if (opts.server_restarts > 0) {
        if (incs.size() != opts.server_restarts + 1) {
            violate("expected " +
                    std::to_string(opts.server_restarts + 1) +
                    " server incarnations, log shows " +
                    std::to_string(incs.size()));
        } else {
            for (std::size_t k = 1; k < incs.size(); ++k) {
                if (!incs[k].recovered)
                    violate("server incarnation " + std::to_string(k) +
                            " did not recover from a checkpoint");
                if (incs[k].epoch <= incs[k - 1].epoch)
                    violate("server epoch did not rise across "
                            "restart: " +
                            std::to_string(incs[k - 1].epoch) +
                            " -> " + std::to_string(incs[k].epoch));
            }
            const Incarnation &last = incs.back();
            for (std::size_t w : last.byes) {
                auto it = last.admit_epoch.find(w);
                if (it == last.admit_epoch.end())
                    violate("worker finished after server restart "
                            "without re-admission: w=" +
                            std::to_string(w));
                else if (it->second != last.epoch)
                    violate("worker re-admitted under wrong epoch: "
                            "w=" +
                            std::to_string(w) + " epoch=" +
                            std::to_string(it->second) + " (want " +
                            std::to_string(last.epoch) + ")");
            }
        }
        report << "server restarts: " << (incs.size() - 1)
               << " observed, final epoch "
               << (incs.empty() ? 0 : incs.back().epoch) << "\n";
    }

    // 6. Metric within tolerance of the fault-free DES twin.
    {
        const std::string path = dir + "/des_summary.txt";
        const Summary twin = readSummary(path);
        auto it = twin.kv.find("metric");
        double ref = 0.0;
        if (!twin.error.empty()) {
            violate(path + ": " + twin.error);
            report << "twin: FAIL\n";
        } else if (it == twin.kv.end()) {
            if (opts.require_twin)
                violate("no DES twin summary to compare against");
            report << "twin: absent\n";
        } else if (!parseNumber(it->second, ref)) {
            violate(path + ": bad metric '" + it->second + "'");
            report << "twin: FAIL\n";
        } else if (std::isfinite(metric)) {
            const double delta = std::fabs(metric - ref);
            if (!(delta <= opts.metric_tolerance))
                violate("metric " + std::to_string(metric) +
                        " deviates from twin " + it->second + " by " +
                        std::to_string(delta) + " (tolerance " +
                        std::to_string(opts.metric_tolerance) + ")");
            report << "twin: ref " << ref << ", delta " << delta
                   << "\n";
        }
    }

    // 8. Every planned fault fired.
    {
        std::set<std::size_t> killed;
        std::ifstream is(dir + "/kills.txt");
        std::string line;
        for (std::size_t n = 1; std::getline(is, line); ++n) {
            std::uint64_t w = 0;
            if (parseNumber(line, w))
                killed.insert(static_cast<std::size_t>(w));
            else
                violate(dir + "/kills.txt line " + std::to_string(n) +
                        ": bad worker '" + line + "'");
        }
        std::size_t planned = 0;
        std::size_t fired = 0;
        for (std::size_t w : opts.planned_kills) {
            ++planned;
            if (killed.count(w) != 0)
                ++fired;
            else
                violate("planned fault never fired: kill w=" +
                        std::to_string(w) + " is not in kills.txt");
        }
        if (opts.server_kill_planned) {
            ++planned;
            if (opts.server_restarts > 0)
                ++fired;
            else
                violate("planned fault never fired: the server was "
                        "never killed");
        }
        for (const auto &[w, start] : opts.partition_starts) {
            ++planned;
            const std::string path =
                dir + "/worker" + std::to_string(w) + ".log";
            const NodeLogReadResult log = readNodeLog(path);
            double last = -1.0;
            for (const NodeEvent &ev : log.events)
                if (isTimed(ev.kind))
                    last = std::max(last, ev.t);
            if (log.ok() && last >= start)
                ++fired;
            else
                violate("planned fault never fired: partition w=" +
                        std::to_string(w) + " opens at t=" +
                        std::to_string(start) + " but " + path +
                        (log.ok() ? " has no timed event from then on"
                                  : " is unreadable: " + log.error));
        }
        report << "planned faults: " << fired << " of " << planned
               << " fired\n";
    }

    res.ok = res.violations.empty();
    res.report = report.str();
    return res;
}

bool
pushInFlight(const std::string &dir, std::size_t w, std::int64_t min_iter)
{
    const NodeLogReadResult log =
        readNodeLog(dir + "/worker" + std::to_string(w) + ".log");
    for (const NodeEvent &ev : log.events)
        if (ev.kind == NodeEvent::Kind::PushBegin && ev.iter >= min_iter)
            return true;
    return false;
}

bool
serverKillReady(const std::string &dir, std::int64_t min_iter)
{
    const NodeLogReadResult log = readNodeLog(dir + "/server_run.log");
    bool applied = false;
    bool checkpointed = false;
    for (const NodeEvent &ev : log.events) {
        applied = applied || (ev.kind == NodeEvent::Kind::Apply &&
                              ev.iter >= min_iter);
        checkpointed =
            checkpointed || ev.kind == NodeEvent::Kind::Checkpoint;
    }
    return applied && checkpointed;
}

} // namespace core
} // namespace rog
