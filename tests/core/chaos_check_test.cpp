/**
 * @file
 * checkChaosRun's verdicts on hand-built artifact directories: no
 * sockets, no forked fleet. Each case writes a CRC-clean checkpoint, a
 * model, an empty receiver event log, a DES twin summary and a
 * `server_run.log` in the node roles' exact line format, then checks
 * that the exactly-once (3), membership (5) and server-restart (7)
 * invariants pass on a clean log and name each failing shape; two
 * cases put a double Deliver and a double fresh Accept into the
 * receiver event log (4). The last cases plan kills and partitions
 * that never fired (8).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "core/chaos_check.hpp"
#include "core/server_checkpoint.hpp"
#include "net/transport/event_log.hpp"
#include "nn/serialize.hpp"

namespace rog {
namespace core {
namespace {

/** The smallest checkpoint the ROGS writer accepts: 2 workers, 2
 *  units, nothing pending. Check 1 only needs it CRC-clean. */
ServerCheckpoint
smallCheckpoint()
{
    constexpr std::size_t kWorkers = 2;
    constexpr std::size_t kUnits = 2;
    ServerCheckpoint c;
    c.versions.versions.assign(kWorkers,
                               std::vector<std::int64_t>(kUnits, 0));
    c.versions.retired.assign(kWorkers, 0);
    c.server.outbox.assign(kWorkers,
                           std::vector<std::vector<std::int64_t>>(kUnits));
    c.server.has_pending.assign(kWorkers,
                                std::vector<std::uint8_t>(kUnits, 0));
    c.server.last_update.assign(kUnits, 0);
    c.tracker.rate.assign(kWorkers, 0.0);
    c.tracker.seeded.assign(kWorkers, 0);
    c.tracker.mta_bytes.assign(kWorkers, 0.0);
    return c;
}

class ChaosCheckTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg_.workers = 2;
        cfg_.artifact_dir = testing::TempDir() + "rog_chaos_check_" +
                            testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name();
        ::mkdir(cfg_.artifact_dir.c_str(), 0755);

        writeServerCheckpointFile(path("checkpoint.rogs"),
                                  smallCheckpoint());
        std::unique_ptr<Workload> workload = makeNodeWorkload(cfg_);
        std::unique_ptr<nn::Model> model = workload->buildReplica();
        nn::saveModelFile(path("model.rogm"), *model);
        metric_ = std::to_string(workload->evaluate(*model));
        write("server_events.log", "");
        write("des_summary.txt", "done 1\nmetric_name accuracy\nmetric " +
                                     metric_ + "\napplied_pushes 4\n");
    }

    std::string
    path(const std::string &name) const
    {
        return cfg_.artifact_dir + "/" + name;
    }

    void
    write(const std::string &name, const std::string &text) const
    {
        std::ofstream os(path(name), std::ios::trunc);
        os << text;
    }

    ChaosCheckResult
    check(const std::string &run_log, const ChaosCheckOptions &opts)
    {
        write("server_run.log", run_log);
        return checkChaosRun(cfg_, opts);
    }

    static bool
    hasViolation(const ChaosCheckResult &res, const std::string &needle)
    {
        return std::any_of(res.violations.begin(), res.violations.end(),
                           [&](const std::string &v) {
                               return v.find(needle) != std::string::npos;
                           });
    }

    static std::string
    violations(const ChaosCheckResult &res)
    {
        std::string out;
        for (const std::string &v : res.violations)
            out += v + "\n";
        return out;
    }

    NodeRunConfig cfg_;
    std::string metric_; //!< the saved model's metric, as text.
};

/** One incarnation, both workers admitted fresh, applied, finished. */
const char kCleanRun[] =
    "t=0 server_start epoch=1 recovered=0\n"
    "t=0.1 admit w=0 mode=fresh session=1 start=0 inc=0 "
    "model_bytes=512 epoch=1\n"
    "t=0.1 admit w=1 mode=fresh session=2 start=0 inc=0 "
    "model_bytes=512 epoch=1\n"
    "t=0.2 apply w=0 iter=1 unit_list=0,1\n"
    "t=0.25 apply w=1 iter=1 unit_list=0,1\n"
    "t=0.3 pull_answer w=0 iter=1 units=2\n"
    "t=0.4 bye w=0 done_iter=1\n"
    "t=0.4 bye w=1 done_iter=1\n"
    "t=0.4 checkpoint iter=1 applied=4\n"
    "t=0.4 server_done\n";

/** The first incarnation of a server that is killed after iter 1. */
const char kBeforeCrash[] =
    "t=0 server_start epoch=1 recovered=0\n"
    "t=0.1 admit w=0 mode=fresh session=1 start=0 inc=0 "
    "model_bytes=512 epoch=1\n"
    "t=0.1 admit w=1 mode=fresh session=2 start=0 inc=0 "
    "model_bytes=512 epoch=1\n"
    "t=0.2 apply w=0 iter=1 unit_list=0,1\n"
    "t=0.2 checkpoint iter=0 applied=2\n";

/** A recovered second incarnation: w0's iter 1 is under the mark. */
const char kRecovered[] =
    "t=0 server_start epoch=2 recovered=1\n"
    "t=0 recover_w w=0 versions=1,1\n"
    "t=0 recover_w w=1 versions=0,0\n"
    "t=0 checkpoint iter=0 applied=0\n"
    "t=0.3 admit w=0 mode=resume session=3 start=1 inc=0 "
    "model_bytes=0 epoch=2\n"
    "t=0.3 admit w=1 mode=rejoin session=4 start=0 inc=0 "
    "model_bytes=512 epoch=2\n";

const char kRecoveredTail[] =
    "t=0.5 apply w=1 iter=1 unit_list=0,1\n"
    "t=0.6 bye w=0 done_iter=1\n"
    "t=0.6 bye w=1 done_iter=1\n"
    "t=0.6 server_done\n";

ChaosCheckOptions
restartOptions()
{
    ChaosCheckOptions opts;
    opts.server_restarts = 1;
    return opts;
}

TEST_F(ChaosCheckTest, CleanRunPasses)
{
    const ChaosCheckResult res = check(kCleanRun, ChaosCheckOptions{});
    EXPECT_TRUE(res.ok) << violations(res);
    EXPECT_NE(res.report.find("applies: 4 total over 1 server "
                              "incarnation(s), 0 double-applied"),
              std::string::npos)
        << res.report;
    EXPECT_NE(res.report.find("membership: 0 restarted-admits, 0 "
                              "evictions, 2 byes"),
              std::string::npos)
        << res.report;
    EXPECT_NE(res.report.find("transport log: 0 events"),
              std::string::npos)
        << res.report;
}

TEST_F(ChaosCheckTest, DoubleApplyIsAViolation)
{
    // The same triple in two records.
    const std::string log =
        std::string(kCleanRun) + "t=0.5 apply w=1 iter=1 unit_list=1\n";
    const ChaosCheckResult res = check(log, ChaosCheckOptions{});
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(
        hasViolation(res, "gradient applied twice: w=1 iter=1 unit=1"))
        << violations(res);
    EXPECT_NE(res.report.find("1 double-applied"), std::string::npos)
        << res.report;
}

TEST_F(ChaosCheckTest, UnitListedTwiceInOneRecordIsAViolation)
{
    const std::string log = std::string(kCleanRun) +
                            "t=0.5 apply w=1 iter=2 unit_list=1,0,1\n";
    const ChaosCheckResult res = check(log, ChaosCheckOptions{});
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(
        hasViolation(res, "gradient applied twice: w=1 iter=2 unit=1"))
        << violations(res);
    EXPECT_FALSE(hasViolation(res, "unit=0")) << violations(res);
    EXPECT_NE(res.report.find("applies: 7 total over 1 server "
                              "incarnation(s), 1 double-applied"),
              std::string::npos)
        << res.report;
}

TEST_F(ChaosCheckTest, RecoveredRestartPasses)
{
    const std::string log = std::string(kBeforeCrash) + kRecovered +
                            "t=0.4 apply w=0 iter=2 unit_list=0\n" +
                            kRecoveredTail;
    const ChaosCheckResult res = check(log, restartOptions());
    EXPECT_TRUE(res.ok) << violations(res);
    EXPECT_NE(res.report.find("server restarts: 1 observed, final "
                              "epoch 2"),
              std::string::npos)
        << res.report;
}

TEST_F(ChaosCheckTest, ApplyAtOrBelowRecoveredWatermarkIsAViolation)
{
    // The same (w, iter, unit) in a later segment is not a double
    // apply by itself; it is one because the recovered watermark
    // already covers it.
    const std::string log = std::string(kBeforeCrash) + kRecovered +
                            "t=0.4 apply w=0 iter=1 unit_list=1\n" +
                            kRecoveredTail;
    const ChaosCheckResult res = check(log, restartOptions());
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(res, "gradient re-applied after server "
                                  "restart: w=0 iter=1 unit=1 "
                                  "watermark=1"))
        << violations(res);
    EXPECT_FALSE(hasViolation(res, "gradient applied twice"))
        << violations(res);
}

TEST_F(ChaosCheckTest, ApplyRecordIsCheckedAgainstTheWatermarkUnitByUnit)
{
    // w1's restored mark covers unit 1 only: the record's unit 0 is a
    // fresh apply, its unit 1 a re-apply.
    std::string recovered = kRecovered;
    recovered.replace(recovered.find("w=1 versions=0,0"),
                      std::string("w=1 versions=0,0").size(),
                      "w=1 versions=0,1");
    const ChaosCheckResult res =
        check(std::string(kBeforeCrash) + recovered + kRecoveredTail,
              restartOptions());
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(res, "gradient re-applied after server "
                                  "restart: w=1 iter=1 unit=1 "
                                  "watermark=1"))
        << violations(res);
    EXPECT_FALSE(hasViolation(res, "unit=0")) << violations(res);
}

TEST_F(ChaosCheckTest, ServerKillWaitsForAnApplyRecordAndACheckpoint)
{
    write("server_run.log", kBeforeCrash);
    EXPECT_TRUE(serverKillReady(cfg_.artifact_dir, 1));
    EXPECT_FALSE(serverKillReady(cfg_.artifact_dir, 2));

    std::string unsaved = kBeforeCrash;
    unsaved.erase(unsaved.find("t=0.2 checkpoint"));
    write("server_run.log", unsaved);
    EXPECT_FALSE(serverKillReady(cfg_.artifact_dir, 1));
}

TEST_F(ChaosCheckTest, KilledWorkerMustBeEvictedOrReadmitted)
{
    ChaosCheckOptions opts;
    opts.killed_workers = {1};
    const ChaosCheckResult silent = check(kCleanRun, opts);
    EXPECT_FALSE(silent.ok);
    EXPECT_TRUE(hasViolation(
        silent, "killed worker neither evicted nor re-admitted: w=1"))
        << violations(silent);

    const std::string evicted =
        std::string(kCleanRun) + "t=0.5 evict w=1\n";
    EXPECT_TRUE(check(evicted, opts).ok);

    const std::string readmitted =
        std::string(kCleanRun) +
        "t=0.5 admit w=1 mode=resume session=5 start=1 inc=1 "
        "model_bytes=0 epoch=1\n";
    const ChaosCheckResult res = check(readmitted, opts);
    EXPECT_TRUE(res.ok) << violations(res);
    EXPECT_NE(res.report.find("membership: 1 restarted-admits"),
              std::string::npos)
        << res.report;
}

TEST_F(ChaosCheckTest, KilledWorkerThatNeverSaidByeIsAViolation)
{
    std::string log = kCleanRun;
    log.erase(log.find("t=0.4 bye w=1 done_iter=1\n"),
              std::string("t=0.4 bye w=1 done_iter=1\n").size());
    log += "t=0.5 evict w=1\n";
    ChaosCheckOptions opts;
    opts.killed_workers = {1};
    const ChaosCheckResult res = check(log, opts);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(
        hasViolation(res, "killed+restarted worker never finished: w=1"))
        << violations(res);
    EXPECT_TRUE(hasViolation(res, "worker never said bye: w=1"))
        << violations(res);
}

TEST_F(ChaosCheckTest, NonRisingEpochIsAViolation)
{
    std::string recovered = kRecovered;
    recovered.replace(recovered.find("epoch=2 recovered=1"),
                      std::string("epoch=2").size(), "epoch=1");
    const std::string log =
        std::string(kBeforeCrash) + recovered + kRecoveredTail;
    const ChaosCheckResult res = check(log, restartOptions());
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(
        res, "server epoch did not rise across restart: 1 -> 1"))
        << violations(res);
}

TEST_F(ChaosCheckTest, UnrecoveredOrMissingIncarnationIsAViolation)
{
    std::string cold = kRecovered;
    cold.replace(cold.find("recovered=1"),
                 std::string("recovered=1").size(), "recovered=0");
    const ChaosCheckResult res = check(
        std::string(kBeforeCrash) + cold + kRecoveredTail,
        restartOptions());
    EXPECT_TRUE(hasViolation(
        res, "server incarnation 1 did not recover from a checkpoint"))
        << violations(res);

    const ChaosCheckResult missing = check(kCleanRun, restartOptions());
    EXPECT_TRUE(hasViolation(
        missing, "expected 2 server incarnations, log shows 1"))
        << violations(missing);
}

TEST_F(ChaosCheckTest, WorkerFinishingUnderTheWrongEpochIsAViolation)
{
    std::string recovered = kRecovered;
    const std::string w1 = "session=4 start=0 inc=0 model_bytes=512 "
                           "epoch=2";
    recovered.replace(recovered.find(w1), w1.size(),
                      "session=4 start=0 inc=0 model_bytes=512 "
                      "epoch=1");
    const ChaosCheckResult res =
        check(std::string(kBeforeCrash) + recovered + kRecoveredTail,
              restartOptions());
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(
        res, "worker re-admitted under wrong epoch: w=1 epoch=1 "
             "(want 2)"))
        << violations(res);

    // A worker that finishes after the restart with no admission in
    // the new incarnation never crossed the handshake gate.
    std::string unadmitted = kRecovered;
    unadmitted.erase(unadmitted.find("t=0.3 admit w=1"));
    const ChaosCheckResult ghost =
        check(std::string(kBeforeCrash) + unadmitted + kRecoveredTail,
              restartOptions());
    EXPECT_TRUE(hasViolation(ghost, "worker finished after server "
                                    "restart without re-admission: "
                                    "w=1"))
        << violations(ghost);
}

TEST_F(ChaosCheckTest, MissingTwinSummaryIsAViolationWhenRequired)
{
    std::remove(path("des_summary.txt").c_str());
    const ChaosCheckResult res = check(kCleanRun, ChaosCheckOptions{});
    EXPECT_TRUE(
        hasViolation(res, "no DES twin summary to compare against"))
        << violations(res);
    ChaosCheckOptions lax;
    lax.require_twin = false;
    EXPECT_TRUE(check(kCleanRun, lax).ok);
}

TEST_F(ChaosCheckTest, MalformedTwinMetricIsAReportedViolation)
{
    write("des_summary.txt", "done 1\nmetric_name accuracy\nmetric abc\n");
    const ChaosCheckResult res = check(kCleanRun, ChaosCheckOptions{});
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(res, "des_summary.txt")) << violations(res);
}

TEST_F(ChaosCheckTest, TwinSummaryTrailingTokenIsAReportedViolation)
{
    // The value itself matches the model; only the extra token is bad.
    write("des_summary.txt",
          "done 1\nmetric_name accuracy\nmetric " + metric_ + " junk\n");
    const ChaosCheckResult res = check(kCleanRun, ChaosCheckOptions{});
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(res, "des_summary.txt: line 3"))
        << violations(res);
}

TEST_F(ChaosCheckTest, TwinSummaryRepeatedKeyIsAReportedViolation)
{
    // The last value matches the model; the first one must not be
    // silently overwritten.
    write("des_summary.txt", "done 1\nmetric 10\nmetric_name accuracy\n"
                             "metric " + metric_ + "\n");
    const ChaosCheckResult res = check(kCleanRun, ChaosCheckOptions{});
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(res, "des_summary.txt: line 4: repeated "
                                  "key 'metric'"))
        << violations(res);
}

TEST_F(ChaosCheckTest, MalformedRecoveredVersionIsAReportedViolation)
{
    std::string recovered = kRecovered;
    recovered.replace(recovered.find("versions=1,1"),
                      std::string("versions=1,1").size(), "versions=1,x");
    const ChaosCheckResult res =
        check(std::string(kBeforeCrash) + recovered + kRecoveredTail,
              restartOptions());
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(res, "server_run.log")) << violations(res);
}

/** A receiver event log with @p ev written twice after one clean
 *  delivered message, in the server's own line format. */
std::string
eventLogWithRepeat(net::transport::TransportEvent ev)
{
    using Kind = net::transport::TransportEvent::Kind;
    net::transport::TransportEvent ok;
    ok.key = {0, 1, 0, false};
    std::string log;
    for (Kind k : {Kind::Accept, Kind::Deliver}) {
        ok.kind = k;
        log += net::transport::toString(ok) + "\n";
    }
    ev.key = {1, 1, 3, false};
    ev.t = 0.5;
    log += net::transport::toString(ev) + "\n";
    ev.t = 0.75;
    log += net::transport::toString(ev) + "\n";
    return log;
}

TEST_F(ChaosCheckTest, DoubleDeliverInTheTransportLogIsAViolation)
{
    net::transport::TransportEvent deliver;
    deliver.kind = net::transport::TransportEvent::Kind::Deliver;
    write("server_events.log", eventLogWithRepeat(deliver));
    const ChaosCheckResult res = check(kCleanRun, ChaosCheckOptions{});
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(res, "transport delivered a message twice: "
                                  "push worker 1 version 1 row 3"))
        << violations(res);
    EXPECT_NE(res.report.find("transport log: 4 events, 1 exactly-once "
                              "violations"),
              std::string::npos)
        << res.report;
}

TEST_F(ChaosCheckTest, DoubleFreshAcceptInTheTransportLogIsAViolation)
{
    net::transport::TransportEvent accept;
    accept.kind = net::transport::TransportEvent::Kind::Accept;
    accept.chunk_seq = 2;
    write("server_events.log", eventLogWithRepeat(accept));
    const ChaosCheckResult res = check(kCleanRun, ChaosCheckOptions{});
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(res, "transport accepted a chunk twice"))
        << violations(res);
    EXPECT_TRUE(hasViolation(res, "row 3 chunk 2")) << violations(res);
    EXPECT_NE(res.report.find("transport log: 4 events, 1 exactly-once "
                              "violations"),
              std::string::npos)
        << res.report;
}

TEST_F(ChaosCheckTest, PlannedKillMissingFromTheKillsFileNeverFired)
{
    ChaosCheckOptions opts;
    opts.planned_kills = {0, 1};
    write("kills.txt", "0\n");
    const ChaosCheckResult res = check(kCleanRun, opts);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(res, "planned fault never fired: kill w=1 "
                                  "is not in kills.txt"))
        << violations(res);
    EXPECT_FALSE(hasViolation(res, "kill w=0")) << violations(res);
    EXPECT_NE(res.report.find("planned faults: 1 of 2 fired"),
              std::string::npos)
        << res.report;

    write("kills.txt", "0\n1\n");
    EXPECT_TRUE(check(kCleanRun, opts).ok);
}

TEST_F(ChaosCheckTest, PlannedServerKillThatNeverRestartedNeverFired)
{
    ChaosCheckOptions opts;
    opts.server_kill_planned = true;
    const ChaosCheckResult res = check(kCleanRun, opts);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(hasViolation(res, "planned fault never fired: the server "
                                  "was never killed"))
        << violations(res);
}

TEST_F(ChaosCheckTest, PartitionFiresOnlyIfTheVictimRanIntoItsWindow)
{
    // The victim's log ends at t=0.5 of its process clock; its
    // untimed worker_start line says nothing about when it ran.
    write("worker1.log", "worker_start w=1 inc=0 token=0 done_iter=0\n"
                         "t=0.1 hello try=0 inc=0 token=0 done_iter=0\n"
                         "t=0.5 bye done_iter=1\n");
    ChaosCheckOptions opts;
    opts.partition_starts = {{1, 0.5}};
    const ChaosCheckResult open = check(kCleanRun, opts);
    EXPECT_TRUE(open.ok) << violations(open);
    EXPECT_NE(open.report.find("planned faults: 1 of 1 fired"),
              std::string::npos)
        << open.report;

    opts.partition_starts = {{1, 0.6}};
    const ChaosCheckResult late = check(kCleanRun, opts);
    EXPECT_FALSE(late.ok);
    EXPECT_TRUE(hasViolation(late, "planned fault never fired: partition "
                                   "w=1 opens at t=0.600000"))
        << violations(late);

    write("worker1.log", "worker_start w=1 inc=0 token=0 done_iter=0\n");
    opts.partition_starts = {{1, 0.0}};
    EXPECT_FALSE(check(kCleanRun, opts).ok);

    opts.partition_starts = {{2, 0.0}}; // no worker2.log at all.
    EXPECT_FALSE(check(kCleanRun, opts).ok);
}

} // namespace
} // namespace core
} // namespace rog
