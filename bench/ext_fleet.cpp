/**
 * @file
 * Extension — fleet-scale sweep: the parallel fleet DES from
 * core/fleet.hpp swept over 16 / 64 / 256 / 1024 / 4096 workers on the
 * airtime-fair channel, emitting BENCH_fleet.json for
 * scripts/check_bench_regress.py.
 *
 * Per fleet size the bench reports:
 *  - events/s and wall-s per simulated-s of the full simulation on the
 *    ROG_THREADS pool, and ns per event on a one-thread pool (best of
 *    three runs each; the runs are deterministic, only the wall
 *    varies);
 *  - an event-core churn microbenchmark (schedule / cancel / step
 *    with fleet-sized closures) isolating the queue itself;
 *  - the final accuracy gap of ROG (RSP threshold 4 + ATP partial
 *    pushes) versus BSP lockstep at equal iteration counts, peak RSS,
 *    and how often the lanes ran their queued ops (lane_flushes: once
 *    per round of pushes, plus checkpoints and the end) and how many
 *    ops those flushes ran (lane_ops).
 *
 * Thread scaling, measured: at 1024 and 4096 workers (64 in fast mode)
 * the bench also runs perfbench's fleet_1024 shape (8 iterations per
 * worker, seed 1) on 1-, 2- and 4-thread pools and prints the median
 * worker-iterations per wall second of five runs per pool; the size's
 * BM_FleetSim record carries them as "worker_iters_per_s". The digest
 * must match across the pools, or the run fails.
 *
 * Two acceptance gates fail the run (exit 1) on the full sweep:
 *  - at 1024 workers the heap event core must clear >= 3x the
 *    std::map baseline's ops/s;
 *  - at 1024 workers the full simulation must cost at most 2x the
 *    16-worker ns per event on the one-thread pool: the server's push,
 *    pull and the channel are O(width) and O(log active) per event,
 *    not O(workers). The gate reads the one-thread records because on
 *    a pool the per-event cost also carries the fork/join of each lane
 *    drain and lane state migrating between cores, which swings with
 *    the host's scheduling far more than the one-thread cost does.
 *
 * ROG_BENCH_FAST=1 shrinks the sweep to 16/64 workers for the
 * bench_fleet_smoke ctest entry (the gates are only enforced on the
 * full sweep).
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/fleet.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/event_queue.hpp"
#include "oracles/event_queue_ref.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double
wallSeconds(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t
peakRssBytes()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::size_t>(ru.ru_maxrss) * 1024; // KiB on Linux
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/**
 * Event-core churn: the coordinator's queue-op mix at fleet scale,
 * with no simulation work attached — measures the queue alone.
 *
 * The mix mirrors what the airtime-fair channel does to the queue:
 * every transfer change cancels and reschedules the pending channel
 * event, so cancels run at ~5/8 of the schedule rate, against handles
 * that are sometimes already fired (the stale-handle rejection path);
 * closures carry fleet-sized 48-byte captures (a this pointer plus
 * ids, byte counts, and times), which SmallFn stores inline and
 * std::function must heap-allocate; and the pending set is held at
 * @p cap ~ 4x the worker count, the coordinator's depth plus
 * in-flight shard ops. Returns total queue ops per wall second.
 *
 * @pre cap is a power of two.
 */
template <class Q>
double
eventCoreChurn(std::size_t iters, std::size_t cap,
               std::uint64_t &ops_out)
{
    Q q;
    std::vector<typename Q::id_type> ring(cap);
    const std::size_t mask = cap - 1;
    std::uint64_t sink = 0;
    std::uint64_t h = 0x1F2E3D4C5B6A7988ull;
    std::uint64_t ops = 0;

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
        h = splitmix64(h);
        const double t =
            q.now() + 1e-9 + static_cast<double>(h >> 44) * 1e-8;
        const std::uint64_t a = h;
        const std::uint64_t b = i;
        const std::uint64_t c = h ^ i;
        const std::uint64_t d = h + i;
        const std::uint64_t e = h - i;
        std::uint64_t *p = &sink;
        ring[i & mask] = q.schedule(
            t, [p, a, b, c, d, e] { *p += a ^ b ^ c ^ d ^ e; });
        ++ops;
        if ((h & 7u) < 5u) {
            q.cancel(ring[(h >> 8) & mask]);
            ++ops;
        }
        while (q.size() > cap) {
            q.step();
            ++ops;
        }
    }
    while (q.step())
        ++ops;
    const double wall = wallSeconds(t0);

    if (sink == 0xDEADBEEF) // defeat dead-code elimination
        std::cerr << "";
    ops_out = ops;
    return static_cast<double>(ops) / wall;
}

/** One BENCH_fleet.json record (check_bench_regress.py schema: the
 *  gate reads (op, size, threads, ns_per_op); extra keys ride along
 *  for humans and plots). */
struct Record
{
    std::string op;
    std::size_t size = 0;
    std::size_t threads = 0;
    double ns_per_op = 0.0;
    double items_per_s = 0.0;
    double sim_s_per_wall_s = -1.0;
    std::string label;
    double accuracy_gap = std::nan("");
    std::size_t peak_rss_bytes = 0;
    std::uint64_t lane_flushes = 0;
    std::uint64_t lane_ops = 0;
    /** (pool threads, median worker-iterations/s), when measured. */
    std::vector<std::pair<std::size_t, double>> scaling;
};

void
writeJson(const std::string &path, const std::vector<Record> &recs)
{
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const Record &r = recs[i];
        os << " {\"op\": \"" << r.op << "\", \"size\": " << r.size
           << ", \"threads\": " << r.threads
           << ", \"ns_per_op\": " << r.ns_per_op
           << ", \"items_per_s\": " << r.items_per_s;
        if (r.sim_s_per_wall_s >= 0.0)
            os << ", \"sim_s_per_wall_s\": " << r.sim_s_per_wall_s;
        if (!r.label.empty())
            os << ", \"label\": \"" << r.label << "\"";
        if (!std::isnan(r.accuracy_gap))
            os << ", \"accuracy_gap\": " << r.accuracy_gap;
        if (r.peak_rss_bytes != 0)
            os << ", \"peak_rss_bytes\": " << r.peak_rss_bytes;
        if (r.lane_flushes != 0)
            os << ", \"lane_flushes\": " << r.lane_flushes
               << ", \"lane_ops\": " << r.lane_ops;
        for (std::size_t k = 0; k < r.scaling.size(); ++k)
            os << (k == 0 ? ", \"worker_iters_per_s\": {" : ", ") << "\""
               << r.scaling[k].first << "\": " << r.scaling[k].second
               << (k + 1 == r.scaling.size() ? "}" : "");
        os << "}" << (i + 1 < recs.size() ? "," : "") << "\n";
    }
    os << "]\n";
}

/** Best-of-three wall seconds of the full simulation on @p pool; the
 *  first run's result (its pool hit rate is the cold one) in @p out. */
double
bestSimWall(const rog::core::FleetConfig &cfg,
            rog::parallel::ThreadPool &pool, rog::core::FleetResult &out)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        const rog::core::FleetResult r =
            rog::core::runFleetSimulation(cfg, pool);
        const double wall = wallSeconds(t0);
        if (rep == 0)
            out = r;
        best = rep == 0 ? wall : std::min(best, wall);
    }
    return best;
}

/** Median worker-iterations per wall second over @p reps runs of
 *  @p cfg on @p pool; the run's digest in @p digest. */
double
medianIterRate(const rog::core::FleetConfig &cfg,
               rog::parallel::ThreadPool &pool, int reps,
               std::uint32_t &digest)
{
    std::vector<double> rates;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = Clock::now();
        const rog::core::FleetResult r =
            rog::core::runFleetSimulation(cfg, pool);
        rates.push_back(static_cast<double>(r.iterations_completed) /
                        wallSeconds(t0));
        digest = r.state_digest;
    }
    std::sort(rates.begin(), rates.end());
    return rates[rates.size() / 2];
}

/** The scaling table's row for @p cfg's fleet size, run at perfbench's
 *  fleet_1024 shape (8 iterations, seed 1) on 1-, 2- and 4-thread
 *  pools; the rates go into @p rec. Clears @p digests_match if the
 *  pools' digests differ. */
std::vector<std::string>
measureScaling(rog::core::FleetConfig cfg, Record &rec, bool &digests_match)
{
    constexpr std::size_t kThreads[] = {1, 2, 4};
    cfg.iterations = 8;
    cfg.seed = 1;
    std::vector<std::string> row{std::to_string(cfg.workers)};
    std::uint32_t first = 0;
    for (std::size_t threads : kThreads) {
        rog::parallel::ThreadPool pool(threads);
        std::uint32_t digest = 0;
        rec.scaling.emplace_back(threads,
                                 medianIterRate(cfg, pool, 5, digest));
        row.push_back(rog::Table::num(rec.scaling.back().second, 0));
        if (threads == kThreads[0])
            first = digest;
        digests_match &= digest == first;
    }
    row.push_back(rog::Table::num(rec.scaling.back().second /
                                      rec.scaling.front().second,
                                  2) +
                  "x");
    std::ostringstream hex;
    hex << "0x" << std::hex << first;
    row.push_back(hex.str());
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rog;

    std::string out_path = "BENCH_fleet.json";
    std::size_t shards = 8;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else if (arg == "--shards" && i + 1 < argc)
            shards = static_cast<std::size_t>(std::stoul(argv[++i]));
        else {
            std::cerr << "usage: ext_fleet [--out PATH] [--shards N]\n";
            return 2;
        }
    }

    const bool fast = bench::fastMode();
    bench::banner("Extension: fleet-scale sweep (parallel DES, "
                  "sharded server, heap event core)");

    struct Sweep
    {
        std::size_t workers;
        std::size_t iterations;
    };
    std::vector<Sweep> sweep;
    if (fast)
        sweep = {{16, 4}, {64, 2}};
    else
        sweep = {{16, 32}, {64, 16}, {256, 8}, {1024, 4}, {4096, 2}};

    const std::size_t threads = parallel::ThreadPool::resolveThreads();
    parallel::ThreadPool serial(1);
    std::vector<Record> recs;
    Table t("Fleet sweep (ROG threshold 4 + ATP vs BSP lockstep)",
            {"workers", "events", "heap_ev/s", "sim_s/wall_s",
             "ns/ev_1thr", "acc_gap_rog-bsp", "core_ratio", "rss_mb",
             "flushes", "ops/flush"});

    Table scaling("Thread scaling (64x8 rows, 8 iterations, seed 1; "
                  "median worker-iterations/s of 5 runs)",
                  {"workers", "1 thr", "2 thr", "4 thr", "4 vs 1",
                   "digest"});
    const std::vector<std::size_t> scaling_sizes =
        fast ? std::vector<std::size_t>{64}
             : std::vector<std::size_t>{1024, 4096};
    bool scaling_digests_match = true;

    double core_ratio_1024 = 0.0;
    double sim_ns_16 = 0.0;
    double sim_ns_1024 = 0.0;

    for (const Sweep &sw : sweep) {
        core::FleetConfig cfg;
        cfg.workers = sw.workers;
        cfg.rows = 64;
        cfg.row_width = 8;
        cfg.shards = shards;
        cfg.iterations = sw.iterations;
        cfg.staleness_threshold = 4;
        cfg.atp = true;
        cfg.seed = 7;

        core::FleetResult heap;
        const double heap_wall =
            bestSimWall(cfg, parallel::ThreadPool::global(), heap);
        core::FleetResult serial_run;
        const double serial_ns =
            bestSimWall(cfg, serial, serial_run) * 1e9 /
            static_cast<double>(serial_run.events_processed);
        const double heap_evs =
            static_cast<double>(heap.events_processed) / heap_wall;

        core::FleetConfig bsp_cfg = cfg;
        bsp_cfg.staleness_threshold = 1;
        bsp_cfg.atp = false;
        const core::FleetResult bsp =
            core::runFleetSimulation(bsp_cfg);
        const double gap = heap.final_metric - bsp.final_metric;

        const std::size_t churn_iters =
            sw.workers * (fast ? 100 : 500);
        const std::size_t churn_cap = sw.workers * 4;
        std::uint64_t core_ops = 0;
        double core_heap = 0.0;
        double core_map = 0.0;
        // Best-of-3: single-shot wall timings on a busy host swing
        // by ~10%, and the regression gate keys off these records.
        for (int rep = 0; rep < 3; ++rep) {
            core_heap = std::max(
                core_heap, eventCoreChurn<sim::EventQueue>(
                               churn_iters, churn_cap, core_ops));
            core_map = std::max(
                core_map, eventCoreChurn<sim::MapEventQueue>(
                              churn_iters, churn_cap, core_ops));
        }
        const double core_ratio = core_heap / core_map;

        const std::size_t rss = peakRssBytes();

        Record heap_rec;
        heap_rec.op = "BM_FleetSim";
        heap_rec.size = sw.workers;
        heap_rec.threads = threads;
        heap_rec.ns_per_op =
            heap_wall * 1e9 /
            static_cast<double>(heap.events_processed);
        heap_rec.items_per_s = heap_evs;
        heap_rec.sim_s_per_wall_s = heap.sim_seconds / heap_wall;
        heap_rec.label = "heap";
        heap_rec.accuracy_gap = gap;
        heap_rec.peak_rss_bytes = rss;
        heap_rec.lane_flushes = heap.lane_flushes;
        heap_rec.lane_ops = heap.lane_ops;
        if (std::find(scaling_sizes.begin(), scaling_sizes.end(),
                      sw.workers) != scaling_sizes.end())
            scaling.addRow(
                measureScaling(cfg, heap_rec, scaling_digests_match));
        recs.push_back(heap_rec);

        Record serial_rec;
        serial_rec.op = "BM_FleetSim";
        serial_rec.size = sw.workers;
        serial_rec.threads = 1;
        serial_rec.ns_per_op = serial_ns;
        serial_rec.items_per_s = 1e9 / serial_ns;
        serial_rec.label = "heap";
        recs.push_back(serial_rec);
        if (sw.workers == 16)
            sim_ns_16 = serial_ns;
        if (sw.workers == 1024) {
            sim_ns_1024 = serial_ns;
            core_ratio_1024 = core_ratio;
        }

        Record core_rec;
        core_rec.op = "BM_FleetEventCore";
        core_rec.size = sw.workers;
        core_rec.threads = 1;
        core_rec.ns_per_op = 1e9 / core_heap;
        core_rec.items_per_s = core_heap;
        core_rec.label = "heap";
        recs.push_back(core_rec);

        Record core_map_rec;
        core_map_rec.op = "BM_FleetEventCoreMap";
        core_map_rec.size = sw.workers;
        core_map_rec.threads = 1;
        core_map_rec.ns_per_op = 1e9 / core_map;
        core_map_rec.items_per_s = core_map;
        core_map_rec.label = "map";
        recs.push_back(core_map_rec);

        t.addRow({std::to_string(sw.workers),
                  std::to_string(heap.events_processed),
                  Table::num(heap_evs, 0),
                  Table::num(heap.sim_seconds / heap_wall, 2),
                  Table::num(serial_ns, 1), Table::num(gap, 4),
                  Table::num(core_ratio, 2),
                  Table::num(static_cast<double>(rss) / (1u << 20), 1),
                  std::to_string(heap.lane_flushes),
                  Table::num(static_cast<double>(heap.lane_ops) /
                                 static_cast<double>(heap.lane_flushes),
                             1)});
    }

    t.printText(std::cout);
    scaling.printText(std::cout);
    writeJson(out_path, recs);
    std::cout << ">> wrote " << out_path << " (" << recs.size()
              << " records)\n";
    if (!scaling_digests_match) {
        std::cerr << "FAIL: the fleet digest differs across thread "
                     "pools\n";
        return 1;
    }
    if (fast)
        return 0;
    std::cout << ">> event core at 1024 workers: heap "
              << Table::num(core_ratio_1024, 2)
              << "x over std::map baseline\n";
    std::cout << ">> full simulation, one thread: "
              << Table::num(sim_ns_1024, 1)
              << " ns/event at 1024 workers, "
              << Table::num(sim_ns_16, 1) << " at 16 ("
              << Table::num(sim_ns_1024 / sim_ns_16, 2) << "x)\n";
    int status = 0;
    if (core_ratio_1024 < 3.0) {
        std::cerr << "FAIL: heap event core only " << core_ratio_1024
                  << "x over std::map at 1024 workers "
                     "(acceptance gate requires >= 3x)\n";
        status = 1;
    }
    if (sim_ns_1024 > 2.0 * sim_ns_16) {
        std::cerr << "FAIL: full simulation costs " << sim_ns_1024
                  << " ns/event at 1024 workers on one thread, more "
                     "than 2x the "
                  << sim_ns_16
                  << " at 16 (acceptance gate requires <= 2x)\n";
        status = 1;
    }
    return status;
}
