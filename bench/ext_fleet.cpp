/**
 * @file
 * Extension — fleet-scale sweep (ISSUE 10 capstone): the parallel
 * fleet DES from core/fleet.hpp swept over 16 / 64 / 256 / 1024
 * workers on the airtime-fair channel, emitting BENCH_fleet.json for
 * scripts/check_bench_regress.py.
 *
 * Per fleet size the bench reports:
 *  - events/s and wall-s per simulated-s of the full simulation;
 *  - an event-core churn microbenchmark (schedule / cancel / step
 *    with fleet-sized closures) isolating the queue itself, where the
 *    acceptance gate lives: at the largest sweep size the heap core
 *    must clear >= 3x the std::map baseline's ops/s;
 *  - the final accuracy gap of ROG (RSP threshold 4 + ATP partial
 *    pushes) versus BSP lockstep at equal iteration counts, peak RSS,
 *    and the BufferPool hit rate of the transfer-staging leases.
 *
 * ROG_BENCH_FAST=1 shrinks the sweep to 16/64 workers for the
 * bench_fleet_smoke ctest entry (the >= 3x gate is only enforced on
 * the full sweep).
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
    double pool_hit_rate = -1.0;
    std::size_t peak_rss_bytes = 0;
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
        if (r.pool_hit_rate >= 0.0)
            os << ", \"pool_hit_rate\": " << r.pool_hit_rate;
        if (r.peak_rss_bytes != 0)
            os << ", \"peak_rss_bytes\": " << r.peak_rss_bytes;
        os << "}" << (i + 1 < recs.size() ? "," : "") << "\n";
    }
    os << "]\n";
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
        sweep = {{16, 32}, {64, 16}, {256, 8}, {1024, 4}};

    const std::size_t threads = parallel::ThreadPool::resolveThreads();
    std::vector<Record> recs;
    Table t("Fleet sweep (ROG threshold 4 + ATP vs BSP lockstep)",
            {"workers", "events", "heap_ev/s", "sim_s/wall_s",
             "acc_gap_rog-bsp", "core_ratio", "pool_hit", "rss_mb"});

    double largest_core_ratio = 0.0;
    std::size_t largest_workers = 0;

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

        auto t0 = Clock::now();
        const core::FleetResult heap = core::runFleetSimulation(cfg);
        const double heap_wall = wallSeconds(t0);
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
        largest_core_ratio = core_ratio;
        largest_workers = sw.workers;

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
        heap_rec.pool_hit_rate = heap.pool_hit_rate;
        heap_rec.peak_rss_bytes = rss;
        recs.push_back(heap_rec);

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
                  Table::num(gap, 4), Table::num(core_ratio, 2),
                  Table::num(heap.pool_hit_rate, 3),
                  Table::num(static_cast<double>(rss) / (1u << 20),
                             1)});
    }

    t.printText(std::cout);
    writeJson(out_path, recs);
    std::cout << ">> wrote " << out_path << " (" << recs.size()
              << " records)\n";
    std::cout << ">> event core at " << largest_workers
              << " workers: heap " << Table::num(largest_core_ratio, 2)
              << "x over std::map baseline\n";

    if (!fast && largest_core_ratio < 3.0) {
        std::cerr << "FAIL: heap event core only "
                  << largest_core_ratio
                  << "x over std::map at largest sweep size "
                     "(acceptance gate requires >= 3x)\n";
        return 1;
    }
    return 0;
}
