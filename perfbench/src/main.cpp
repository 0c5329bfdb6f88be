/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--scratch DIR] [--source ID]
 *
 * Runs one workload for S seconds and prints, as the last line of
 * stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. Every
 * run reports every metric of its kind; a per-layer metric of a layer
 * the workload does not run reads 0. A stamp line before it records
 * what the numbers depend on (cores, threads, kernel tiers, build).
 */
#include <unistd.h>

#include <exception>
#include <iostream>
#include <string>

#include "common/crc32c.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

// Must match BENCHMARK.json, in order.
constexpr MetricSpec kEndToEnd[] = {
    {"train_iters_per_s", "1/s"}, {"push_apply_p50_us", "us"},
    {"push_apply_p99_us", "us"},  {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"tensor.matmul_us", "us"},
    {"tensor.matmul_2t_speedup", "x"},
    {"nn.forward_s", "s"},
    {"nn.backward_s", "s"},
    {"nn.layer_calls", "count"},
    {"core.eval_s", "s"},
    {"core.eval_calls", "count"},
    {"core.engine_other_s", "s"},
    {"compress.transcode_ns_per_row", "ns"},
    {"compress.wire_bytes_per_iter", "B"},
    {"sim.sim_s_per_wall_s", "s/s"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_iter", "count"},
    {"sim.event_core_ns_per_op", "ns"},
    {"core.shard_apply_ns_per_row", "ns"},
    {"parallel.fork_join_us", "us"},
    {"core.fleet_coordinator_share_est", "share"},
    {"common.pool_hit_rate", "share"},
    {"common.crc32c_ns_per_kib", "ns"},
    {"net.send_us", "us"},
    {"net.sends", "count"},
    {"net.payload_bytes", "B"},
    {"net.poll_wait_share", "share"},
    {"net.send_fail_ratio", "share"},
    {"net.hello_welcome_us", "us"},
    {"net.hello_welcome_count", "count"},
    {"net.push_apply_p999_us", "us"},
    {"core.server_handler_us", "us"},
    {"core.worker_handler_us", "us"},
    {"core.server_checkpoint_us", "us"},
    {"trace.attributed_share", "share"},
    {"trace.overhead", "share"},
};

struct WorkloadSpec
{
    const char *name;
    std::size_t threads; //!< ROG_THREADS the workload is pinned to.
    void (*run)(const Options &, Report &, Values &);
};

// The DES preset slows down with more threads (2.2k iters/s at 1, less
// at 2 and 4), so it is pinned to 1; the fleet to the 2 its sweep uses.
constexpr WorkloadSpec kWorkloads[] = {
    {"des_cruda_rog", 1, runDesCrudaRog},
    {"fleet_1024", 2, runFleet1024},
    {"socket_udp", 1, runSocketUdp},
};

int
usage()
{
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR] [--source ID]\n";
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (char c : s)
        if (c == '"' || c == '\\')
            (o += '\\') += c;
        else if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    return o + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string source = "unknown";
    int trace = -1;
    bool have_seed = false;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            const std::string val = argv[i + 1];
            if (key == "--workload")
                opt.workload = val;
            else if (key == "--seed")
                opt.seed = std::stoull(val), have_seed = true;
            else if (key == "--seconds")
                opt.seconds = std::stod(val);
            else if (key == "--trace")
                trace = std::stoi(val);
            else if (key == "--scratch")
                opt.scratch_dir = val;
            else if (key == "--source")
                source = val;
            else
                return usage();
        }
    } catch (const std::exception &) {
        return usage();
    }
    if (argc % 2 == 0 || !have_seed || (trace != 0 && trace != 1) ||
        !(opt.seconds > 0.0))
        return usage();
    opt.trace = trace == 1;

    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads)
        if (opt.workload == w.name)
            spec = &w;
    if (spec == nullptr) {
        std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
        return usage();
    }
    if (opt.scratch_dir.empty())
        opt.scratch_dir = ".";

    rog::parallel::ThreadPool::setThreads(spec->threads);
    std::cout << "perfbench-stamp {\"workload\": " << jsonString(spec->name)
              << ", \"seed\": " << opt.seed
              << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
              << ", \"rog_threads\": "
              << rog::parallel::ThreadPool::resolveThreads()
              << ", \"matmul_tier\": "
              << jsonString(rog::tensor::matmulActiveTier())
              << ", \"crc32c_tier\": "
              << jsonString(rog::crc32cActiveTier())
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"source\": " << jsonString(source) << "}\n";

    Report report;
    Values values;
    try {
        spec->run(opt, report, values);
    } catch (const std::exception &e) {
        report.check(false, std::string("workload threw: ") + e.what());
    }

    if (opt.trace) {
        for (const MetricSpec &m : kPerLayer) {
            const auto it = values.find(m.name);
            report.add(m.name, it == values.end() ? 0.0 : it->second,
                       m.unit);
        }
    } else {
        for (const MetricSpec &m : kEndToEnd) {
            const auto it = values.find(m.name);
            if (it == values.end())
                report.check(false, std::string("no value for ") + m.name);
            report.add(m.name, it == values.end() ? 0.0 : it->second,
                       m.unit);
        }
    }
    std::cout << report.json() << std::endl;
    return 0;
}
