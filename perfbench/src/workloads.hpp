/**
 * @file
 * The benchmark workloads. Each runs its fixed-size repetition ("rep")
 * until the run's seconds are spent, checks every rep's outputs, and
 * fills end-to-end values (untraced run) or per-layer values (traced
 * run) by the names listed in main.cpp.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "nn/model.hpp"
#include "report.hpp"

namespace perfbench {

/** stats::runSystem on the paper CRUDA preset (ROG, threshold 20). */
void runDesCrudaRog(const Options &opt, Report &report, Values &out);

/** core::runFleetSimulation with 1024 workers over 8 shards. */
void runFleet1024(const Options &opt, Report &report, Values &out);

/** ServerNode + WorkerNodes over loopback-UDP SocketFabrics. */
void runSocketUdp(const Options &opt, Report &report, Values &out);

/**
 * Direct calls into layers that have no seam, at the shapes a workload
 * uses ("replays"). Each returns its per-layer metric.
 */
namespace replay {

/** Microseconds for the forward + backward GEMMs of one CRUDA
 *  minibatch (matmul / TransA / TransB per Linear layer, batch 20). */
double matmulUs();

/** The same GEMMs on a 2-thread pool over a 1-thread pool: time(1) /
 *  time(2); below 1 means the second thread slows them down. */
double matmul2tSpeedup();

/** Nanoseconds per row of a one-bit transcode over every parameter
 *  row of @p model. */
double transcodeNsPerRow(rog::nn::Model &model);

/** Nanoseconds per queue operation of the fleet coordinator's
 *  schedule / cancel / step mix at a pending depth of @p depth. */
double eventCoreNsPerOp(std::size_t depth);

/** Nanoseconds per row of ShardedServer apply (accumulate + version
 *  + last-update) for the fleet_1024 server shape. */
double shardApplyNsPerRow();

/** Microseconds per ThreadPool::run over 8 shard tasks, 2 threads. */
double forkJoinUs();

/** Nanoseconds per KiB of crc32c at the transport chunk size. */
double crc32cNsPerKib();

} // namespace replay

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
