/**
 * @file
 * Fleet-scale parallel DES (ROADMAP item 1): a purpose-built
 * discrete-event engine that sweeps 16 -> 1024 workers over the
 * sharded parameter server, with the server work partitioned by shard
 * and shard phases executed on the thread pool — deterministically.
 *
 * Why a second engine: the coroutine engine in engine.cpp simulates a
 * handful of robots with full model/codec/transport fidelity; its
 * per-worker coroutine frames and globally ordered single queue are
 * exactly what does NOT scale to a 1024-robot fleet. This engine
 * trades model fidelity (a synthetic convex workload with hash-derived
 * gradient noise) for scale: contiguous worker state, the
 * allocation-free heap event core, per-shard op lanes drained on the
 * thread pool, and a coordinator that drains them only on demand.
 *
 * Determinism (DESIGN.md Sec. 17): one sequential COORDINATOR owns the
 * workers' state machines and the airtime-fair fluid channel; the
 * parameter server is split into S shards, each owning a FIFO lane of
 * plain op records and its ServerShard state. When a transfer
 * completes, the coordinator appends ops (apply, MTA report, deliver,
 * retire; deterministic content) to the affected lanes. It drains
 * them (parallelFor over shards, grain 1, each lane running its ops in
 * enqueue order against shard-local state and the disjoint model rows
 * it owns) only before it reads lane-owned state: a worker's replica
 * after a deliver for it, a checkpoint, the end of the run. Pull sizes
 * come from a coordinator-side pending-row ledger. Per-shard results
 * (event counts, digests) combine in ascending shard order, the same
 * ordered pairwise combine the tensor reductions use. No shard reads
 * another shard's state, each lane's op order is fixed, and the
 * combine order is fixed, so the result is bitwise identical for
 * every ROG_THREADS and every flush placement (verified by
 * fleet_determinism_test across pools of 1/2/4/8 and with extra
 * checkpoint flushes).
 */
#ifndef ROG_CORE_FLEET_HPP
#define ROG_CORE_FLEET_HPP

#include <cstddef>
#include <cstdint>
#include <string>

#include "parallel/thread_pool.hpp"

namespace rog {
namespace core {

/** Synthetic fleet simulation parameters. */
struct FleetConfig
{
    std::size_t workers = 16;
    std::size_t rows = 96;       //!< model rows (= sync units).
    std::size_t row_width = 24;  //!< floats per row.
    std::size_t shards = 4;      //!< server shards / queue partitions.
    std::size_t iterations = 30; //!< per worker.

    /** RSP staleness threshold; 1 == BSP lockstep. */
    std::size_t staleness_threshold = 4;
    /** ATP on: MTA partial pushes sized by the tracker's tMTA;
     *  off: every push ships all rows (the BSP/SSP baseline). */
    bool atp = true;

    float learning_rate = 0.05f;
    float gradient_noise = 0.1f; //!< hash-noise amplitude.

    double compute_seconds = 0.05; //!< mean per-iteration compute.
    double compute_jitter = 0.5;   //!< +- fraction, hashed per (w, n).
    double header_bytes = 16.0;    //!< per-transfer framing bytes.
    double mean_bandwidth = 2e6;   //!< bytes/s per robot link.
    double bandwidth_spread = 0.5; //!< +- fraction, hashed per worker.

    std::uint64_t seed = 1;

    /** When non-empty, every shard writes a ROGS checkpoint file under
     *  this directory each checkpoint_every completed iterations of
     *  worker 0. */
    std::string checkpoint_dir{};
    std::size_t checkpoint_every = 0;
};

/** Outcome + determinism fingerprint of one fleet run. */
struct FleetResult
{
    std::size_t workers = 0;
    std::size_t shards = 0; //!< effective (clamped) count.
    double sim_seconds = 0.0;
    double total_bytes = 0.0;

    /** Events stepped: coordinator + all shard queues. */
    std::uint64_t events_processed = 0;
    std::uint64_t iterations_completed = 0;

    /** Mean squared distance to the optimum over all replicas. */
    double final_metric = 0.0;

    /**
     * CRC32C over every replica's final parameters plus the
     * coordinator and per-shard event logs — the bitwise-determinism
     * fingerprint compared across thread counts and queue types.
     */
    std::uint32_t state_digest = 0;

    std::size_t checkpoint_files_written = 0;

    /** Lane drains (fork/joins) and ops run by them; counted, not
     *  timed, and outside the digest. */
    std::uint64_t lane_flushes = 0;
    std::uint64_t lane_ops = 0;

    // BufferPool::global() deltas over the run (transfer staging).
    std::size_t pool_leases = 0;
    std::size_t pool_reuses = 0;
    std::size_t pool_allocations = 0;
    double pool_hit_rate = 0.0;
};

/**
 * Run the fleet simulation on @p pool (shard phases use it via
 * parallelFor; pass pools of different sizes to check determinism
 * in-process).
 */
FleetResult runFleetSimulation(const FleetConfig &cfg,
                               parallel::ThreadPool &pool);

/** Same, on the global ROG_THREADS pool. */
FleetResult runFleetSimulation(const FleetConfig &cfg);

} // namespace core
} // namespace rog

#endif // ROG_CORE_FLEET_HPP
