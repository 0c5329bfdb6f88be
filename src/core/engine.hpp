/**
 * @file
 * The distributed-training engine: Algo 1 (local worker) + Algo 2
 * (parameter server) + ATP (Algo 3 & 4) over the simulated wireless
 * channel, generalized so one engine runs BSP, SSP, FLOWN, and ROG.
 *
 * Each worker is a simulation process (coroutine): compute gradients
 * (virtual compute time), accumulate per-unit, push by importance
 * order through the channel (with speculative transmission under ATP),
 * pass the RSP staleness gate, pull averaged gradients, and apply
 * them. The server's per-worker handler of Algo 2 runs inline in the
 * worker's process — the simulation shares one address space, so the
 * server is its state (a ShardedServer), not a thread.
 *
 * Transfers are bulk flows on the channel; framing, retries and
 * heartbeat failure detection live in the node roles
 * (core/node_engine), which run the same protocol over a Fabric.
 */
#ifndef ROG_CORE_ENGINE_HPP
#define ROG_CORE_ENGINE_HPP

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/system_config.hpp"
#include "core/testbed_profile.hpp"
#include "core/workload.hpp"
#include "net/bandwidth_trace.hpp"

namespace rog {

namespace fault {
class FaultPlan;
class InvariantChecker;
} // namespace fault

namespace core {

/** Engine knobs independent of the system under test. */
struct EngineConfig
{
    SystemConfig system{};
    TestbedProfile profile{};

    std::size_t iterations = 1000;      //!< per-worker iteration budget.
    double time_horizon_seconds =
        std::numeric_limits<double>::infinity(); //!< wall-clock budget.

    /**
     * Workload-metric evaluation cadence (the per-worker metric
     * checkpoints in RunResult::checkpoints). Historically this one
     * knob also drove server-checkpoint cadence; checkpoint_every
     * separates the two, inheriting this value when left at 0.
     */
    std::size_t eval_every = 50;

    /** Server-checkpoint cadence in iterations; 0 = eval_every. */
    std::size_t checkpoint_every = 0;

    /**
     * Crash-consistent server recovery: when non-empty, the server
     * writes a write-ahead checkpoint of its volatile state (version
     * matrix, gradient outbox, MTA-time estimates) to this path every
     * checkpoint_every iterations — one durable atomic write per
     * shard (writeShardCheckpoints), CRC32C verified on restore. A
     * `server_crash iter=N` fault event then recovers from the newest
     * checkpoint (or genesis state if none was written yet) instead
     * of aborting the run.
     */
    std::string checkpoint_path{};

    /**
     * Parameter-server shard count (fleet-scale layout, ROADMAP
     * item 1). Model rows are partitioned across this many
     * ServerShards, each with its own contiguous outbox/version
     * arenas, MTA bookkeeping, and checkpoint file (named by
     * shardCheckpointPath: shard 0 writes checkpoint_path; shard
     * k > 0 writes checkpoint_path + ".shard<k>"). Clamped to the
     * unit count. Any value yields bit-identical training results to
     * 1 — sharding only changes the storage layout; see DESIGN.md
     * Sec. 17.
     */
    std::size_t server_shards = 1;

    std::string codec = "onebit";       //!< "onebit" | "identity".

    /**
     * Ablation of speculative transmission (Sec. III-A "Technically"):
     * when > 0, instead of one continuous timed transfer, the optional
     * phase inserts a judgement of this many seconds between every two
     * successive units ("is the MTA time reached?") — the approach the
     * paper rejects because the check costs as much as sending a row.
     */
    double per_unit_judgement_seconds = 0.0;

    /**
     * Heterogeneous compute (Sec. VI / Table II): per-worker seconds
     * per training sample. Empty = homogeneous devices charging
     * profile.compute_seconds each. When set (one entry per worker),
     * per-worker batch sizes and compute times come from dynamic
     * batching [49] (or a uniform split if dynamic_batching is off —
     * the heterogeneity ablation), splitting workers() * batchSize()
     * samples per iteration.
     */
    std::vector<double> heterogeneous_seconds_per_sample{};
    bool dynamic_batching = true;

    /**
     * Future-work extension (Sec. VI-C): adapt the staleness threshold
     * automatically from the observed stall fraction instead of fixing
     * it (see core/auto_threshold.hpp). Applies to ATP systems.
     */
    bool auto_threshold = false;

    /**
     * Future-work extension (Sec. VI-D): pipeline communication and
     * computation — the worker computes iteration n+1's gradients
     * while iteration n's pull is still in flight, hiding pull latency
     * at the cost of applying pulled updates one iteration late.
     */
    bool pipeline_pull = false;

    /**
     * Serialize every worker's final replica into
     * RunResult::final_model_bytes (nn/serialize format, workers
     * concatenated in id order). Byte-identity across two runs is the
     * strongest determinism check a test can make; off by default
     * because real models are large.
     */
    bool capture_final_model = false;

    /**
     * Fault injection (src/fault): a deterministic schedule of link
     * blackouts / bandwidth collapses (baked into the link traces),
     * per-transfer truncations and forced timeouts (applied by the
     * channel), and worker churn — silent crashes whose in-flight rows
     * are discarded, detection-delayed retirement from the staleness
     * gate, rejoins that resync to the current model version, and
     * announced graceful leaves. A crash's `detect` delay is the
     * engine's failure detector (an oracle). Corruption-class rules
     * (corrupt / duplicate) need framed messages, which only the node
     * roles' ReliableLink has, so the engine rejects them.
     * Non-owning; must outlive the run.
     */
    const fault::FaultPlan *fault_plan = nullptr;

    /**
     * Optional conservation-invariant observer (src/fault); the engine
     * reports pushes, applies, gate passes, and membership changes to
     * it. Non-owning; must outlive the run.
     */
    fault::InvariantChecker *invariants = nullptr;

    std::uint64_t seed = 2022;          //!< engine-local randomness.
};

/** One worker's per-link bandwidth environment. */
struct NetworkSetup
{
    std::vector<net::BandwidthTrace> link_traces; //!< one per worker.
};

/** Per-(worker, iteration) timing and transmission record. */
struct IterationRecord
{
    std::size_t worker = 0;
    std::size_t iteration = 0;
    double compute_s = 0.0;
    double comm_s = 0.0;
    double stall_s = 0.0;
    double bytes_pushed = 0.0;
    double bytes_pulled = 0.0;
    std::size_t units_pushed = 0;
    std::size_t units_pulled = 0;
    double push_fraction = 0.0;   //!< units pushed / total units.
    std::int64_t staleness_behind = 0; //!< fastest worker iter - mine.
    double end_time_s = 0.0;      //!< virtual time when iter finished.

    /** sum(|grad|) of the units pushed this iteration, measured as a
     *  by-product of the codec's fused transcode sweep (0.0 for codecs
     *  that do not record it — identity, top-k). */
    double pushed_magnitude = 0.0;
};

/** One server crash + recovery, as experienced by the run. */
struct ServerRecoveryRecord
{
    std::int64_t crash_iter = 0;      //!< iteration the crash hit at.
    std::int64_t checkpoint_iter = 0; //!< iteration recovered to.
    bool rolled_back = false; //!< recovery lost post-checkpoint state.
    double time_s = 0.0;      //!< virtual time of the recovery.
};

/** Per-(worker, checkpoint) metric record. */
struct CheckpointRecord
{
    std::size_t worker = 0;
    std::size_t iteration = 0;
    double time_s = 0.0;
    double energy_j = 0.0;   //!< this worker's cumulative joules.
    double metric = 0.0;     //!< workload metric at this point.
};

/** Everything a run produces. */
struct RunResult
{
    std::string system;
    std::size_t workers = 0;
    std::size_t total_units = 0;
    std::size_t server_shards = 0; //!< effective (clamped) shard count.
    std::vector<IterationRecord> iterations;
    std::vector<CheckpointRecord> checkpoints;
    std::vector<std::size_t> worker_iterations; //!< completed each.
    std::vector<double> worker_energy_j;     //!< total per worker.
    std::vector<double> worker_compute_s;
    std::vector<double> worker_comm_s;
    std::vector<double> worker_stall_s;
    double sim_seconds = 0.0;                //!< virtual run length.
    std::size_t completed_iterations = 0;    //!< min over workers.
    double total_bytes = 0.0;                //!< delivered on channel.

    // Server checkpointing / crash recovery.
    std::size_t checkpoints_written = 0;
    std::vector<ServerRecoveryRecord> recoveries;

    // Wire-path buffer pool occupancy over this run (deltas of the
    // process-global BufferPool between run start and end; monotonic
    // counters, so deltas are exact even across back-to-back runs).
    std::size_t pool_leases = 0;      //!< scratch leases served.
    std::size_t pool_reuses = 0;      //!< served without allocating.
    std::size_t pool_allocations = 0; //!< served by a fresh allocation.
    double pool_hit_rate = 0.0;       //!< reuses / leases for this run.
    std::size_t pool_peak_outstanding = 0; //!< high-water live leases.
    std::size_t pool_resident_bytes = 0;   //!< free-list bytes at end.

    /** All replicas serialized in worker order (opt-in, else empty). */
    std::string final_model_bytes;

    /** Mean per-iteration (compute, comm, stall) seconds. */
    void meanTimeComposition(double &compute, double &comm,
                             double &stall) const;

    /** Mean total joules per worker. */
    double meanEnergyJoules() const;
};

/**
 * Run one system on one workload over one network.
 *
 * @pre network.link_traces.size() == workload.workers()
 */
RunResult runDistributedTraining(Workload &workload,
                                 const EngineConfig &config,
                                 const NetworkSetup &network);

/**
 * Wire size of one full compressed model transmission for a workload's
 * replica at the given granularity and codec (used for bandwidth
 * calibration and the granularity ablation).
 */
double modelWireBytes(Workload &workload, Granularity granularity,
                      const std::string &codec_name);

} // namespace core
} // namespace rog

#endif // ROG_CORE_ENGINE_HPP
