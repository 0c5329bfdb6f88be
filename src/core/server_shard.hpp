/**
 * @file
 * The parameter server (Fig. 5, right side): gradient outboxes, the
 * RSP version matrix and the shared MTA-time tracker, row-partitioned
 * across shards.
 *
 * The server keeps *one gradient copy per worker* (Sec. III-B): when
 * worker r pushes row i at iteration n, g'_i / num is accumulated into
 * every worker's copy; when the server later sends row i to worker s,
 * only s's copy of row i is zeroed. Together with worker-side
 * accumulation this guarantees every computed gradient is eventually
 * applied to every replica exactly once (gradient conservation). The
 * version matrix V = {v_i^r} of Algo 2 records, per (worker, unit),
 * the latest iteration whose gradient reached the server; RSP's gate
 * compares a worker's iteration against the slowest active worker's
 * last pushed one.
 *
 * Every server in the repository is a ShardedServer: the in-process
 * engine, the fleet DES (one shard per event lane) and the ServerNode
 * role (one shard, so it writes a single ROGS file):
 *
 *  - Model rows (synchronization units) are partitioned across shards
 *    in contiguous ranges; `unit -> (shard, local unit)` is two O(1)
 *    table lookups.
 *  - Each shard stores its outbox as ONE flat float arena, pending
 *    flags and version cells as flat arrays, and owns its own
 *    MtaTimeTracker bookkeeping, membership (retired) view, and ROGS
 *    checkpoint payload. At 1024 workers this replaces hundreds of
 *    thousands of per-(worker, unit) heap allocations.
 *  - The outbox and the pending flags are unit-major: every worker's
 *    copy of one unit sits side by side, `[unit][worker][width]`.
 *    accumulate(), which adds one pushed row into every worker's copy,
 *    is then one contiguous sweep of workers * width floats instead of
 *    one short write per worker block. Pulls and clears touch one
 *    worker's slice of a unit, which is contiguous in either layout.
 *    The version matrix stays worker-major: it is read per worker
 *    (maxVersionOfWorker, snapshots) and is off the hot path.
 *  - MTA throughput reports are replicated into every shard's tracker:
 *    the EWMA streams are identical, so every shard derives the same
 *    tMTA a single global tracker would — while remaining
 *    self-contained for checkpointing and for the parallel fleet DES,
 *    where each shard is driven by its own event queue.
 *
 * Numerical contract: for any shard count, a sharded run is
 * row-for-row bit-identical to the single-shard run. Accumulation
 * order within a unit never crosses a shard boundary (units are
 * atomic), every outbox element gets `dst += scale * decoded[j]` with
 * the product rounded to float (rog_core is built with
 * -ffp-contract=off, so no target fuses it into an FMA), and
 * version/tracker arithmetic is integer or replicated. The
 * sharded_server_test verifies this by differential runs against the
 * original nested-vector server, kept as a test oracle.
 */
#ifndef ROG_CORE_SERVER_SHARD_HPP
#define ROG_CORE_SERVER_SHARD_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.hpp"
#include "core/mta.hpp"
#include "core/row_partition.hpp"

namespace rog {
namespace core {

/** Plain-data copy of a shard's version matrix + retirement flags
 *  (checkpointing). */
struct VersionSnapshot
{
    std::vector<std::vector<std::int64_t>> versions; //!< [worker][unit].
    std::vector<std::uint8_t> retired;
};

/** Plain-data copy of a shard's gradient outbox (checkpointing). */
struct ServerStateSnapshot
{
    std::vector<std::vector<std::vector<float>>> outbox; //!< [w][u][j].
    std::vector<std::vector<std::uint8_t>> has_pending;  //!< [w][u].
    std::vector<std::int64_t> last_update;               //!< per unit.
};

/**
 * One shard: contiguous-arena server state for a contiguous range of
 * synchronization units. Unit indices here are SHARD-LOCAL; the
 * ShardedServer facade owns the global->local mapping.
 */
class ServerShard
{
  public:
    /**
     * @param workers    global worker count (gradient scaling uses
     *                   1/workers regardless of sharding).
     * @param unit_widths widths of this shard's units, in shard order.
     */
    ServerShard(std::size_t workers,
                std::vector<std::size_t> unit_widths);

    std::size_t workers() const { return workers_; }
    std::size_t units() const { return unit_widths_.size(); }

    // ---- gradient outbox ----
    /** Add decoded / workers into every worker's copy of @p unit. */
    void accumulate(std::size_t unit, std::span<const float> decoded);
    std::span<float> pending(std::size_t worker, std::size_t unit);
    bool hasPending(std::size_t worker, std::size_t unit) const;
    void clearPending(std::size_t worker, std::size_t unit);
    void clearWorker(std::size_t worker);
    double pendingMeanAbs(std::size_t worker, std::size_t unit) const;
    std::int64_t lastUpdate(std::size_t unit) const;
    void noteUpdate(std::size_t unit, std::int64_t iter);

    // ---- version matrix ----
    std::int64_t version(std::size_t worker, std::size_t unit) const;
    void updateVersion(std::size_t worker, std::size_t unit,
                       std::int64_t iter);
    bool retired(std::size_t worker) const;
    void retireWorker(std::size_t worker);
    void rejoinWorker(std::size_t worker, std::int64_t iter);
    std::int64_t maxVersionOfWorker(std::size_t worker) const;

    // ---- MTA bookkeeping (replicated tracker) ----
    void report(std::size_t worker, double bytes_transmitted,
                double elapsed_seconds, double mta_bytes);
    double mtaTime() const { return tracker_.mtaTime(); }
    double estimateFor(std::size_t worker) const
    {
        return tracker_.estimateFor(worker);
    }

    // ---- checkpointing (shard-local shapes, ROGS-compatible) ----
    VersionSnapshot versionSnapshot() const;
    ServerStateSnapshot serverSnapshot() const;
    MtaTrackerSnapshot trackerSnapshot() const
    {
        return tracker_.snapshot();
    }
    /**
     * Overwrite from snapshots of this shard's shape. Every shape is
     * validated before the first write, so a rejected snapshot
     * (throws) leaves the shard untouched.
     */
    void restore(const VersionSnapshot &versions,
                 const ServerStateSnapshot &server,
                 const MtaTrackerSnapshot &tracker);

  private:
    /** Worker-major index into versions_. */
    std::size_t cell(std::size_t worker, std::size_t unit) const
    {
        return worker * unit_widths_.size() + unit;
    }

    /** Unit-major index into has_pending_. */
    std::size_t flag(std::size_t worker, std::size_t unit) const
    {
        return unit * workers_ + worker;
    }

    /** First float of @p worker's copy of @p unit in outbox_. */
    std::size_t offset(std::size_t worker, std::size_t unit) const
    {
        return unit_offsets_[unit] + worker * unit_widths_[unit];
    }

    std::size_t workers_;
    std::vector<std::size_t> unit_widths_;
    std::vector<std::size_t> unit_offsets_; //!< unit block in outbox_.

    std::vector<float> outbox_;             //!< [unit][worker][width].
    std::vector<std::uint8_t> has_pending_; //!< [unit][worker].
    std::vector<std::int64_t> last_update_; //!< per unit.
    std::vector<std::int64_t> versions_;    //!< [worker][unit].
    std::vector<std::uint8_t> retired_;     //!< per worker.
    MtaTimeTracker tracker_;
};

/**
 * Facade presenting N shards as one server. Global unit indices are
 * routed with two flat lookups; worker-scoped operations (retire,
 * rejoin, clearWorker, MTA reports) broadcast to every shard so the
 * per-shard membership views and trackers stay replicas of each other.
 */
class ShardedServer
{
  public:
    /**
     * @param workers   worker count.
     * @param partition global row partition (unit widths).
     * @param shards    requested shard count; clamped to
     *                  [1, unitCount()].
     */
    ShardedServer(std::size_t workers, const RowPartition &partition,
                  std::size_t shards);

    /** Same, from raw unit widths (synthetic fleet workloads). */
    ShardedServer(std::size_t workers,
                  const std::vector<std::size_t> &unit_widths,
                  std::size_t shards);

    std::size_t shardCount() const { return shards_.size(); }
    std::size_t workers() const { return shards_[0].workers(); }
    std::size_t units() const { return unit_shard_.size(); }
    std::size_t shardOf(std::size_t unit) const
    {
        return unit_shard_[unit];
    }
    ServerShard &shard(std::size_t s) { return shards_[s]; }
    const ServerShard &shard(std::size_t s) const { return shards_[s]; }

    // ---- gradient outbox ----
    void accumulate(std::size_t unit, std::span<const float> decoded);
    std::span<float> pending(std::size_t worker, std::size_t unit);
    bool hasPending(std::size_t worker, std::size_t unit) const;
    void clearPending(std::size_t worker, std::size_t unit);
    void clearWorker(std::size_t worker);
    double pendingMeanAbs(std::size_t worker, std::size_t unit) const;
    std::int64_t lastUpdate(std::size_t unit) const;
    void noteUpdate(std::size_t unit, std::int64_t iter);

    // ---- version matrix ----
    std::int64_t version(std::size_t worker, std::size_t unit) const;
    void updateVersion(std::size_t worker, std::size_t unit,
                       std::int64_t iter);
    bool retired(std::size_t worker) const
    {
        return shards_[0].retired(worker);
    }
    /** Exclude a departed worker from minWorkerIteration(), so it
     *  cannot stall the remaining ones. */
    void retireWorker(std::size_t worker);
    /**
     * Re-admit a retired worker that resynced to the model at
     * iteration @p iter: its versions jump to @p iter so the gate
     * treats it as caught up, not eternally stale.
     * @pre iter >= every version the worker pushed before.
     */
    void rejoinWorker(std::size_t worker, std::int64_t iter);
    /** Max over every shard's units — the worker's last pushed iter. */
    std::int64_t maxVersionOfWorker(std::size_t worker) const;
    /**
     * min over active workers of their last pushed iteration — the
     * reference of RSP's staleness gate: how far the slowest worker's
     * training state lags. 0 once every worker has retired.
     */
    std::int64_t minWorkerIteration() const;

    // ---- MTA ----
    /** Replicated into every shard's tracker (identical EWMAs). */
    void report(std::size_t worker, double bytes_transmitted,
                double elapsed_seconds, double mta_bytes);
    double mtaTime() const { return shards_[0].mtaTime(); }
    double estimateFor(std::size_t worker) const
    {
        return shards_[0].estimateFor(worker);
    }

  private:
    /** The shard holding global @p unit. */
    ServerShard &owner(std::size_t unit)
    {
        ROG_ASSERT(unit < unit_shard_.size(), "unit out of range");
        return shards_[unit_shard_[unit]];
    }
    const ServerShard &owner(std::size_t unit) const
    {
        ROG_ASSERT(unit < unit_shard_.size(), "unit out of range");
        return shards_[unit_shard_[unit]];
    }

    void init(std::size_t workers,
              const std::vector<std::size_t> &unit_widths,
              std::size_t shards);

    std::vector<ServerShard> shards_;
    std::vector<std::uint32_t> unit_shard_;
    std::vector<std::uint32_t> unit_local_;
};

} // namespace core
} // namespace rog

#endif // ROG_CORE_SERVER_SHARD_HPP
