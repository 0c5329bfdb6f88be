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
 *  - The N per-worker copies are not stored. Each shard keeps one
 *    running sum S[unit][width] of every pushed product, and per
 *    (worker, unit) the value of S at that worker's last take. A
 *    worker's copy is S minus its snapshot. A push is one O(width)
 *    add into S, whatever the worker count; a take reads and resets
 *    one worker's snapshot, also O(width). hasPending() compares a
 *    per-unit push counter with the counter seen at the last take.
 *  - Snapshots are worker-major, `[worker][unit][width]`, so a
 *    worker's pull of consecutive rows reads one contiguous run. The
 *    version matrix and the take counters are worker-major too.
 *  - MTA throughput reports are replicated into every shard's tracker:
 *    the EWMA streams are identical, so every shard derives the same
 *    tMTA a single global tracker would — while remaining
 *    self-contained for checkpointing and for the parallel fleet DES,
 *    where each shard is driven by its own event queue.
 *
 * Fixed-point contract (DESIGN.md Sec. 17). A float or double S would
 * not subtract exactly and grows without bound over a run, so S and
 * the snapshots are wrap-around 64-bit integers in units of 2^-F,
 * F = fixed::kFracBits:
 *
 *  - A push quantises each product p = decoded[j] / workers once:
 *    q = round-half-even(decoded[j] * (2^F / workers)), the product
 *    and the rounding done in double. Non-finite and out-of-range
 *    products never abort (the float server did not either): NaN
 *    quantises to 0 and drops out; +-inf and finite products beyond
 *    the range clamp to +-fixed::kMaxQuantum = +-2^50 units
 *    (+-2^(50-F) = +-1024 in value).
 *  - Pending is S - snapshot, exact modulo 2^64. It equals the exact
 *    sum of the quantised products for any run length, as long as the
 *    true pending magnitude stays below 2^63 units (2^23 in value); S
 *    itself may wrap any number of times.
 *  - A take converts the integer once to float: int64 -> double
 *    (correctly rounded) -> times 2^-F (exact) -> float (correctly
 *    rounded).
 *
 * Error bound against exact summation: for k pushes of in-range
 * products p_i since the last take, the float a take returns is within
 *     k * 2^-F  +  2^-24 * (1 + 2^-28) * |sum(p_i)|
 * of sum(p_i). Each quantisation errs by at most 3/4 unit (half a unit
 * of rounding, plus under a quarter unit from rounding the product in
 * double, as |q| <= 2^50), the integer sum is exact, and the second
 * term is the final conversion's half-ulp. Unlike a float accumulator
 * the bound does not grow with the magnitude of the terms, only with
 * their count, and the result does not depend on the order of the
 * pushes: integer addition is associative, so it is bitwise the same
 * for any push order, shard count or ISA tier. The choice of F and
 * the measurement behind it are in DESIGN.md Sec. 17.
 * sharded_server_test checks the bound against the float nested-vector
 * oracle (tests/core/legacy_server.*) and every observable value
 * bitwise against a per-worker eager int64 oracle.
 */
#ifndef ROG_CORE_SERVER_SHARD_HPP
#define ROG_CORE_SERVER_SHARD_HPP

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/logging.hpp"
#include "core/mta.hpp"
#include "core/row_partition.hpp"

namespace rog {
namespace core {

/** The server's fixed-point number format (see the file comment). */
namespace fixed {

/** Fraction bits F: one stored unit is 2^-F. */
inline constexpr int kFracBits = 40;

/** Largest |quantised product|, in units. Below 2^51 the magic-number
 *  rounding in quantise() is exact. */
inline constexpr std::int64_t kMaxQuantum = std::int64_t{1} << 50;

/** decoded -> units multiplier of a @p workers-worker server. */
inline double
scaleFor(std::size_t workers)
{
    return static_cast<double>(std::int64_t{1} << kFracBits) /
           static_cast<double>(workers);
}

/**
 * round-half-even(decoded * scale) as an integer; NaN gives 0 and
 * anything beyond +-kMaxQuantum clamps to it. The range checks run on
 * the bit pattern (a non-negative double orders like its bits), which
 * vectorises where double compares would not. Adding 1.5 * 2^52 then
 * puts the value in the binade where a double's ulp is 1, so the add
 * itself rounds, and the integer is the difference of the bit
 * patterns. Pure IEEE double and integer operations: the same bits on
 * every target.
 */
inline std::int64_t
quantise(float decoded, double scale)
{
    constexpr std::int64_t kInfBits = 0x7FF0000000000000;
    constexpr auto kLimitBits =
        std::bit_cast<std::int64_t>(static_cast<double>(kMaxQuantum));
    constexpr double kMagic = 0x1.8p52;
    const auto bits =
        std::bit_cast<std::int64_t>(static_cast<double>(decoded) * scale);
    const std::int64_t sign = bits & std::numeric_limits<std::int64_t>::min();
    std::int64_t mag = bits & std::numeric_limits<std::int64_t>::max();
    mag = mag > kInfBits ? 0 : mag; // NaN.
    mag = mag > kLimitBits ? kLimitBits : mag;
    const double x = std::bit_cast<double>(mag | sign);
    return std::bit_cast<std::int64_t>(x + kMagic) -
           std::bit_cast<std::int64_t>(kMagic);
}

/**
 * @p q units as a float: int64 -> double correctly rounded (the high
 * and low 32-bit halves are placed in double mantissas by bit pattern,
 * and one add rounds their sum), times 2^-F exactly, then rounded to
 * float.
 */
inline float
dequantise(std::int64_t q)
{
    constexpr double kHiBias = 0x1p84 + 0x1p63 + 0x1p52;
    const auto u = static_cast<std::uint64_t>(q);
    const double hi = std::bit_cast<double>(
        ((u >> 32) ^ 0x80000000ull) | 0x4530000000000000ull);
    const double lo = std::bit_cast<double>(
        (u & 0xFFFFFFFFull) | 0x4330000000000000ull);
    return static_cast<float>(((hi - kHiBias) + lo) *
                              (1.0 / static_cast<double>(
                                         std::int64_t{1} << kFracBits)));
}

} // namespace fixed

/** Plain-data copy of a shard's version matrix + retirement flags
 *  (checkpointing). */
struct VersionSnapshot
{
    std::vector<std::vector<std::int64_t>> versions; //!< [worker][unit].
    std::vector<std::uint8_t> retired;
};

/** Plain-data copy of a shard's gradient outbox (checkpointing): each
 *  worker's exact pending row, in fixed-point units. */
struct ServerStateSnapshot
{
    /** [w][u][j]: S - snapshot, in units of 2^-F. */
    std::vector<std::vector<std::vector<std::int64_t>>> outbox;
    std::vector<std::vector<std::uint8_t>> has_pending; //!< [w][u].
    std::vector<std::int64_t> last_update;              //!< per unit.
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
    /** Add decoded / workers into every worker's copy of @p unit:
     *  O(width), one add into the running sum. */
    void accumulate(std::size_t unit, std::span<const float> decoded);
    /** Write @p worker's copy of @p unit into @p out as floats and
     *  clear it. @pre out.size() is the unit's width. */
    void takePending(std::size_t worker, std::size_t unit,
                     std::span<float> out);
    /** @p worker's copy of @p unit, exact, in fixed-point units. */
    std::vector<std::int64_t> pending(std::size_t worker,
                                      std::size_t unit) const;
    bool hasPending(std::size_t worker, std::size_t unit) const;
    void clearPending(std::size_t worker, std::size_t unit);
    void clearWorker(std::size_t worker);
    /** Mean |pending| of the copy: the integer sum of |units|, scaled
     *  once. */
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
     * validated, and a pending row without its flag rejected, before
     * the first write, so a rejected snapshot (throws) leaves the
     * shard untouched.
     */
    void restore(const VersionSnapshot &versions,
                 const ServerStateSnapshot &server,
                 const MtaTrackerSnapshot &tracker);

  private:
    /** Worker-major (worker, unit) index into versions_ and taken_. */
    std::size_t cell(std::size_t worker, std::size_t unit) const
    {
        return worker * unit_widths_.size() + unit;
    }

    /** First element of @p worker's snapshot of @p unit in snaps_. */
    std::size_t offset(std::size_t worker, std::size_t unit) const
    {
        return worker * row_elems_ + unit_offsets_[unit];
    }

    std::size_t workers_;
    double scale_; //!< fixed::scaleFor(workers_).
    std::vector<std::size_t> unit_widths_;
    std::vector<std::size_t> unit_offsets_; //!< unit start in sums_.
    std::size_t row_elems_ = 0;             //!< sum of unit widths.

    std::vector<std::uint64_t> sums_;   //!< S: [unit][width], wraps.
    std::vector<std::uint64_t> snaps_;  //!< [worker][unit][width].
    std::vector<std::uint64_t> pushes_; //!< per unit.
    std::vector<std::uint64_t> taken_;  //!< [worker][unit]: pushes_ seen.
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
    void takePending(std::size_t worker, std::size_t unit,
                     std::span<float> out);
    std::vector<std::int64_t> pending(std::size_t worker,
                                      std::size_t unit) const;
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
