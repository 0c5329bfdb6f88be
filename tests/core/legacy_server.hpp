/**
 * @file
 * Test oracles: the original, unsharded parameter server — one nested
 * vector per (worker, unit) outbox cell and version cell, written for
 * clarity rather than speed.
 *
 *  - VersionStorage: the version matrix. The server (one ServerShard,
 *    or the fleet's routed shards) must match it exactly.
 *  - EagerFixedServer: the fixed-point outbox of
 *    core/server_shard.hpp done eagerly, one int64 copy per (worker,
 *    unit) that every push is added into. The server's running sums
 *    and snapshots must be bit-identical to it;
 *    sharded_server_test drives both with the same operation trace and
 *    compares every observable value.
 *  - ServerState: the float outbox the fixed-point one replaced. The
 *    fixed-point server must stay within its stated error bound of it.
 *
 * Only the operations the tests compare are kept. Production code
 * never links this.
 */
#ifndef ROG_TESTS_CORE_LEGACY_SERVER_HPP
#define ROG_TESTS_CORE_LEGACY_SERVER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/row_partition.hpp"
#include "core/server_shard.hpp"

namespace rog {
namespace core {
namespace legacy {

/** The per-(worker, unit) version matrix of Algo 2. */
class VersionStorage
{
  public:
    VersionStorage(std::size_t workers, std::size_t units);

    std::int64_t get(std::size_t worker, std::size_t unit) const;
    /** @pre iter >= the cell's current version. */
    void update(std::size_t worker, std::size_t unit, std::int64_t iter);
    bool retired(std::size_t worker) const;
    void retireWorker(std::size_t worker);
    /** Un-retire; every version of @p worker jumps to @p iter. */
    void rejoinWorker(std::size_t worker, std::int64_t iter);
    std::int64_t maxVersionOfWorker(std::size_t worker) const;
    /** min over active workers of maxVersionOfWorker; 0 if none. */
    std::int64_t minWorkerIteration() const;

  private:
    std::vector<std::vector<std::int64_t>> versions_;
    std::vector<bool> retired_;
};

/** One float gradient outbox per worker, nested [worker][unit][j]. */
class ServerState
{
  public:
    ServerState(std::size_t workers, const RowPartition &partition);

    /** Add decoded / workers into every worker's copy of @p unit. */
    void accumulate(std::size_t unit, std::span<const float> decoded);
    std::span<float> pending(std::size_t worker, std::size_t unit);
    void clearPending(std::size_t worker, std::size_t unit);

  private:
    std::vector<std::vector<std::vector<float>>> outbox_;
    double inv_workers_;
};

/** One int64 fixed-point outbox per worker, nested [worker][unit][j]. */
class EagerFixedServer
{
  public:
    EagerFixedServer(std::size_t workers, const RowPartition &partition);

    /** Add quantise(decoded[j]) into every worker's copy of @p unit. */
    void accumulate(std::size_t unit, std::span<const float> decoded);
    std::vector<std::int64_t> pending(std::size_t worker,
                                      std::size_t unit) const;
    /** Dequantise the copy into @p out, then zero it. */
    void takePending(std::size_t worker, std::size_t unit,
                     std::span<float> out);
    bool hasPending(std::size_t worker, std::size_t unit) const;
    void clearPending(std::size_t worker, std::size_t unit);
    void clearWorker(std::size_t worker);
    double pendingMeanAbs(std::size_t worker, std::size_t unit) const;
    std::int64_t lastUpdate(std::size_t unit) const;
    void noteUpdate(std::size_t unit, std::int64_t iter);
    ServerStateSnapshot snapshot() const;

  private:
    std::vector<std::vector<std::vector<std::int64_t>>> outbox_;
    std::vector<std::vector<bool>> has_pending_;
    std::vector<std::int64_t> last_update_;
    double scale_;
};

} // namespace legacy
} // namespace core
} // namespace rog

#endif // ROG_TESTS_CORE_LEGACY_SERVER_HPP
