/**
 * @file
 * Test-local router: the fleet's way of driving a ShardedServer,
 * presented with ServerShard's global-unit interface so one test body
 * can run on a single ServerShard and on a multi-shard split.
 *
 * It does what src/core/fleet.cpp does and nothing more: a per-unit
 * operation goes to shard(shardOf(u)) at localOf(u); a worker-scoped
 * operation (retire, rejoin, MTA report, clearWorker) is sent to every
 * shard, so the per-shard membership views and trackers stay replicas.
 * The version-matrix reductions take the max over shards of each
 * shard's per-worker max. Production code never links this.
 */
#ifndef ROG_TESTS_CORE_SHARD_ROUTER_HPP
#define ROG_TESTS_CORE_SHARD_ROUTER_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/row_partition.hpp"
#include "core/server_shard.hpp"

namespace rog {
namespace core {
namespace test {

class ShardRouter
{
  public:
    ShardRouter(std::size_t workers,
                const std::vector<std::size_t> &unit_widths,
                std::size_t shards)
        : server_(workers, unit_widths, shards), workers_(workers),
          units_(unit_widths.size())
    {
    }

    ShardRouter(std::size_t workers, const RowPartition &partition,
                std::size_t shards)
        : ShardRouter(workers, widthsOf(partition), shards)
    {
    }

    std::size_t workers() const { return workers_; }
    std::size_t units() const { return units_; }
    std::size_t shardCount() const { return server_.shardCount(); }
    const ServerShard &shard(std::size_t s) const
    {
        return server_.shard(s);
    }

    // ---- per-unit: the owning shard, at the local index ----
    void accumulate(std::size_t u, std::span<const float> decoded)
    {
        owner(u).accumulate(server_.localOf(u), decoded);
    }
    void takePending(std::size_t w, std::size_t u, std::span<float> out)
    {
        owner(u).takePending(w, server_.localOf(u), out);
    }
    std::vector<std::int64_t> pending(std::size_t w, std::size_t u) const
    {
        return owner(u).pending(w, server_.localOf(u));
    }
    bool hasPending(std::size_t w, std::size_t u) const
    {
        return owner(u).hasPending(w, server_.localOf(u));
    }
    void clearPending(std::size_t w, std::size_t u)
    {
        owner(u).clearPending(w, server_.localOf(u));
    }
    double pendingMeanAbs(std::size_t w, std::size_t u) const
    {
        return owner(u).pendingMeanAbs(w, server_.localOf(u));
    }
    std::int64_t lastUpdate(std::size_t u) const
    {
        return owner(u).lastUpdate(server_.localOf(u));
    }
    void noteUpdate(std::size_t u, std::int64_t iter)
    {
        owner(u).noteUpdate(server_.localOf(u), iter);
    }
    std::int64_t version(std::size_t w, std::size_t u) const
    {
        return owner(u).version(w, server_.localOf(u));
    }
    void updateVersion(std::size_t w, std::size_t u, std::int64_t iter)
    {
        owner(u).updateVersion(w, server_.localOf(u), iter);
    }

    // ---- per-worker: every shard ----
    void clearWorker(std::size_t w)
    {
        forEachShard([&](ServerShard &s) { s.clearWorker(w); });
    }
    void retireWorker(std::size_t w)
    {
        forEachShard([&](ServerShard &s) { s.retireWorker(w); });
    }
    void rejoinWorker(std::size_t w, std::int64_t iter)
    {
        forEachShard([&](ServerShard &s) { s.rejoinWorker(w, iter); });
    }
    void report(std::size_t w, double bytes, double seconds,
                double mta_bytes)
    {
        forEachShard(
            [&](ServerShard &s) { s.report(w, bytes, seconds, mta_bytes); });
    }

    // ---- reads of replicated or reduced state ----
    bool retired(std::size_t w) const { return server_.shard(0).retired(w); }
    double mtaTime() const { return server_.shard(0).mtaTime(); }
    double estimateFor(std::size_t w) const
    {
        return server_.shard(0).estimateFor(w);
    }
    std::int64_t maxVersionOfWorker(std::size_t w) const
    {
        std::int64_t m = std::numeric_limits<std::int64_t>::min();
        for (std::size_t s = 0; s < server_.shardCount(); ++s)
            m = std::max(m, server_.shard(s).maxVersionOfWorker(w));
        return m;
    }
    std::int64_t minWorkerIteration() const
    {
        bool any = false;
        std::int64_t m = 0;
        for (std::size_t w = 0; w < workers_; ++w) {
            if (retired(w))
                continue;
            const std::int64_t it = maxVersionOfWorker(w);
            if (!any || it < m)
                m = it;
            any = true;
        }
        return m;
    }

  private:
    static std::vector<std::size_t>
    widthsOf(const RowPartition &partition)
    {
        std::vector<std::size_t> widths;
        for (const Unit &u : partition.units())
            widths.push_back(u.width);
        return widths;
    }

    ServerShard &owner(std::size_t u)
    {
        return server_.shard(server_.shardOf(u));
    }
    const ServerShard &owner(std::size_t u) const
    {
        return server_.shard(server_.shardOf(u));
    }

    template <typename Fn>
    void forEachShard(Fn fn)
    {
        for (std::size_t s = 0; s < server_.shardCount(); ++s)
            fn(server_.shard(s));
    }

    ShardedServer server_;
    std::size_t workers_;
    std::size_t units_;
};

} // namespace test
} // namespace core
} // namespace rog

#endif // ROG_TESTS_CORE_SHARD_ROUTER_HPP
