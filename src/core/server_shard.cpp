#include "core/server_shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hpp"

namespace rog {
namespace core {

namespace {

/** accumulate() adds into the outbox in fixed blocks of this many
 *  floats. */
constexpr std::size_t kBlock = 64;

} // namespace

ServerShard::ServerShard(std::size_t workers,
                         std::vector<std::size_t> unit_widths)
    : workers_(workers), unit_widths_(std::move(unit_widths)),
      tracker_(workers)
{
    ROG_ASSERT(workers_ > 0, "shard needs at least one worker");
    ROG_ASSERT(!unit_widths_.empty(), "shard needs at least one unit");
    std::size_t floats = 0;
    unit_offsets_.reserve(unit_widths_.size());
    for (std::size_t w : unit_widths_) {
        unit_offsets_.push_back(floats);
        floats += workers_ * w;
    }
    outbox_.assign(floats, 0.0f);
    has_pending_.assign(unit_widths_.size() * workers_, 0);
    last_update_.assign(unit_widths_.size(), 0);
    versions_.assign(workers_ * unit_widths_.size(), 0);
    retired_.assign(workers_, 0);
}

void
ServerShard::accumulate(std::size_t unit, std::span<const float> decoded)
{
    ROG_ASSERT(unit < unit_widths_.size(), "unit out of range");
    ROG_ASSERT(decoded.size() == unit_widths_[unit],
               "decoded width mismatch");
    // Every element gets dst += scale * decoded[j] with the product
    // rounded to float first (rog_core is built with -ffp-contract=off),
    // so the result is bit-identical to a per-worker nested-vector
    // server. Only the addresses and the order across elements differ.
    const auto scale =
        static_cast<float>(1.0 / static_cast<double>(workers_));
    const std::size_t width = decoded.size();
    float *dst = outbox_.data() + offset(0, unit);
    std::fill_n(has_pending_.begin() +
                    static_cast<std::ptrdiff_t>(flag(0, unit)),
                workers_, std::uint8_t{1});
    if (width == 0 || width > kBlock) {
        for (std::size_t w = 0; w < workers_; ++w, dst += width)
            for (std::size_t j = 0; j < width; ++j)
                dst[j] += scale * decoded[j];
        return;
    }
    // All workers' copies of the unit are one run of workers * width
    // floats, swept in fixed blocks of kBlock. The products repeat with
    // period width, so the block starting at flat index i reads them
    // from phase i % width of a window of kBlock + width. On the
    // fleet_1024 shape this ran about 1.3-1.4x faster end to end than a
    // per-worker row loop over the same run (EXPERIMENTS.md).
    float products[2 * kBlock];
    for (std::size_t j = 0; j < width; ++j)
        products[j] = scale * decoded[j];
    for (std::size_t k = width; k < kBlock + width; ++k)
        products[k] = products[k - width];
    const std::size_t total = workers_ * width;
    const std::size_t step = kBlock % width;
    std::size_t phase = 0;
    std::size_t i = 0;
    for (; i + kBlock <= total; i += kBlock) {
        const float *src = products + phase;
        for (std::size_t j = 0; j < kBlock; ++j)
            dst[i + j] += src[j];
        phase += step;
        if (phase >= width)
            phase -= width;
    }
    for (std::size_t j = 0; i + j < total; ++j)
        dst[i + j] += products[phase + j];
}

std::span<float>
ServerShard::pending(std::size_t worker, std::size_t unit)
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "pending index out of range");
    return {outbox_.data() + offset(worker, unit), unit_widths_[unit]};
}

bool
ServerShard::hasPending(std::size_t worker, std::size_t unit) const
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "pending index out of range");
    return has_pending_[flag(worker, unit)] != 0;
}

void
ServerShard::clearPending(std::size_t worker, std::size_t unit)
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "pending index out of range");
    float *dst = outbox_.data() + offset(worker, unit);
    std::fill(dst, dst + unit_widths_[unit], 0.0f);
    has_pending_[flag(worker, unit)] = 0;
}

void
ServerShard::clearWorker(std::size_t worker)
{
    ROG_ASSERT(worker < workers_, "worker out of range");
    for (std::size_t u = 0; u < unit_widths_.size(); ++u)
        clearPending(worker, u);
}

double
ServerShard::pendingMeanAbs(std::size_t worker, std::size_t unit) const
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "pending index out of range");
    const std::size_t width = unit_widths_[unit];
    if (width == 0)
        return 0.0;
    const float *buf = outbox_.data() + offset(worker, unit);
    double s = 0.0;
    for (std::size_t j = 0; j < width; ++j)
        s += std::fabs(buf[j]);
    return s / static_cast<double>(width);
}

std::int64_t
ServerShard::lastUpdate(std::size_t unit) const
{
    ROG_ASSERT(unit < last_update_.size(), "unit out of range");
    return last_update_[unit];
}

void
ServerShard::noteUpdate(std::size_t unit, std::int64_t iter)
{
    ROG_ASSERT(unit < last_update_.size(), "unit out of range");
    last_update_[unit] = std::max(last_update_[unit], iter);
}

std::int64_t
ServerShard::version(std::size_t worker, std::size_t unit) const
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "version index out of range");
    return versions_[cell(worker, unit)];
}

void
ServerShard::updateVersion(std::size_t worker, std::size_t unit,
                           std::int64_t iter)
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "version index out of range");
    ROG_ASSERT(iter >= versions_[cell(worker, unit)],
               "versions must be monotone");
    versions_[cell(worker, unit)] = iter;
}

bool
ServerShard::retired(std::size_t worker) const
{
    ROG_ASSERT(worker < workers_, "worker out of range");
    return retired_[worker] != 0;
}

void
ServerShard::retireWorker(std::size_t worker)
{
    ROG_ASSERT(worker < workers_, "worker out of range");
    retired_[worker] = 1;
}

void
ServerShard::rejoinWorker(std::size_t worker, std::int64_t iter)
{
    ROG_ASSERT(worker < workers_, "worker out of range");
    for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
        ROG_ASSERT(iter >= versions_[cell(worker, u)],
                   "rejoin would move a version backwards");
        versions_[cell(worker, u)] = iter;
    }
    retired_[worker] = 0;
}

std::int64_t
ServerShard::maxVersionOfWorker(std::size_t worker) const
{
    ROG_ASSERT(worker < workers_, "worker out of range");
    std::int64_t m = std::numeric_limits<std::int64_t>::min();
    for (std::size_t u = 0; u < unit_widths_.size(); ++u)
        m = std::max(m, versions_[cell(worker, u)]);
    return m;
}

void
ServerShard::report(std::size_t worker, double bytes_transmitted,
                    double elapsed_seconds, double mta_bytes)
{
    tracker_.report(worker, bytes_transmitted, elapsed_seconds,
                    mta_bytes);
}

VersionSnapshot
ServerShard::versionSnapshot() const
{
    VersionSnapshot s;
    s.versions.resize(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
        s.versions[w].assign(
            versions_.begin() +
                static_cast<std::ptrdiff_t>(w * unit_widths_.size()),
            versions_.begin() + static_cast<std::ptrdiff_t>(
                                    (w + 1) * unit_widths_.size()));
    }
    s.retired.assign(retired_.begin(), retired_.end());
    return s;
}

ServerStateSnapshot
ServerShard::serverSnapshot() const
{
    // The snapshot keeps the legacy per-worker shape, so ROGS bytes do
    // not depend on the arena layout.
    ServerStateSnapshot s;
    s.outbox.resize(workers_);
    s.has_pending.resize(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
        s.outbox[w].resize(unit_widths_.size());
        s.has_pending[w].resize(unit_widths_.size());
        for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
            const float *src = outbox_.data() + offset(w, u);
            s.outbox[w][u].assign(src, src + unit_widths_[u]);
            s.has_pending[w][u] = has_pending_[flag(w, u)];
        }
    }
    s.last_update = last_update_;
    return s;
}

void
ServerShard::restore(const VersionSnapshot &versions,
                     const ServerStateSnapshot &server,
                     const MtaTrackerSnapshot &tracker)
{
    if (versions.versions.size() != workers_ ||
        versions.retired.size() != workers_ ||
        server.outbox.size() != workers_ ||
        server.has_pending.size() != workers_ ||
        server.last_update.size() != unit_widths_.size() ||
        tracker.rate.size() != workers_ ||
        tracker.seeded.size() != workers_ ||
        tracker.mta_bytes.size() != workers_)
        ROG_FATAL("shard snapshot shape mismatch");
    for (std::size_t w = 0; w < workers_; ++w) {
        if (versions.versions[w].size() != unit_widths_.size() ||
            server.outbox[w].size() != unit_widths_.size() ||
            server.has_pending[w].size() != unit_widths_.size())
            ROG_FATAL("shard snapshot unit count mismatch");
        for (std::size_t u = 0; u < unit_widths_.size(); ++u)
            if (server.outbox[w][u].size() != unit_widths_[u])
                ROG_FATAL("shard snapshot unit width mismatch");
    }
    for (std::size_t w = 0; w < workers_; ++w) {
        std::copy(versions.versions[w].begin(),
                  versions.versions[w].end(),
                  versions_.begin() + static_cast<std::ptrdiff_t>(
                                          w * unit_widths_.size()));
        for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
            std::copy(server.outbox[w][u].begin(),
                      server.outbox[w][u].end(),
                      outbox_.data() + offset(w, u));
            has_pending_[flag(w, u)] = server.has_pending[w][u] != 0;
        }
        retired_[w] = versions.retired[w] != 0;
    }
    last_update_ = server.last_update;
    tracker_.restore(tracker);
}

ShardedServer::ShardedServer(std::size_t workers,
                             const RowPartition &partition,
                             std::size_t shards)
{
    std::vector<std::size_t> widths;
    widths.reserve(partition.unitCount());
    for (const Unit &u : partition.units())
        widths.push_back(u.width);
    init(workers, widths, shards);
}

ShardedServer::ShardedServer(std::size_t workers,
                             const std::vector<std::size_t> &unit_widths,
                             std::size_t shards)
{
    init(workers, unit_widths, shards);
}

void
ShardedServer::init(std::size_t workers,
                    const std::vector<std::size_t> &unit_widths,
                    std::size_t shards)
{
    const std::size_t units = unit_widths.size();
    ROG_ASSERT(units > 0, "sharded server needs at least one unit");
    const std::size_t n = std::max<std::size_t>(
        1, std::min(shards == 0 ? 1 : shards, units));

    unit_shard_.resize(units);
    unit_local_.resize(units);
    shards_.reserve(n);

    // Contiguous balanced ranges: the first (units % n) shards take
    // one extra unit. Contiguity keeps a worker's pull of neighboring
    // rows within one shard and makes shard membership a range check.
    const std::size_t base = units / n;
    const std::size_t rem = units % n;
    std::size_t next = 0;
    for (std::size_t s = 0; s < n; ++s) {
        const std::size_t count = base + (s < rem ? 1 : 0);
        std::vector<std::size_t> widths;
        widths.reserve(count);
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t u = next + k;
            unit_shard_[u] = static_cast<std::uint32_t>(s);
            unit_local_[u] = static_cast<std::uint32_t>(k);
            widths.push_back(unit_widths[u]);
        }
        shards_.emplace_back(workers, std::move(widths));
        next += count;
    }
    ROG_ASSERT(next == units, "shard ranges must cover every unit");
}

void
ShardedServer::accumulate(std::size_t unit,
                          std::span<const float> decoded)
{
    owner(unit).accumulate(unit_local_[unit], decoded);
}

std::span<float>
ShardedServer::pending(std::size_t worker, std::size_t unit)
{
    return owner(unit).pending(worker, unit_local_[unit]);
}

bool
ShardedServer::hasPending(std::size_t worker, std::size_t unit) const
{
    return owner(unit).hasPending(worker, unit_local_[unit]);
}

void
ShardedServer::clearPending(std::size_t worker, std::size_t unit)
{
    owner(unit).clearPending(worker, unit_local_[unit]);
}

void
ShardedServer::clearWorker(std::size_t worker)
{
    for (auto &s : shards_)
        s.clearWorker(worker);
}

double
ShardedServer::pendingMeanAbs(std::size_t worker,
                              std::size_t unit) const
{
    return owner(unit).pendingMeanAbs(worker, unit_local_[unit]);
}

std::int64_t
ShardedServer::lastUpdate(std::size_t unit) const
{
    return owner(unit).lastUpdate(unit_local_[unit]);
}

void
ShardedServer::noteUpdate(std::size_t unit, std::int64_t iter)
{
    owner(unit).noteUpdate(unit_local_[unit], iter);
}

std::int64_t
ShardedServer::version(std::size_t worker, std::size_t unit) const
{
    return owner(unit).version(worker, unit_local_[unit]);
}

void
ShardedServer::updateVersion(std::size_t worker, std::size_t unit,
                             std::int64_t iter)
{
    owner(unit).updateVersion(worker, unit_local_[unit], iter);
}

void
ShardedServer::retireWorker(std::size_t worker)
{
    for (auto &s : shards_)
        s.retireWorker(worker);
}

void
ShardedServer::rejoinWorker(std::size_t worker, std::int64_t iter)
{
    for (auto &s : shards_)
        s.rejoinWorker(worker, iter);
}

std::int64_t
ShardedServer::maxVersionOfWorker(std::size_t worker) const
{
    std::int64_t m = std::numeric_limits<std::int64_t>::min();
    for (const auto &s : shards_)
        m = std::max(m, s.maxVersionOfWorker(worker));
    return m;
}

std::int64_t
ShardedServer::minWorkerIteration() const
{
    bool any = false;
    std::int64_t m = 0;
    for (std::size_t w = 0; w < workers(); ++w) {
        if (retired(w))
            continue;
        const std::int64_t it = maxVersionOfWorker(w);
        if (!any || it < m)
            m = it;
        any = true;
    }
    return m;
}

void
ShardedServer::report(std::size_t worker, double bytes_transmitted,
                      double elapsed_seconds, double mta_bytes)
{
    for (auto &s : shards_)
        s.report(worker, bytes_transmitted, elapsed_seconds, mta_bytes);
}

} // namespace core
} // namespace rog
