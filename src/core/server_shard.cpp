#include "core/server_shard.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"

namespace rog {
namespace core {

namespace {

// The row kernels carry an AVX2 clone beside the baseline one: both
// run the same IEEE double and integer operations, so every clone
// gives the same bits. Not under TSan: it instruments the ifunc
// resolver, which runs before the TSan runtime is up.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define ROG_ROW_KERNEL [[gnu::target_clones("avx2", "default")]]
#else
#define ROG_ROW_KERNEL
#endif

/** sum[j] += quantise(decoded[j]), wrapping. */
ROG_ROW_KERNEL void
addQuantised(std::uint64_t *__restrict sum,
             const float *__restrict decoded, double scale,
             std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        sum[j] += static_cast<std::uint64_t>(
            fixed::quantise(decoded[j], scale));
}

/** out[j] = sum[j] - snap[j] as a float, then snap[j] = sum[j]. */
ROG_ROW_KERNEL void
takeRow(std::uint64_t *__restrict snap,
        const std::uint64_t *__restrict sum, float *__restrict out,
        std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j) {
        out[j] =
            fixed::dequantise(static_cast<std::int64_t>(sum[j] - snap[j]));
        snap[j] = sum[j];
    }
}

/** sum(|sum[j] - snap[j]|) in units, as a double. The magnitudes are
 *  summed as 32-bit halves in two 64-bit sums, so no row shorter than
 *  2^32 overflows, and rounded once. */
ROG_ROW_KERNEL double
sumAbsPending(const std::uint64_t *__restrict sum,
              const std::uint64_t *__restrict snap, std::size_t n)
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t d = sum[j] - snap[j];
        const std::uint64_t neg = 0 - (d >> 63); // all ones if d < 0.
        const std::uint64_t mag = (d ^ neg) - neg;
        hi += mag >> 32;
        lo += mag & 0xFFFFFFFFull;
    }
    return static_cast<double>(hi) * 0x1p32 + static_cast<double>(lo);
}

std::vector<std::size_t>
unitWidths(const RowPartition &partition)
{
    std::vector<std::size_t> widths;
    widths.reserve(partition.unitCount());
    for (const Unit &u : partition.units())
        widths.push_back(u.width);
    return widths;
}

} // namespace

ServerShard::ServerShard(std::size_t workers,
                         std::vector<std::size_t> unit_widths)
    : workers_(workers), scale_(fixed::scaleFor(workers)),
      unit_widths_(std::move(unit_widths)), tracker_(workers)
{
    ROG_ASSERT(workers_ > 0, "shard needs at least one worker");
    ROG_ASSERT(!unit_widths_.empty(), "shard needs at least one unit");
    unit_offsets_.reserve(unit_widths_.size());
    for (std::size_t w : unit_widths_) {
        unit_offsets_.push_back(row_elems_);
        row_elems_ += w;
    }
    sums_.assign(row_elems_, 0);
    snaps_.assign(workers_ * row_elems_, 0);
    pushes_.assign(unit_widths_.size(), 0);
    taken_.assign(workers_ * unit_widths_.size(), 0);
    last_update_.assign(unit_widths_.size(), 0);
    versions_.assign(workers_ * unit_widths_.size(), 0);
    retired_.assign(workers_, 0);
}

ServerShard::ServerShard(std::size_t workers, const RowPartition &partition)
    : ServerShard(workers, unitWidths(partition))
{
}

void
ServerShard::accumulate(std::size_t unit, std::span<const float> decoded)
{
    ROG_ASSERT(unit < unit_widths_.size(), "unit out of range");
    ROG_ASSERT(decoded.size() == unit_widths_[unit],
               "decoded width mismatch");
    addQuantised(sums_.data() + unit_offsets_[unit], decoded.data(),
                 scale_, decoded.size());
    ++pushes_[unit];
}

void
ServerShard::takePending(std::size_t worker, std::size_t unit,
                         std::span<float> out)
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "pending index out of range");
    ROG_ASSERT(out.size() == unit_widths_[unit], "pending width mismatch");
    takeRow(snaps_.data() + offset(worker, unit),
            sums_.data() + unit_offsets_[unit], out.data(), out.size());
    taken_[cell(worker, unit)] = pushes_[unit];
}

std::vector<std::int64_t>
ServerShard::pending(std::size_t worker, std::size_t unit) const
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "pending index out of range");
    const std::uint64_t *sum = sums_.data() + unit_offsets_[unit];
    const std::uint64_t *snap = snaps_.data() + offset(worker, unit);
    std::vector<std::int64_t> row(unit_widths_[unit]);
    for (std::size_t j = 0; j < row.size(); ++j)
        row[j] = static_cast<std::int64_t>(sum[j] - snap[j]);
    return row;
}

void
ServerShard::clearPending(std::size_t worker, std::size_t unit)
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "pending index out of range");
    const std::uint64_t *sum = sums_.data() + unit_offsets_[unit];
    std::copy(sum, sum + unit_widths_[unit],
              snaps_.data() + offset(worker, unit));
    taken_[cell(worker, unit)] = pushes_[unit];
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
    return sumAbsPending(sums_.data() + unit_offsets_[unit],
                         snaps_.data() + offset(worker, unit), width) /
           static_cast<double>(std::int64_t{1} << fixed::kFracBits) /
           static_cast<double>(width);
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

std::int64_t
ServerShard::minWorkerIteration() const
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
    // Per-worker rows of exact pending units: the ROGS bytes depend on
    // the pending values only, not on S or the snapshots that make them.
    ServerStateSnapshot s;
    s.outbox.resize(workers_);
    s.has_pending.resize(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
        s.outbox[w].resize(unit_widths_.size());
        s.has_pending[w].resize(unit_widths_.size());
        for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
            s.outbox[w][u] = pending(w, u);
            s.has_pending[w][u] = hasPending(w, u) ? 1 : 0;
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
        for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
            const auto &row = server.outbox[w][u];
            if (row.size() != unit_widths_[u])
                ROG_FATAL("shard snapshot unit width mismatch");
            if (server.has_pending[w][u] == 0 &&
                std::any_of(row.begin(), row.end(),
                            [](std::int64_t q) { return q != 0; }))
                ROG_FATAL("shard snapshot: pending row without its flag");
        }
    }
    // S restarts at zero and each snapshot at minus the pending row, so
    // S - snapshot is the checkpointed row exactly. One push on every
    // unit's counter, seen at take by the workers with nothing pending.
    std::fill(sums_.begin(), sums_.end(), 0);
    std::fill(pushes_.begin(), pushes_.end(), 1);
    for (std::size_t w = 0; w < workers_; ++w) {
        std::copy(versions.versions[w].begin(),
                  versions.versions[w].end(),
                  versions_.begin() + static_cast<std::ptrdiff_t>(
                                          w * unit_widths_.size()));
        for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
            std::uint64_t *snap = snaps_.data() + offset(w, u);
            for (std::int64_t q : server.outbox[w][u])
                *snap++ = 0 - static_cast<std::uint64_t>(q);
            taken_[cell(w, u)] = server.has_pending[w][u] != 0 ? 0 : 1;
        }
        retired_[w] = versions.retired[w] != 0;
    }
    last_update_ = server.last_update;
    tracker_.restore(tracker);
}

ShardedServer::ShardedServer(std::size_t workers,
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
    shards_[shardOf(unit)].accumulate(localOf(unit), decoded);
}

void
ShardedServer::updateVersion(std::size_t worker, std::size_t unit,
                             std::int64_t iter)
{
    shards_[shardOf(unit)].updateVersion(worker, localOf(unit), iter);
}

void
ShardedServer::noteUpdate(std::size_t unit, std::int64_t iter)
{
    shards_[shardOf(unit)].noteUpdate(localOf(unit), iter);
}

} // namespace core
} // namespace rog
