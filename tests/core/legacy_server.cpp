#include "core/legacy_server.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace rog {
namespace core {
namespace legacy {

VersionStorage::VersionStorage(std::size_t workers, std::size_t units)
    : versions_(workers, std::vector<std::int64_t>(units, 0)),
      retired_(workers, false)
{
    ROG_ASSERT(workers > 0 && units > 0, "empty version storage");
}

std::int64_t
VersionStorage::get(std::size_t worker, std::size_t unit) const
{
    return versions_.at(worker).at(unit);
}

void
VersionStorage::update(std::size_t worker, std::size_t unit,
                       std::int64_t iter)
{
    std::int64_t &v = versions_.at(worker).at(unit);
    ROG_ASSERT(iter >= v, "versions must be monotone");
    v = iter;
}

bool
VersionStorage::retired(std::size_t worker) const
{
    return retired_.at(worker);
}

void
VersionStorage::retireWorker(std::size_t worker)
{
    retired_.at(worker) = true;
}

void
VersionStorage::rejoinWorker(std::size_t worker, std::int64_t iter)
{
    for (std::int64_t &v : versions_.at(worker)) {
        ROG_ASSERT(iter >= v, "rejoin would move a version backwards");
        v = iter;
    }
    retired_[worker] = false;
}

std::int64_t
VersionStorage::maxVersionOfWorker(std::size_t worker) const
{
    const auto &row = versions_.at(worker);
    return *std::max_element(row.begin(), row.end());
}

std::int64_t
VersionStorage::minWorkerIteration() const
{
    bool any = false;
    std::int64_t m = 0;
    for (std::size_t w = 0; w < versions_.size(); ++w) {
        if (retired_[w])
            continue;
        const std::int64_t it = maxVersionOfWorker(w);
        if (!any || it < m)
            m = it;
        any = true;
    }
    return m;
}

ServerState::ServerState(std::size_t workers,
                         const RowPartition &partition)
    : outbox_(workers), inv_workers_(1.0 / static_cast<double>(workers))
{
    ROG_ASSERT(workers > 0, "server needs at least one worker");
    for (std::size_t w = 0; w < workers; ++w)
        for (const Unit &u : partition.units())
            outbox_[w].emplace_back(u.width, 0.0f);
}

void
ServerState::accumulate(std::size_t unit, std::span<const float> decoded)
{
    const auto scale = static_cast<float>(inv_workers_);
    for (std::size_t w = 0; w < outbox_.size(); ++w) {
        auto &dst = outbox_[w].at(unit);
        ROG_ASSERT(decoded.size() == dst.size(), "decoded width mismatch");
        for (std::size_t j = 0; j < decoded.size(); ++j)
            dst[j] += scale * decoded[j];
    }
}

std::span<float>
ServerState::pending(std::size_t worker, std::size_t unit)
{
    return outbox_.at(worker).at(unit);
}

void
ServerState::clearPending(std::size_t worker, std::size_t unit)
{
    auto &buf = outbox_.at(worker).at(unit);
    std::fill(buf.begin(), buf.end(), 0.0f);
}

EagerFixedServer::EagerFixedServer(std::size_t workers,
                                   const RowPartition &partition)
    : outbox_(workers), has_pending_(workers),
      last_update_(partition.unitCount(), 0),
      scale_(fixed::scaleFor(workers))
{
    ROG_ASSERT(workers > 0, "server needs at least one worker");
    for (std::size_t w = 0; w < workers; ++w) {
        has_pending_[w].assign(partition.unitCount(), false);
        for (const Unit &u : partition.units())
            outbox_[w].emplace_back(u.width, 0);
    }
}

void
EagerFixedServer::accumulate(std::size_t unit,
                             std::span<const float> decoded)
{
    for (std::size_t w = 0; w < outbox_.size(); ++w) {
        auto &dst = outbox_[w].at(unit);
        ROG_ASSERT(decoded.size() == dst.size(), "decoded width mismatch");
        for (std::size_t j = 0; j < decoded.size(); ++j) {
            // Wrap-around add: signed overflow would be undefined.
            const std::uint64_t sum =
                static_cast<std::uint64_t>(dst[j]) +
                static_cast<std::uint64_t>(
                    fixed::quantise(decoded[j], scale_));
            dst[j] = static_cast<std::int64_t>(sum);
        }
        has_pending_[w][unit] = true;
    }
}

std::vector<std::int64_t>
EagerFixedServer::pending(std::size_t worker, std::size_t unit) const
{
    return outbox_.at(worker).at(unit);
}

void
EagerFixedServer::takePending(std::size_t worker, std::size_t unit,
                              std::span<float> out)
{
    const auto &buf = outbox_.at(worker).at(unit);
    ROG_ASSERT(out.size() == buf.size(), "pending width mismatch");
    for (std::size_t j = 0; j < buf.size(); ++j)
        out[j] = fixed::dequantise(buf[j]);
    clearPending(worker, unit);
}

bool
EagerFixedServer::hasPending(std::size_t worker, std::size_t unit) const
{
    return has_pending_.at(worker).at(unit);
}

void
EagerFixedServer::clearPending(std::size_t worker, std::size_t unit)
{
    auto &buf = outbox_.at(worker).at(unit);
    std::fill(buf.begin(), buf.end(), 0);
    has_pending_[worker][unit] = false;
}

void
EagerFixedServer::clearWorker(std::size_t worker)
{
    for (std::size_t u = 0; u < outbox_.at(worker).size(); ++u)
        clearPending(worker, u);
}

double
EagerFixedServer::pendingMeanAbs(std::size_t worker,
                                 std::size_t unit) const
{
    const auto &buf = outbox_.at(worker).at(unit);
    if (buf.empty())
        return 0.0;
    // The exact integer total, rounded to double once.
    unsigned __int128 total = 0;
    for (std::int64_t q : buf)
        total += q < 0 ? 0 - static_cast<std::uint64_t>(q)
                       : static_cast<std::uint64_t>(q);
    return static_cast<double>(total) /
           static_cast<double>(std::int64_t{1} << fixed::kFracBits) /
           static_cast<double>(buf.size());
}

std::int64_t
EagerFixedServer::lastUpdate(std::size_t unit) const
{
    return last_update_.at(unit);
}

void
EagerFixedServer::noteUpdate(std::size_t unit, std::int64_t iter)
{
    last_update_.at(unit) = std::max(last_update_[unit], iter);
}

ServerStateSnapshot
EagerFixedServer::snapshot() const
{
    ServerStateSnapshot s;
    s.outbox = outbox_;
    for (const auto &flags : has_pending_)
        s.has_pending.emplace_back(flags.begin(), flags.end());
    s.last_update = last_update_;
    return s;
}

} // namespace legacy
} // namespace core
} // namespace rog
