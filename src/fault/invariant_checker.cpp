#include "fault/invariant_checker.hpp"

#include <sstream>

#include "common/logging.hpp"

namespace rog {
namespace fault {

void
InvariantChecker::fail(std::string msg)
{
    ++violation_count_;
    if (violations_.size() < kMaxStoredViolations)
        violations_.push_back(std::move(msg));
}

std::int64_t &
InvariantChecker::pushSlot(std::size_t worker, std::size_t unit)
{
    if (worker >= last_push_.size()) {
        last_push_.resize(worker + 1);
        retired_.resize(worker + 1, 0);
    }
    auto &row = last_push_[worker];
    if (unit >= row.size())
        row.resize(unit + 1, 0);
    return row[unit];
}

void
InvariantChecker::onTimeAdvance(double now)
{
    ++checks_;
    if (now < last_time_) {
        fail(detail::concat("virtual time went backwards: ", now,
                            " < ", last_time_));
    }
    last_time_ = now;
}

void
InvariantChecker::onPush(std::size_t worker, std::size_t unit,
                         std::int64_t iter, std::int64_t stored)
{
    ++checks_;
    std::int64_t &slot = pushSlot(worker, unit);
    if (iter <= slot) {
        fail(detail::concat("worker ", worker, " pushed unit ", unit,
                            " twice: iteration ", iter,
                            " after having pushed iteration ", slot));
    }
    if (stored != iter) {
        fail(detail::concat("version storage inconsistent: worker ",
                            worker, " unit ", unit, " stored ", stored,
                            " after push of iteration ", iter));
    }
    if (retired_[worker]) {
        fail(detail::concat("retired worker ", worker,
                            " pushed unit ", unit, " at iteration ",
                            iter));
    }
    slot = iter;
}

void
InvariantChecker::onApply(std::size_t worker, std::size_t unit,
                          bool had_pending)
{
    ++checks_;
    if (!had_pending) {
        fail(detail::concat("worker ", worker,
                            " applied unit ", unit,
                            " with no pending server copy (a gradient "
                            "row would be applied twice or invented)"));
    }
}

void
InvariantChecker::onGatePass(std::size_t worker, std::int64_t iter,
                             std::int64_t min_iter,
                             std::int64_t threshold, bool retired)
{
    ++checks_;
    if (!retired && iter - min_iter >= threshold) {
        fail(detail::concat("staleness bound exceeded at gate: worker ",
                            worker, " iteration ", iter,
                            " vs slowest active ", min_iter,
                            " under threshold ", threshold));
    }
}

void
InvariantChecker::onRetire(std::size_t worker)
{
    ++checks_;
    pushSlot(worker, 0); // ensure sized.
    retired_[worker] = 1;
}

void
InvariantChecker::onRejoin(std::size_t worker, std::int64_t iter)
{
    ++checks_;
    std::int64_t &slot = pushSlot(worker, 0);
    (void)slot;
    retired_[worker] = 0;
    auto &row = last_push_[worker];
    for (std::size_t u = 0; u < row.size(); ++u) {
        if (iter < row[u]) {
            fail(detail::concat("worker ", worker, " rejoined at ",
                                "iteration ", iter,
                                " behind its own pushed unit ", u,
                                " (version ", row[u], ")"));
        }
        row[u] = iter;
    }
    if (row.empty())
        row.assign(1, iter);
}

void
InvariantChecker::onServerRecovery(std::int64_t checkpoint_iter,
                                   std::int64_t crash_iter)
{
    ++checks_;
    if (checkpoint_iter > crash_iter) {
        fail(detail::concat("server recovered from checkpoint of "
                            "iteration ", checkpoint_iter,
                            " after crashing at iteration ", crash_iter,
                            " (write-ahead ordering broken)"));
    }
}

void
InvariantChecker::onTransportChunk(std::size_t worker,
                                   std::int64_t version,
                                   std::size_t row,
                                   std::uint32_t chunk_seq, bool crc_ok,
                                   bool accepted_fresh, bool pull)
{
    ++checks_;
    if (!accepted_fresh)
        return;
    const char *dir = pull ? "pull" : "push";
    if (!crc_ok) {
        fail(detail::concat("transport accepted a corrupted chunk: ",
                            dir, " worker ", worker, " version ",
                            version, " row ", row, " chunk ",
                            chunk_seq));
    }
    const TransportKey key{worker, version, row, chunk_seq, pull};
    if (!accepted_chunks_.insert(key).second) {
        fail(detail::concat("transport accepted a chunk twice "
                            "(duplicate delivery applied): ", dir,
                            " worker ", worker, " version ", version,
                            " row ", row, " chunk ", chunk_seq));
    }
}

void
InvariantChecker::onTransportDeliver(std::size_t worker,
                                     std::int64_t version,
                                     std::size_t row, bool pull)
{
    ++checks_;
    const TransportKey key{worker, version, row, kAnyChunk, pull};
    if (!delivered_.insert(key).second) {
        fail(detail::concat("transport delivered a message twice: ",
                            pull ? "pull" : "push", " worker ", worker,
                            " version ", version, " row ", row));
    }
}

void
InvariantChecker::onTransportResume(std::size_t worker,
                                    std::int64_t version,
                                    std::size_t row,
                                    double resumed_bytes,
                                    double requested_bytes, bool pull)
{
    ++checks_;
    if (resumed_bytes > requested_bytes + 1e-6 || resumed_bytes < 0.0) {
        fail(detail::concat("transport resumed ", resumed_bytes,
                            " bytes of a ", requested_bytes,
                            "-byte chunk: ", pull ? "pull" : "push",
                            " worker ", worker, " version ", version,
                            " row ", row));
    }
}

std::string
InvariantChecker::report() const
{
    if (clean())
        return {};
    std::ostringstream os;
    os << violation_count_ << " invariant violation(s); first "
       << violations_.size() << ":\n";
    for (const auto &v : violations_)
        os << "  - " << v << '\n';
    return os.str();
}

} // namespace fault
} // namespace rog
