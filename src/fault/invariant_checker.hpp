/**
 * @file
 * Conservation-invariant checking for fault-injected training runs.
 *
 * The fault layer can cut transfers, crash workers, and rewrite
 * membership mid-run; this checker is the oracle that says the engine
 * survived all of it without corrupting the protocol state. The engine
 * calls the on*() hooks from its worker/pull loops; violations are
 * collected (not thrown) so a test can run an entire faulty scenario
 * and then assert clean() — or print report() to see everything that
 * went wrong at once.
 *
 * Checked properties:
 *  - virtual time is monotone across engine observations;
 *  - a (worker, unit) gradient row is never pushed twice for the same
 *    iteration, and stored versions match the pushes (server version
 *    storage consistent);
 *  - a pulled gradient is only applied when the server actually had it
 *    pending (no row applied twice: applying clears the pending copy);
 *  - the RSP staleness bound is never exceeded at a gate pass;
 *  - membership transitions are sane (no retired worker pushes, a
 *    rejoin lands at or beyond the worker's last pushed iteration);
 *  - server recovery only ever rolls state backwards (write-ahead
 *    ordering);
 *  - the reliable transport (net/transport) applies every chunk at
 *    most once even when the link duplicates deliveries, never delivers
 *    one message twice, and never resumes a retry beyond the bytes
 *    actually requested. These are read from the transport's event
 *    stream (onTransportEvent, attached as a net::transport::EventSink).
 */
#ifndef ROG_FAULT_INVARIANT_CHECKER_HPP
#define ROG_FAULT_INVARIANT_CHECKER_HPP

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/transport/event_log.hpp"

namespace rog {
namespace fault {

/** Collects violations of the engine's conservation invariants. */
class InvariantChecker final
{
  public:
    InvariantChecker() = default;

    /** Engine observed virtual time @p now (monotonicity). */
    void onTimeAdvance(double now);

    /**
     * @p worker pushed @p unit at iteration @p iter; @p stored is the
     * version the server recorded afterwards.
     */
    void onPush(std::size_t worker, std::size_t unit, std::int64_t iter,
                std::int64_t stored);

    /**
     * @p worker applied a pulled gradient of @p unit; @p had_pending is
     * whether the server held a pending copy at that moment.
     */
    void onApply(std::size_t worker, std::size_t unit, bool had_pending);

    /**
     * @p worker cleared the staleness gate at iteration @p iter with
     * the slowest active peer at @p min_iter under @p threshold.
     * @p retired: the gate waved the worker through as non-member.
     */
    void onGatePass(std::size_t worker, std::int64_t iter,
                    std::int64_t min_iter, std::int64_t threshold,
                    bool retired);

    /** @p worker left the staleness gate's membership. */
    void onRetire(std::size_t worker);

    /** @p worker rejoined, resynced to model iteration @p iter. */
    void onRejoin(std::size_t worker, std::int64_t iter);

    /**
     * The server recovered from its checkpoint of @p checkpoint_iter
     * after crashing at @p crash_iter. Recovering "forwards" (a
     * checkpoint newer than the crash point) means the write-ahead
     * ordering was broken.
     */
    void onServerRecovery(std::int64_t checkpoint_iter,
                          std::int64_t crash_iter);

    /**
     * One transport decision (wire it up as the link's EventSink).
     *  - Accept: the chunk was applied as new payload; accepting the
     *    same (message, chunk_seq) fresh twice is a violation.
     *  - Duplicate / CorruptDrop: a dedup'd or discarded chunk.
     *  - Deliver: the message reached the application; a second
     *    delivery of the same message is a violation (exactly-once).
     *  - Resume: a retry resumed after @c a of the chunk's @c b bytes;
     *    resuming past the request (or below zero) is a violation —
     *    the transport would be inventing delivered bytes.
     * Other kinds are not checked.
     */
    void onTransportEvent(const net::transport::TransportEvent &ev);

    /** True if no invariant was violated. */
    bool clean() const { return violation_count_ == 0; }

    std::size_t violationCount() const { return violation_count_; }

    /** Total hook invocations (a zero means nothing was checked). */
    std::size_t checksRun() const { return checks_; }

    /** First few violations, one per line (empty when clean). */
    std::string report() const;

    /** The first few violations, one message each. */
    const std::vector<std::string> &violations() const { return violations_; }

  private:
    void fail(std::string msg);
    std::int64_t &pushSlot(std::size_t worker, std::size_t unit);

    // Shadow state, grown on demand.
    std::vector<std::vector<std::int64_t>> last_push_;
    std::vector<std::uint8_t> retired_;
    double last_time_ = 0.0;

    // Transport shadow state: which chunks were accepted fresh and
    // which messages were delivered.
    using ChunkKey = std::pair<net::transport::MessageKey, std::uint32_t>;
    std::set<ChunkKey> accepted_chunks_;
    std::set<net::transport::MessageKey> delivered_;

    std::vector<std::string> violations_; //!< capped sample.
    std::size_t violation_count_ = 0;
    std::size_t checks_ = 0;

    static constexpr std::size_t kMaxStoredViolations = 32;
};

} // namespace fault
} // namespace rog

#endif // ROG_FAULT_INVARIANT_CHECKER_HPP
