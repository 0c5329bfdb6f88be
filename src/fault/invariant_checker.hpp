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
 *    most once even when the link duplicates deliveries, never accepts
 *    a chunk whose CRC check failed, never delivers one message twice,
 *    and never resumes a retry beyond the bytes actually requested.
 */
#ifndef ROG_FAULT_INVARIANT_CHECKER_HPP
#define ROG_FAULT_INVARIANT_CHECKER_HPP

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "net/transport/observer.hpp"

namespace rog {
namespace fault {

/** Collects violations of the engine's conservation invariants. */
class InvariantChecker final : public net::transport::TransportObserver
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
     * The transport receiver handled one chunk of the message keyed
     * (worker, version, row, pull-direction). @p crc_ok is the
     * receiver-side checksum verdict; @p accepted_fresh is whether the
     * receiver treated the chunk as new payload (as opposed to a
     * dedup'd duplicate or a discard). Accepting a corrupted chunk, or
     * accepting the same @p chunk_seq fresh twice, is a violation.
     */
    void onTransportChunk(std::size_t worker, std::int64_t version,
                          std::size_t row, std::uint32_t chunk_seq,
                          bool crc_ok, bool accepted_fresh,
                          bool pull) override;

    /**
     * The transport delivered the complete message (worker, version,
     * row, pull-direction) to the application. A second delivery of
     * the same message is a violation (exactly-once apply).
     */
    void onTransportDeliver(std::size_t worker, std::int64_t version,
                            std::size_t row, bool pull) override;

    /**
     * A retry of (worker, version, row) resumed from a byte offset:
     * @p resumed_bytes were skipped as already delivered out of
     * @p requested_bytes for the chunk. Resuming past the request is a
     * violation (the transport would be inventing delivered bytes).
     */
    void onTransportResume(std::size_t worker, std::int64_t version,
                           std::size_t row, double resumed_bytes,
                           double requested_bytes, bool pull) override;

    /** True if no invariant was violated. */
    bool clean() const { return violation_count_ == 0; }

    std::size_t violationCount() const { return violation_count_; }

    /** Total hook invocations (a zero means nothing was checked). */
    std::size_t checksRun() const { return checks_; }

    /** First few violations, one per line (empty when clean). */
    std::string report() const;

  private:
    void fail(std::string msg);
    std::int64_t &pushSlot(std::size_t worker, std::size_t unit);

    // Shadow state, grown on demand.
    std::vector<std::vector<std::int64_t>> last_push_;
    std::vector<std::uint8_t> retired_;
    double last_time_ = 0.0;

    // Transport shadow state: which chunks were accepted fresh and
    // which messages were delivered, keyed by
    // (worker, version, row, chunk_seq, pull). kAnyChunk marks a
    // whole-message (delivery) entry.
    using TransportKey =
        std::tuple<std::size_t, std::int64_t, std::size_t,
                   std::uint32_t, bool>;
    static constexpr std::uint32_t kAnyChunk = ~0u;
    std::set<TransportKey> accepted_chunks_;
    std::set<TransportKey> delivered_;

    std::vector<std::string> violations_; //!< capped sample.
    std::size_t violation_count_ = 0;
    std::size_t checks_ = 0;

    static constexpr std::size_t kMaxStoredViolations = 32;
};

} // namespace fault
} // namespace rog

#endif // ROG_FAULT_INVARIANT_CHECKER_HPP
