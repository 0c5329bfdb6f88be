/**
 * @file
 * Cross-validation of the real-socket transport against the DES twin.
 *
 * A real-socket run records a TransportTrace (what the harness sent,
 * what each wire attempt resolved to, what each frame looked like on
 * arrival) plus the structured event log both endpoints emitted. This
 * harness replays the trace through the *same protocol core* under
 * virtual time — the sender half through ReliableLink over a
 * ReplayBackend, the receiver half through the FrameReceiver fed
 * re-synthesized payload bytes — and asserts the
 * replayed decision log matches the recorded one frame for frame
 * (timestamps normalized away: wall clock and virtual time cannot
 * agree, every decision must).
 *
 * A mismatch means the socket backend and the simulator disagree about
 * the protocol — exactly the divergence the ROG methodology exists to
 * rule out.
 *
 * A trace records each send's key and length, not its bytes, so the
 * recorded run must have sent synthesizeMessage bytes (payload.hpp),
 * as rog_transportd and the transport tests do: both halves of the
 * replay regenerate them from the key.
 */
#ifndef ROG_NET_TRANSPORT_CROSSVAL_HPP
#define ROG_NET_TRANSPORT_CROSSVAL_HPP

#include <string>
#include <vector>

#include "net/transport/event_log.hpp"

namespace rog {
namespace net {
namespace transport {

/** One side's replayed decision log. */
struct ReplayResult
{
    std::vector<TransportEvent> log;

    /**
     * First inconsistency between what the protocol core did during
     * replay and what the trace recorded (empty = clean replay).
     */
    std::string divergence;

    /** Sends that ran to completion (delivered or failed). */
    std::size_t sends_completed = 0;
};

/**
 * Re-run the sender protocol over the recorded wire verdicts: every
 * send carries its synthesizeMessage bytes again, and every attempt
 * resolves from the trace's next AttemptRecord, in virtual time.
 * Returns the sender-side event log the core re-derived.
 */
ReplayResult replaySenderTrace(const TransportTrace &trace);

/**
 * Re-run the receiver protocol over the recorded arrivals: every
 * RxRecord becomes a frame with re-synthesized payload bytes (a
 * recorded CRC failure garbles one byte so the verdict is computed,
 * never assumed). Returns the receiver-side event log.
 */
ReplayResult replayReceiverTrace(const TransportTrace &trace);

/** Outcome of a full cross-validation. */
struct CrossvalReport
{
    bool ok = false;

    /** Human-readable account of the first divergence (empty if ok). */
    std::string detail;

    std::size_t sender_events = 0;
    std::size_t receiver_events = 0;
};

/**
 * Replay both sides of @p trace and compare against @p recorded (the
 * merged event log of the real run; sides are separated internally
 * with filterSide, so sender and receiver logs may simply be
 * concatenated).
 */
CrossvalReport crossValidate(const TransportTrace &trace,
                             const std::vector<TransportEvent> &recorded);

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_CROSSVAL_HPP
