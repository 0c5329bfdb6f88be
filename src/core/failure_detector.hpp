/**
 * @file
 * Heartbeat failure detection and membership lifecycle for the
 * training group (Sec. III-C robustness: robot crash / rejoin / leave
 * without an announcement).
 *
 * Each worker periodically sends a small heartbeat over the same
 * lossy channel as its gradients. The server-side MembershipTracker
 * scores the silence of each worker with a phi-accrual-style
 * suspicion value and walks an explicit lifecycle
 *
 *     alive -> suspect -> dead -> rejoining -> alive
 *
 * Phi is computed against an EWMA estimate of the worker's observed
 * heartbeat inter-arrival time, so a worker behind a slow link earns
 * a proportionally longer grace period than one on a fast link —
 * the adaptive part that keeps false positives near zero under deep
 * bandwidth dips. Two thresholds split suspicion from eviction:
 * at phi_suspect the worker stops holding the staleness gate (its
 * in-flight rows are reclaimed: survivors no longer wait on it), at
 * phi_evict it is declared dead and retired from the version storage.
 * A hard cap (detection_bound_s) declares any worker dead once its
 * silence exceeds the bound regardless of phi, which upper-bounds
 * detection latency for truly crashed workers.
 *
 * The tracker is pure deterministic state + arithmetic: it never
 * reads a clock or RNG, so the engine drives it entirely from
 * simulated time and replay determinism is preserved.
 */
#ifndef ROG_CORE_FAILURE_DETECTOR_HPP
#define ROG_CORE_FAILURE_DETECTOR_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace rog {
namespace core {

/** Lifecycle state of a group member as seen by the server. */
enum class MemberState {
    Alive,     //!< heartbeats arriving, participates in the gate.
    Suspect,   //!< suspiciously silent; gate no longer waits on it.
    Dead,      //!< evicted: retired from version storage.
    Rejoining, //!< dead worker resyncing to the current model.
};

const char *memberStateName(MemberState s);

/** Tuning of the phi-accrual detector. */
struct FailureDetectorConfig
{
    /** Worker heartbeat send period (simulated seconds). */
    double heartbeat_interval_s = 0.5;

    /** Phi at which a worker turns Suspect (gate stops waiting). */
    double phi_suspect = 2.0;

    /** Phi at which a worker is declared Dead (evicted). */
    double phi_evict = 4.0;

    /**
     * Hard detection bound: silence of at least this many seconds
     * declares the worker Dead regardless of phi. This is also the
     * only rule in force before min_samples heartbeats have arrived.
     */
    double detection_bound_s = 12.0;

    /** Heartbeats needed before phi is trusted. */
    std::size_t min_samples = 3;

    /** Server-side membership evaluation period. */
    double check_interval_s = 0.25;

    /** nullopt-style "no error" on success. */
    std::string validationError() const;
};

/** One lifecycle transition, as recorded by the tracker. */
struct MembershipEvent
{
    double time = 0.0;
    std::size_t worker = 0;
    MemberState from = MemberState::Alive;
    MemberState to = MemberState::Alive;
    double phi = 0.0; //!< suspicion score at transition time.
};

/**
 * Server-side membership state machine over heartbeat arrivals.
 *
 * Drive it with observeHeartbeat() per arrival and evaluate() at a
 * fixed cadence; both append every transition to history() and
 * evaluate() additionally returns the transitions it produced so the
 * caller can act on them (retire the dead, reopen the gate).
 */
class MembershipTracker
{
  public:
    MembershipTracker(std::size_t workers,
                      const FailureDetectorConfig &cfg);

    std::size_t workers() const { return members_.size(); }

    /** Record a heartbeat from @p worker at time @p now. */
    void observeHeartbeat(std::size_t worker, double now);

    /**
     * Re-score every active worker at time @p now and apply the
     * resulting transitions; returns the transitions of this call.
     */
    std::vector<MembershipEvent> evaluate(double now);

    MemberState state(std::size_t worker) const;

    /** Suspicion score of @p worker at @p now (0 while unscored). */
    double phi(std::size_t worker, double now) const;

    /** Seconds since the last heartbeat of @p worker. */
    double silence(std::size_t worker, double now) const;

    /** Dead -> Rejoining (the engine started a resync). */
    void markRejoining(std::size_t worker, double now);

    /**
     * Rejoining -> Alive. Heartbeat statistics restart from scratch
     * so stale pre-crash interval estimates cannot linger.
     */
    void markRejoined(std::size_t worker, double now);

    /**
     * Restart heartbeat statistics at @p now without a lifecycle
     * round-trip — for a worker that resynced while never declared
     * dead (e.g. a planned rejoin that beat detection). A Suspect is
     * cleared back to Alive; silence accrued during the outage is
     * forgotten so the next evaluation cannot evict the fresh rejoiner.
     */
    void resetStats(std::size_t worker, double now);

    /**
     * Administrative removal (worker finished or left gracefully):
     * the worker is no longer scored and never reported Dead.
     */
    void deactivate(std::size_t worker);

    bool active(std::size_t worker) const;

    /** Every transition ever recorded, in order. */
    const std::vector<MembershipEvent> &history() const
    {
        return history_;
    }

  private:
    struct Member
    {
        MemberState state = MemberState::Alive;
        bool active = true;
        double last_arrival = 0.0;
        double mean_interval = 0.0; //!< EWMA of inter-arrival gaps.
        std::size_t samples = 0;
    };

    void transition(Member &m, std::size_t worker, double now,
                    MemberState to, double phi_now,
                    std::vector<MembershipEvent> *out);

    FailureDetectorConfig cfg_;
    std::vector<Member> members_;
    std::vector<MembershipEvent> history_;
};

} // namespace core
} // namespace rog

#endif // ROG_CORE_FAILURE_DETECTOR_HPP
