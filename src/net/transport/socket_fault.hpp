/**
 * @file
 * Deterministic fault injection for the real-socket transport.
 *
 * The DES fault layer perturbs simulated transfers; this is its
 * wire-level twin: a seeded per-datagram decision stream applied on
 * the sender's emit path, so a UDP loopback run exercises the same
 * protocol reactions (retry, resume-from-offset, CRC discard,
 * duplicate dedup) the simulator proves out — with real packets.
 *
 * Decisions draw from one Rng in a fixed per-datagram order
 * (drop, dup, truncate, corrupt, delay), so the same seed and send
 * sequence yields the same perturbations. Only DATA frames are
 * touched; acknowledgements travel clean, which keeps the sender's
 * decision sequence reproducible enough for loopback assertions.
 */
#ifndef ROG_NET_TRANSPORT_SOCKET_FAULT_HPP
#define ROG_NET_TRANSPORT_SOCKET_FAULT_HPP

#include <cstdint>
#include <string>

#include "common/rng.hpp"

namespace rog {
namespace net {
namespace transport {

struct SocketFaultPlan;

/** Result of SocketFaultPlan::tryParse. */
struct SocketFaultParseResult;

/** Probabilities and knobs for wire-level datagram faults. */
struct SocketFaultPlan
{
    std::uint64_t seed = 1;
    double drop_p = 0.0;    //!< lose the datagram entirely.
    double dup_p = 0.0;     //!< deliver it twice.
    double trunc_p = 0.0;   //!< cut the payload mid-fragment.
    double corrupt_p = 0.0; //!< flip a payload byte (CRC must catch it).
    double delay_p = 0.0;   //!< hold the datagram back briefly.
    double delay_s = 0.01;  //!< how long a delayed datagram waits.

    /**
     * Network partition: every datagram emitted while
     * `part_begin_s <= now < part_end_s` (sender clock, seconds since
     * process start) is dropped, regardless of probabilities. Models
     * a windowed link outage; end <= begin disables it.
     */
    double part_begin_s = 0.0;
    double part_end_s = 0.0;

    bool
    partitioned(double now_s) const
    {
        return part_end_s > part_begin_s && now_s >= part_begin_s &&
               now_s < part_end_s;
    }

    /** A plan that touches nothing. */
    bool
    clean() const
    {
        return drop_p <= 0.0 && dup_p <= 0.0 && trunc_p <= 0.0 &&
               corrupt_p <= 0.0 && delay_p <= 0.0 &&
               part_end_s <= part_begin_s;
    }

    /**
     * Parse a spec like "seed=7 drop=0.1 dup=0.05 trunc=0.2
     * corrupt=0.05 delay=0.1:0.02 partition=2.0:1.5" (delay is
     * prob:seconds; partition is begin:duration, in sender-clock
     * seconds). Unknown keys and out-of-range probabilities are
     * rejected with a message, never skipped.
     */
    static SocketFaultParseResult tryParse(const std::string &spec);
};

struct SocketFaultParseResult
{
    SocketFaultPlan plan;
    std::string error; //!< empty on success.

    bool ok() const { return error.empty(); }
};

/** What to do with one outgoing datagram. */
struct DatagramFate
{
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    /** Keep only this fraction of the fragment (1 = whole). */
    double keep_frac = 1.0;
    double delay_s = 0.0; //!< 0 = send now.
};

/** Draws a deterministic fate stream for outgoing datagrams. */
class SocketFaultInjector
{
  public:
    explicit SocketFaultInjector(const SocketFaultPlan &plan);

    /** Decide the fate of the next datagram (advances the stream). */
    DatagramFate next();

    /**
     * As next(), but time-aware: inside the plan's partition window
     * the datagram is dropped outright. The probabilistic draws are
     * still consumed, so the stream beyond the window is identical
     * to a run that never partitioned.
     */
    DatagramFate next(double now_s);

    std::size_t decided() const { return decided_; }
    const SocketFaultPlan &plan() const { return plan_; }

  private:
    SocketFaultPlan plan_;
    Rng rng_;
    std::size_t decided_ = 0;
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_SOCKET_FAULT_HPP
