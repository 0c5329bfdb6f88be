/**
 * @file
 * Minimum Transmission Amount (MTA) — Table I of the paper.
 *
 * If every transmission ships at least a fraction P of the rows
 * (highest importance first), then after s steps at most (1-P)^s of
 * the rows remain untransmitted. To guarantee every row is transmitted
 * before its staleness reaches the threshold S, the paper requires
 * (1-P)^(S-1) < P and sets MTA to the smallest such P — the solution
 * of (1-P)^(S-1) = P.
 *
 * Also ATP's shared MTA-time estimate (MtaTimeTracker): how long the
 * slowest device needs to transmit its MTA.
 */
#ifndef ROG_CORE_MTA_HPP
#define ROG_CORE_MTA_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/math_util.hpp"

namespace rog {
namespace core {

/**
 * MTA fraction for a staleness threshold.
 *
 * Solves (1-P)^(S-1) = P. Thresholds <= 1 force P = 1 (everything must
 * go every iteration — the BSP limit). Matches the paper's Table I:
 * S = 2 -> 0.50, 3 -> 0.38, 4 -> 0.32, 5 -> 0.28, 6 -> 0.25,
 * 7 -> 0.22, 8 -> 0.20.
 */
double mtaFraction(std::size_t staleness_threshold);

/**
 * MTA in units for a model of @p total_units rows (Algo 4 line 1:
 * MTA <- MTATable(t) * len(g')), rounded up, at least 1.
 */
std::size_t mtaUnits(std::size_t staleness_threshold,
                     std::size_t total_units);

/** Plain-data copy of an MtaTimeTracker's estimates (checkpointing). */
struct MtaTrackerSnapshot
{
    std::vector<double> rate;          //!< EWMA value per device.
    std::vector<std::uint8_t> seeded;  //!< EWMA seeded flag per device.
    std::vector<double> mta_bytes;
};

/**
 * ATP's shared MTA-time estimate (Algo 4's GetMTATime /
 * UpdateMTATime): each device reports its observed throughput after a
 * push/pull; the tracker estimates, per device, the seconds that
 * device needs to transmit an MTA's worth of bytes, and tMTA is the
 * maximum over devices — so non-stragglers keep transmitting for as
 * long as the slowest device needs for its minimum amount, aligning
 * transmission times.
 */
class MtaTimeTracker
{
  public:
    /**
     * @param workers device count.
     * @param alpha EWMA weight for new throughput observations.
     * @param floor_seconds / ceil_seconds clamp on tMTA.
     */
    explicit MtaTimeTracker(std::size_t workers, double alpha = 0.35,
                            double floor_seconds = 0.05,
                            double ceil_seconds = 30.0);

    /**
     * Current tMTA: max over devices of their estimated MTA
     * transmission time; +infinity until the first report (the first
     * iteration transmits everything, like SSP).
     */
    double mtaTime() const;

    /**
     * Report one observed transmission.
     *
     * @param worker reporting device.
     * @param bytes_transmitted total bytes that left the device.
     * @param elapsed_seconds wall time of the transmission. @pre > 0
     * @param mta_bytes current size of this device's MTA in bytes.
     */
    void report(std::size_t worker, double bytes_transmitted,
                double elapsed_seconds, double mta_bytes);

    /** Estimated seconds for @p worker to transmit its MTA. */
    double estimateFor(std::size_t worker) const;

    /** Copy out the per-device rate estimates and MTA sizes. */
    MtaTrackerSnapshot snapshot() const;

    /** Overwrite from a same-shape snapshot; fails (throws) else. */
    void restore(const MtaTrackerSnapshot &s);

  private:
    std::vector<Ewma> rate_;           //!< bytes/sec per device.
    std::vector<double> mta_bytes_;    //!< latest MTA size per device.
    double floor_seconds_;
    double ceil_seconds_;
};

} // namespace core
} // namespace rog

#endif // ROG_CORE_MTA_HPP
