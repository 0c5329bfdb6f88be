/**
 * @file
 * FLOWN baseline: dynamic staleness-threshold scheduling [19].
 *
 * The paper's strongest baseline schedules synchronization per worker
 * from *estimated* network conditions: a worker estimated to have low
 * bandwidth (and low contribution) is given a larger staleness
 * allowance so the rest do not wait for it; a well-connected worker is
 * held close to the fresh state. The scheduling is model-granulated —
 * and that is exactly why it fails on robotic IoT networks: the
 * estimate is made before a whole-model transmission whose duration
 * exceeds the bandwidth-fluctuation timescale, so the schedule is
 * stale by the time it matters (Sec. I, Fig. 1).
 */
#ifndef ROG_CORE_FLOWN_HPP
#define ROG_CORE_FLOWN_HPP

#include <cstddef>
#include <vector>

#include "common/math_util.hpp"

namespace rog {
namespace core {

/** Configuration of the dynamic-threshold scheduler. */
struct FlownConfig
{
    std::size_t min_threshold = 1;   //!< floor for fast workers.
    std::size_t base_threshold = 2;  //!< allowance at average speed.
    std::size_t max_threshold = 8;   //!< cap for slow workers.
    double ewma_alpha = 0.3;         //!< bandwidth estimator weight.
};

/**
 * Per-worker dynamic staleness thresholds from EWMA bandwidth
 * estimates: threshold_r scales with (mean estimated rate / worker r's
 * estimated rate), clamped to [min, max]. Workers report observed
 * throughput after each whole-model transmission.
 */
class FlownScheduler
{
  public:
    FlownScheduler(std::size_t workers, FlownConfig cfg);

    /** Record an observed whole-model transmission throughput. */
    void reportThroughput(std::size_t worker, double bytes_per_sec);

    /** Current staleness allowance for @p worker. */
    std::size_t thresholdFor(std::size_t worker) const;

  private:
    FlownConfig cfg_;
    std::vector<Ewma> rate_;
};

} // namespace core
} // namespace rog

#endif // ROG_CORE_FLOWN_HPP
