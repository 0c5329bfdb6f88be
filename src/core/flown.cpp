#include "core/flown.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace rog {
namespace core {

FlownScheduler::FlownScheduler(std::size_t workers, FlownConfig cfg)
    : cfg_(cfg), rate_(workers, Ewma(cfg.ewma_alpha))
{
    ROG_ASSERT(workers > 0, "scheduler needs workers");
    ROG_ASSERT(cfg.min_threshold >= 1 &&
               cfg.max_threshold >= cfg.min_threshold,
               "bad FLOWN threshold bounds");
}

void
FlownScheduler::reportThroughput(std::size_t worker, double bytes_per_sec)
{
    ROG_ASSERT(worker < rate_.size(), "worker out of range");
    rate_[worker].observe(std::max(bytes_per_sec, 1.0));
}

std::size_t
FlownScheduler::thresholdFor(std::size_t worker) const
{
    ROG_ASSERT(worker < rate_.size(), "worker out of range");
    // Until every estimate is seeded, stay conservative (min).
    double sum = 0.0;
    for (const auto &e : rate_) {
        if (!e.seeded())
            return cfg_.min_threshold;
        sum += e.value();
    }
    const double mean_rate = sum / static_cast<double>(rate_.size());
    const double mine = std::max(rate_[worker].value(), 1.0);
    const double scaled =
        std::round(static_cast<double>(cfg_.base_threshold) *
                   (mean_rate / mine));
    const double clamped =
        clamp(scaled, static_cast<double>(cfg_.min_threshold),
              static_cast<double>(cfg_.max_threshold));
    return static_cast<std::size_t>(clamped);
}

} // namespace core
} // namespace rog
