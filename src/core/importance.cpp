#include "core/importance.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "parallel/parallel_for.hpp"

namespace rog {
namespace core {

std::vector<std::size_t>
rankUnits(ImportanceMode mode, const ImportanceConfig &cfg,
          const std::vector<double> &mean_abs_grad,
          const std::vector<std::int64_t> &iters, Rng &rng)
{
    ROG_ASSERT(mean_abs_grad.size() == iters.size(),
               "importance input size mismatch");
    const std::size_t n = mean_abs_grad.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    if (n <= 1)
        return order;

    if (cfg.random) {
        rng.shuffle(order);
        return order;
    }

    // Normalize the magnitude term by its mean so the two terms weigh
    // comparable scales.
    double mag_mean = 0.0;
    for (double m : mean_abs_grad)
        mag_mean += m;
    mag_mean /= static_cast<double>(n);
    const double mag_scale = mag_mean > 0.0 ? 1.0 / mag_mean : 0.0;

    const auto [min_it, max_it] =
        std::minmax_element(iters.begin(), iters.end());
    const std::int64_t min_iter = *min_it;
    const std::int64_t max_iter = *max_it;

    // Scores are independent per unit; chunks write disjoint slices.
    std::vector<double> score(n);
    parallel::parallelFor(
        0, n, 256, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const double mag = cfg.f1 * mean_abs_grad[i] * mag_scale;
                const double age = (mode == ImportanceMode::Worker)
                    ? static_cast<double>(max_iter - iters[i])
                    : static_cast<double>(iters[i] - min_iter);
                score[i] = mag + cfg.f2 * age;
            }
        });

    // Sort (-score, index) keys: (score desc, index asc) is a strict
    // total order over non-NaN scores, so std::sort yields exactly the
    // stable order. NaN scores (an inf or NaN gradient row zeroes
    // mag_scale, and inf * 0 is NaN) would break the comparator's
    // ordering, so those units go last, in index order.
    struct Key
    {
        double neg_score;
        std::size_t index;
    };
    std::vector<Key> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        if (!std::isnan(score[i]))
            keys.push_back({-score[i], i});
    std::sort(keys.begin(), keys.end(), [](const Key &a, const Key &b) {
        return a.neg_score < b.neg_score ||
               (a.neg_score == b.neg_score && a.index < b.index);
    });
    std::size_t k = 0;
    for (const Key &key : keys)
        order[k++] = key.index;
    for (std::size_t i = 0; i < n; ++i)
        if (std::isnan(score[i]))
            order[k++] = i;
    return order;
}

} // namespace core
} // namespace rog
