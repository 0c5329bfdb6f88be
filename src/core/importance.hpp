/**
 * @file
 * ATP's Importance Metric (Algo 3).
 *
 * Ranks synchronization units for transmission. On a worker, staled
 * rows get priority (they risk triggering the staleness threshold at
 * the server and stalling everyone) alongside rows with large
 * gradients (they contribute most to convergence):
 *     j_i = f1 * meanAbs(g'_i) + f2 * (max(iter) - iter_i).
 * On the server, pulls cannot trigger the threshold, so *fresher* rows
 * (typically larger contribution) get priority instead:
 *     j_i = f1 * meanAbs(g_i) + f2 * (iter_i - min(iter)).
 *
 * The magnitude term is normalized by its mean so f1 and f2 weigh
 * comparable scales regardless of the model's gradient magnitude.
 */
#ifndef ROG_CORE_IMPORTANCE_HPP
#define ROG_CORE_IMPORTANCE_HPP

#include <cstdint>
#include <vector>

namespace rog {

class Rng;

namespace core {

/** Which side of the protocol is ranking (Algo 3's `mode`). */
enum class ImportanceMode { Worker, Server };

/** Empirical coefficients and ablation switches. */
struct ImportanceConfig
{
    double f1 = 1.0;      //!< weight of the gradient-magnitude term.
    double f2 = 1.0;      //!< weight of the staleness/freshness term.
    bool random = false;  //!< ablation: ignore importance, shuffle.
};

/**
 * Rank units for transmission, most important first.
 *
 * @param mode worker (push) or server (pull) formula.
 * @param mean_abs_grad per-unit mean absolute gradient.
 * @param iters per-unit iteration tag (worker: last pushed iteration;
 *        server: last updated iteration). @pre same size
 * @param rng used only when cfg.random is set.
 * @return unit indices sorted by descending importance (ties broken by
 *         unit index for determinism); units whose score is NaN (an
 *         inf or NaN magnitude) come last, in index order.
 */
std::vector<std::size_t>
rankUnits(ImportanceMode mode, const ImportanceConfig &cfg,
          const std::vector<double> &mean_abs_grad,
          const std::vector<std::int64_t> &iters, Rng &rng);

} // namespace core
} // namespace rog

#endif // ROG_CORE_IMPORTANCE_HPP
