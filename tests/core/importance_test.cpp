/**
 * @file
 * Unit tests for ATP's importance metric (Algo 3).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "common/rng.hpp"
#include "core/importance.hpp"

namespace rog {
namespace core {
namespace {

TEST(ImportanceTest, WorkerModePrioritizesStaleRows)
{
    // Equal magnitudes: oldest push wins on a worker.
    ImportanceConfig cfg;
    Rng rng(1);
    std::vector<double> mags = {1.0, 1.0, 1.0};
    std::vector<std::int64_t> iters = {5, 1, 3}; // last pushed iter.
    const auto order =
        rankUnits(ImportanceMode::Worker, cfg, mags, iters, rng);
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(ImportanceTest, ServerModePrioritizesFreshRows)
{
    ImportanceConfig cfg;
    Rng rng(2);
    std::vector<double> mags = {1.0, 1.0, 1.0};
    std::vector<std::int64_t> iters = {5, 1, 3}; // last updated iter.
    const auto order =
        rankUnits(ImportanceMode::Server, cfg, mags, iters, rng);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(ImportanceTest, MagnitudeBreaksTiesAmongEquallyStale)
{
    ImportanceConfig cfg;
    Rng rng(3);
    std::vector<double> mags = {0.1, 0.9, 0.5};
    std::vector<std::int64_t> iters = {2, 2, 2};
    const auto order =
        rankUnits(ImportanceMode::Worker, cfg, mags, iters, rng);
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(ImportanceTest, F2ZeroIgnoresStaleness)
{
    ImportanceConfig cfg;
    cfg.f2 = 0.0;
    Rng rng(4);
    std::vector<double> mags = {0.1, 0.9};
    std::vector<std::int64_t> iters = {0, 100};
    const auto order =
        rankUnits(ImportanceMode::Worker, cfg, mags, iters, rng);
    EXPECT_EQ(order.front(), 1u);
}

TEST(ImportanceTest, F1ZeroIgnoresMagnitude)
{
    ImportanceConfig cfg;
    cfg.f1 = 0.0;
    Rng rng(5);
    std::vector<double> mags = {100.0, 0.001};
    std::vector<std::int64_t> iters = {10, 0};
    const auto order =
        rankUnits(ImportanceMode::Worker, cfg, mags, iters, rng);
    EXPECT_EQ(order.front(), 1u); // the stale one.
}

TEST(ImportanceTest, StalenessTermDominatesLargeAges)
{
    // Magnitude is mean-normalized, so a row 5 iterations stale beats
    // a 3x-average-magnitude fresh row with default coefficients.
    ImportanceConfig cfg;
    Rng rng(6);
    std::vector<double> mags = {3.0, 1.0, 1.0};
    std::vector<std::int64_t> iters = {10, 5, 10};
    const auto order =
        rankUnits(ImportanceMode::Worker, cfg, mags, iters, rng);
    EXPECT_EQ(order.front(), 1u);
}

TEST(ImportanceTest, ResultIsAlwaysAPermutation)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> mags(50);
        std::vector<std::int64_t> iters(50);
        for (std::size_t i = 0; i < 50; ++i) {
            mags[i] = rng.uniform();
            iters[i] = static_cast<std::int64_t>(rng.uniformInt(20));
        }
        ImportanceConfig cfg;
        const auto order =
            rankUnits(trial % 2 ? ImportanceMode::Worker
                                : ImportanceMode::Server,
                      cfg, mags, iters, rng);
        std::set<std::size_t> seen(order.begin(), order.end());
        EXPECT_EQ(seen.size(), 50u);
    }
}

TEST(ImportanceTest, RandomModeShuffles)
{
    ImportanceConfig cfg;
    cfg.random = true;
    Rng rng(8);
    std::vector<double> mags(100, 1.0);
    std::vector<std::int64_t> iters(100, 0);
    const auto order =
        rankUnits(ImportanceMode::Worker, cfg, mags, iters, rng);
    std::set<std::size_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), 100u);
    int displaced = 0;
    for (std::size_t i = 0; i < 100; ++i)
        if (order[i] != i)
            ++displaced;
    EXPECT_GT(displaced, 50);
}

TEST(ImportanceTest, DeterministicTieBreaking)
{
    ImportanceConfig cfg;
    Rng rng_a(9), rng_b(10);
    std::vector<double> mags(10, 1.0);
    std::vector<std::int64_t> iters(10, 3);
    const auto a =
        rankUnits(ImportanceMode::Worker, cfg, mags, iters, rng_a);
    const auto b =
        rankUnits(ImportanceMode::Worker, cfg, mags, iters, rng_b);
    EXPECT_EQ(a, b);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(a[i], i); // ties resolve to ascending index.
}

TEST(ImportanceTest, NanScoresRankLastInIndexOrder)
{
    // An infinite magnitude makes the mean infinite, the scale 0 and
    // that unit's score inf * 0 = NaN; the other units score by age.
    ImportanceConfig cfg;
    Rng rng(12);
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> mags = {inf, 1.0, inf, 2.0, inf, 1.0};
    std::vector<std::int64_t> iters = {0, 1, 2, 3, 4, 5};
    EXPECT_EQ(rankUnits(ImportanceMode::Worker, cfg, mags, iters, rng),
              (std::vector<std::size_t>{1, 3, 5, 0, 2, 4}));
    EXPECT_EQ(rankUnits(ImportanceMode::Server, cfg, mags, iters, rng),
              (std::vector<std::size_t>{5, 3, 1, 0, 2, 4}));

    // A NaN magnitude poisons the mean: every score but its own is the
    // age term.
    mags = {1.0, std::nan(""), 1.0, 1.0};
    iters = {3, 0, 3, 1};
    EXPECT_EQ(rankUnits(ImportanceMode::Worker, cfg, mags, iters, rng),
              (std::vector<std::size_t>{3, 0, 2, 1}));
}

/**
 * The ranking before (score desc, index asc) keys: a stable sort with
 * the pairwise comparator, over the same score formula. Kept as the
 * differential oracle for finite scores.
 */
std::vector<std::size_t>
stableSortOracle(ImportanceMode mode, const ImportanceConfig &cfg,
                 const std::vector<double> &mean_abs_grad,
                 const std::vector<std::int64_t> &iters)
{
    const std::size_t n = mean_abs_grad.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    double mag_mean = 0.0;
    for (double m : mean_abs_grad)
        mag_mean += m;
    mag_mean /= static_cast<double>(n);
    const double mag_scale = mag_mean > 0.0 ? 1.0 / mag_mean : 0.0;
    const auto [min_it, max_it] =
        std::minmax_element(iters.begin(), iters.end());
    std::vector<double> score(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double mag = cfg.f1 * mean_abs_grad[i] * mag_scale;
        const double age = (mode == ImportanceMode::Worker)
            ? static_cast<double>(*max_it - iters[i])
            : static_cast<double>(iters[i] - *min_it);
        score[i] = mag + cfg.f2 * age;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         if (score[a] != score[b])
                             return score[a] > score[b];
                         return a < b;
                     });
    return order;
}

TEST(ImportanceTest, MatchesStableSortOracleOnFiniteScores)
{
    // Few distinct magnitudes and ages, so most scores tie; sizes
    // cross the scoring grain (256) and the n <= 1 early return.
    // f2 * age is exact for these values, so the oracle rounds like
    // the library even where the compiler fuses multiply-adds.
    Rng rng(13);
    const double kMags[] = {0.0, 0.25, 0.5, 0.5, 1.0, 3.0};
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(trial % 4 == 0 ? 700 : 40);
        std::vector<double> mags(n);
        std::vector<std::int64_t> iters(n);
        for (std::size_t i = 0; i < n; ++i) {
            mags[i] = kMags[rng.uniformInt(6)];
            iters[i] = static_cast<std::int64_t>(rng.uniformInt(4));
        }
        ImportanceConfig cfg;
        cfg.f1 = trial % 3 == 0 ? 0.0 : 1.0;
        cfg.f2 = trial % 5 == 0 ? 0.0 : 0.5;
        for (ImportanceMode mode :
             {ImportanceMode::Worker, ImportanceMode::Server}) {
            ASSERT_EQ(rankUnits(mode, cfg, mags, iters, rng),
                      stableSortOracle(mode, cfg, mags, iters))
                << "trial " << trial << " n " << n;
        }
    }
}

TEST(ImportanceTest, SizeMismatchDies)
{
    ImportanceConfig cfg;
    Rng rng(11);
    std::vector<double> mags(3);
    std::vector<std::int64_t> iters(4);
    EXPECT_DEATH(rankUnits(ImportanceMode::Worker, cfg, mags, iters, rng),
                 "size");
}

} // namespace
} // namespace core
} // namespace rog
