/**
 * @file
 * Small numeric helpers shared across modules.
 */
#ifndef ROG_COMMON_MATH_UTIL_HPP
#define ROG_COMMON_MATH_UTIL_HPP

#include <cstddef>
#include <functional>
#include <vector>

namespace rog {

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &v);

/** Population standard deviation; 0 for fewer than two samples. */
double stddev(const std::vector<double> &v);

/** Clamp v to [lo, hi]. */
double clamp(double v, double lo, double hi);

/**
 * Find a root of f on [lo, hi] by bisection.
 *
 * @pre f(lo) and f(hi) have opposite signs.
 * @param tol absolute tolerance on the argument.
 */
double bisect(const std::function<double(double)> &f, double lo, double hi,
              double tol = 1e-10);

/**
 * Exponentially weighted moving average estimator.
 * value() returns the current estimate; before any observation it
 * returns the configured initial value.
 */
class Ewma
{
  public:
    /** @param alpha weight of a new observation, in (0, 1]. */
    explicit Ewma(double alpha, double initial = 0.0);

    /** Fold in a new observation and return the updated estimate. */
    double observe(double x);

    double value() const { return value_; }
    bool seeded() const { return seeded_; }

    /**
     * Overwrite the estimator state (checkpoint restore). alpha is
     * configuration, not state, and is left untouched.
     */
    void restore(double value, bool seeded)
    {
        value_ = value;
        seeded_ = seeded;
    }

  private:
    double alpha_;
    double value_;
    bool seeded_ = false;
};

} // namespace rog

#endif // ROG_COMMON_MATH_UTIL_HPP
