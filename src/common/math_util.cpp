#include "common/math_util.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace rog {

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
stddev(const std::vector<double> &v)
{
    if (v.size() < 2)
        return 0.0;
    const double m = mean(v);
    double s = 0.0;
    for (double x : v)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(v.size()));
}

double
clamp(double v, double lo, double hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

double
bisect(const std::function<double(double)> &f, double lo, double hi,
       double tol)
{
    double flo = f(lo);
    double fhi = f(hi);
    ROG_ASSERT(flo * fhi <= 0.0, "bisect: no sign change on interval");
    while (hi - lo > tol) {
        const double mid = 0.5 * (lo + hi);
        const double fm = f(mid);
        if (flo * fm <= 0.0) {
            hi = mid;
            fhi = fm;
        } else {
            lo = mid;
            flo = fm;
        }
    }
    return 0.5 * (lo + hi);
}

Ewma::Ewma(double alpha, double initial) : alpha_(alpha), value_(initial)
{
    ROG_ASSERT(alpha > 0.0 && alpha <= 1.0, "ewma alpha must be in (0,1]");
}

double
Ewma::observe(double x)
{
    if (!seeded_) {
        value_ = x;
        seeded_ = true;
    } else {
        value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
    return value_;
}

} // namespace rog
