#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench {

void
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        ++checks_failed_;
        std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
    }
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        char num[64];
        // Non-finite values are not JSON; they only arise from a broken
        // run, which the failure count already reports.
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << num << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    const std::size_t k = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

double
tailQuantile(const std::vector<double> &v)
{
    constexpr double kBeyond = 10.0;
    const double n = static_cast<double>(v.size());
    return std::max(median(v), quantile(v, std::max(0.0, 1.0 - kBeyond / n)));
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

Tracer::Span::Span(Tracer *tracer, LayerClock &clock)
    : tracer_(tracer), clock_(clock)
{
    if (tracer_ == nullptr)
        return;
    tracer_->child_s_.push_back(0.0);
    start_ = Clock::now();
}

Tracer::Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    const double d = secondsSince(start_);
    const double nested = tracer_->child_s_.back();
    tracer_->child_s_.pop_back();
    clock_.self_s += d - nested;
    ++clock_.calls;
    if (!tracer_->child_s_.empty())
        tracer_->child_s_.back() += d;
}

} // namespace perfbench
