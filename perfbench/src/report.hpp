/**
 * @file
 * Shared pieces of the benchmark program: run options, the result
 * record every workload fills, order statistics, and the span tracer
 * the traced runs wrap around calls into each layer.
 */
#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Metric values by name; main.cpp orders and labels them. */
using Values = std::map<std::string, double>;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch_dir; //!< private directory for checkpoint files.
};

/**
 * What one run reports: operations attempted and failed (every failed
 * send, missing iteration, unfinished node and failed check counts),
 * and the metrics, printed in the order they were added.
 */
class Report
{
  public:
    /** Count @p n attempted operations of which @p failed failed. */
    void
    attempt(std::uint64_t n, std::uint64_t failed = 0)
    {
        attempted_ += n;
        failed_ += failed;
    }

    /** One correctness check; a false @p ok is a failure. */
    void check(bool ok, const std::string &what);

    void add(const std::string &name, double value,
             const std::string &unit);

    /** Every check passed (failed operations are counted, not judged). */
    bool correct() const { return checks_failed_ == 0; }

    /** The one-line JSON result object. */
    std::string json() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t checks_failed_ = 0;
    std::vector<Metric> metrics_;
};

/** f(rep) for every rep, in order. */
template <typename Rep, typename F>
std::vector<double>
collect(const std::vector<Rep> &reps, F f)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(f(r));
    return v;
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile @p q in [0, 1] of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/**
 * The highest nearest-rank quantile of @p v that has at least ten
 * samples above it, and never less than the median: the tail a few
 * dozen samples can report steadily, where their 99th percentile would
 * be their maximum.
 */
double tailQuantile(const std::vector<double> &v);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Accumulated self time and call count of one traced layer. */
struct LayerClock
{
    double self_s = 0.0;
    std::uint64_t calls = 0;
};

/**
 * Nested spans on one thread. A span's self time is its duration minus
 * the time of the spans opened inside it, so the layer clocks of one
 * traced run add up to at most the wall time.
 */
class Tracer
{
  public:
    class Span
    {
      public:
        /** No-op when @p tracer is null (the untraced run). */
        Span(Tracer *tracer, LayerClock &clock);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_;
        LayerClock &clock_;
        Clock::time_point start_;
    };

  private:
    std::vector<double> child_s_; //!< per open span: nested time.
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HPP
