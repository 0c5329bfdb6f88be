/**
 * @file
 * Host-speed calibration. The host this benchmark runs on is shared,
 * and its speed moves by a quarter or more over minutes: the same work
 * takes more wall time and more CPU time alike, so neither clock can be
 * read raw. A probe, a fixed piece of work written here and not in the
 * libraries under src/ (so no change to the program moves it), is timed
 * between every two reps, and each rep's timings are scaled by the
 * probe readings on either side of it to what they would be on the
 * reference host (see README.md, "Host-speed scaling").
 */
#ifndef PERFBENCH_CALIBRATE_HPP
#define PERFBENCH_CALIBRATE_HPP

#include "parallel/thread_pool.hpp"

namespace perfbench {

/** Probe seconds on the reference host, a 4-vCPU Xeon VM (AVX-512) at
 *  a quiet time: on one thread, and the slowest of two threads that run
 *  it at once. */
constexpr double kReferenceProbeS = 0.014;
constexpr double kReferencePoolProbeS = 0.022;

/**
 * Probe readings around consecutive reps. The probe is binary-heap
 * pushes and pops (branchy, cache-resident integer work) and loopback
 * UDP datagrams sent and received on one thread (the kernel's network
 * path). The constructor takes the first reading; next(), called after
 * each rep, takes the next one and returns that rep's slowdown: the
 * mean of the readings on either side of it over the reference reading.
 * A rep's time divided by its slowdown (or its rate multiplied by it)
 * is the reference-host figure.
 *
 * With a pool, every thread of the pool runs the probe at once and a
 * reading is the slowest of them, as the pool's own regions wait for
 * their slowest thread.
 */
class HostProbe
{
  public:
    explicit HostProbe(rog::parallel::ThreadPool *pool = nullptr);

    double next();

  private:
    double read();

    rog::parallel::ThreadPool *pool_;
    double reference_s_;
    double last_s_;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HPP
