#include "calibrate.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "report.hpp"

namespace perfbench {
namespace {

thread_local volatile std::uint64_t t_sink; // keeps results alive.

/** Two loopback UDP sockets, the second bound; closed with the thread. */
class UdpPair
{
  public:
    UdpPair()
    {
        tx_ = socket(AF_INET, SOCK_DGRAM, 0);
        rx_ = socket(AF_INET, SOCK_DGRAM, 0);
        sockaddr_in any{};
        any.sin_family = AF_INET;
        any.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof to_;
        if (tx_ < 0 || rx_ < 0 ||
            bind(rx_, reinterpret_cast<sockaddr *>(&any), sizeof any) != 0 ||
            getsockname(rx_, reinterpret_cast<sockaddr *>(&to_), &len) != 0)
            throw std::runtime_error("calibrate: no loopback UDP socket");
    }
    ~UdpPair()
    {
        if (tx_ >= 0)
            close(tx_);
        if (rx_ >= 0)
            close(rx_);
    }
    UdpPair(const UdpPair &) = delete;
    UdpPair &operator=(const UdpPair &) = delete;

    /** One datagram out and back in; false on a short send or receive. */
    bool
    roundTrip(std::uint8_t *buf, std::size_t n)
    {
        return sendto(tx_, buf, n, 0, reinterpret_cast<sockaddr *>(&to_),
                      sizeof to_) == static_cast<ssize_t>(n) &&
               recv(rx_, buf, n, 0) == static_cast<ssize_t>(n);
    }

  private:
    int tx_ = -1;
    int rx_ = -1;
    sockaddr_in to_{};
};

void
heapWork()
{
    thread_local std::vector<std::uint64_t> heap;
    heap.clear();
    std::uint64_t x = 12345;
    for (int i = 0; i < 200000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        heap.push_back(x >> 20);
        std::push_heap(heap.begin(), heap.end());
        if (heap.size() > 4096) {
            std::pop_heap(heap.begin(), heap.end());
            heap.pop_back();
        }
    }
    t_sink = heap.front();
}

void
udpWork()
{
    thread_local UdpPair pair;
    std::vector<std::uint8_t> buf(1200, 1);
    for (int i = 0; i < 3000; ++i)
        if (!pair.roundTrip(buf.data(), buf.size()))
            throw std::runtime_error("calibrate: loopback UDP probe failed");
}

/** Seconds of the probe on this thread. */
double
probeS()
{
    const Clock::time_point t0 = Clock::now();
    heapWork();
    udpWork();
    return secondsSince(t0);
}

} // namespace

HostProbe::HostProbe(rog::parallel::ThreadPool *pool)
    : pool_(pool),
      reference_s_(pool == nullptr ? kReferenceProbeS
                                   : kReferencePoolProbeS),
      last_s_(read())
{
}

double
HostProbe::next()
{
    const double now_s = read();
    const double slowdown = 0.5 * (last_s_ + now_s) / reference_s_;
    last_s_ = now_s;
    return slowdown;
}

double
HostProbe::read()
{
    if (pool_ == nullptr)
        return probeS();
    // The slowest task, not the region's wall time: when one thread
    // takes two tasks, the reading stays one probe long.
    std::vector<double> task_s(pool_->threads());
    pool_->run(task_s.size(), [&](std::size_t i) { task_s[i] = probeS(); });
    return *std::max_element(task_s.begin(), task_s.end());
}

} // namespace perfbench
