#include "common/buffer_pool.hpp"

#include <cstdlib>

#include "common/text_line.hpp"

namespace rog {

namespace {

/** Parse a non-negative size from @p env; @p fallback if unset/bad. */
std::size_t
envSize(const char *env, std::size_t fallback)
{
    const char *raw = std::getenv(env);
    std::uint64_t v = 0;
    if (raw == nullptr || !parseNumber(raw, v))
        return fallback;
    return static_cast<std::size_t>(v);
}

} // namespace

template <typename T>
BufferPool::Lease<T>
BufferPool::leaseFrom(SubPool<T> &sub, std::size_t n)
{
    std::vector<T> buf;
    {
        std::lock_guard<std::mutex> lock(sub.mu);
        ++sub.stats.leases;
        ++sub.stats.outstanding;
        if (sub.stats.outstanding > sub.stats.peak_outstanding)
            sub.stats.peak_outstanding = sub.stats.outstanding;
        if (!sub.free.empty()) {
            // Largest-capacity buffer last: take it to minimize the
            // chance the resize below has to reallocate.
            buf = std::move(sub.free.back());
            sub.free.pop_back();
            sub.stats.resident_bytes -= buf.capacity() * sizeof(T);
            ++sub.stats.reuses;
        } else {
            ++sub.stats.allocations;
        }
    }
    buf.resize(n);
    return Lease<T>(this, std::move(buf));
}

template <typename T>
void
BufferPool::giveTo(SubPool<T> &sub, std::vector<T> buf)
{
    std::lock_guard<std::mutex> lock(sub.mu);
    if (sub.stats.outstanding > 0)
        --sub.stats.outstanding;
    if (buf.capacity() == 0)
        return; // moved-from husk, nothing to recycle.
    if (buf.capacity() * sizeof(T) > max_pooled_bytes_ ||
        sub.free.size() >= max_free_buffers_) {
        ++sub.stats.dropped;
        return; // freed by ~buf.
    }
    sub.stats.resident_bytes += buf.capacity() * sizeof(T);
    // Keep the free list sorted by capacity so leaseFrom() always
    // grabs the biggest buffer (fewest regrows).
    auto it = sub.free.begin();
    while (it != sub.free.end() && it->capacity() <= buf.capacity())
        ++it;
    sub.free.insert(it, std::move(buf));
}

BufferPool::Lease<std::uint8_t>
BufferPool::leaseBytes(std::size_t n)
{
    return leaseFrom(bytes_, n);
}

BufferPool::Lease<float>
BufferPool::leaseFloats(std::size_t n)
{
    return leaseFrom(floats_, n);
}

BufferPool::Lease<std::size_t>
BufferPool::leaseIndices(std::size_t n)
{
    return leaseFrom(indices_, n);
}

void
BufferPool::give(std::vector<std::uint8_t> buf)
{
    giveTo(bytes_, std::move(buf));
}

void
BufferPool::give(std::vector<float> buf)
{
    giveTo(floats_, std::move(buf));
}

void
BufferPool::give(std::vector<std::size_t> buf)
{
    giveTo(indices_, std::move(buf));
}

BufferPool::Stats
BufferPool::stats() const
{
    Stats total;
    auto add = [&total](const auto &sub) {
        std::lock_guard<std::mutex> lock(sub.mu);
        total.leases += sub.stats.leases;
        total.reuses += sub.stats.reuses;
        total.allocations += sub.stats.allocations;
        total.dropped += sub.stats.dropped;
        total.outstanding += sub.stats.outstanding;
        total.peak_outstanding += sub.stats.peak_outstanding;
        total.resident_bytes += sub.stats.resident_bytes;
    };
    add(bytes_);
    add(floats_);
    add(indices_);
    return total;
}

void
BufferPool::setCaps(std::size_t max_bytes, std::size_t max_buffers)
{
    max_pooled_bytes_ = max_bytes;
    max_free_buffers_ = max_buffers;
}

BufferPool &
BufferPool::global()
{
    // Leaked on purpose (like ThreadPool::global()): leases may be
    // returned from static destructors in arbitrary order.
    static BufferPool *pool = [] {
        auto *p = new BufferPool();
        p->setCaps(envSize("ROG_POOL_MAX_BYTES", kMaxPooledCapacity),
                   envSize("ROG_POOL_MAX_BUFFERS", kMaxFreeBuffers));
        return p;
    }();
    return *pool;
}

} // namespace rog
