#include "parallel/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/logging.hpp"
#include "common/text_line.hpp"

namespace rog {
namespace parallel {

namespace {

std::atomic<std::size_t> g_thread_override{0};
std::atomic<bool> g_global_created{false};

// Set while a thread is executing tasks of a pool region. A nested
// run() on such a thread executes inline: chunk boundaries are
// unchanged (they depend only on range and grain), so results stay
// bitwise identical — the inner region just runs on one thread.
thread_local bool t_in_region = false;

} // namespace

ThreadPool::ThreadPool(std::size_t threads) : threads_(threads)
{
    ROG_ASSERT(threads >= 1, "thread pool needs at least the caller");
    workers_.reserve(threads - 1);
    for (std::size_t i = 0; i + 1 < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ThreadPool::run(std::size_t tasks, const std::function<void(std::size_t)> &fn)
{
    if (tasks == 0)
        return;
    if (workers_.empty() || tasks == 1 || t_in_region) {
        // Inline fast path: no pool traffic, byte-for-byte the
        // single-threaded library. Also taken for nested regions.
        for (std::size_t i = 0; i < tasks; ++i)
            fn(i);
        return;
    }

    std::unique_lock<std::mutex> lock(mu_);
    ROG_ASSERT(fn_ == nullptr, "thread pool regions must not nest");
    fn_ = &fn;
    task_count_ = tasks;
    next_ = 0;
    pending_ = tasks;
    ++generation_;
    work_cv_.notify_all();

    // The caller claims tasks like any worker.
    t_in_region = true;
    while (next_ < task_count_) {
        const std::size_t idx = next_++;
        lock.unlock();
        fn(idx);
        lock.lock();
        --pending_;
    }
    t_in_region = false;
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    fn_ = nullptr;
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    std::uint64_t seen = 0;
    for (;;) {
        work_cv_.wait(lock, [&] {
            return stop_ || (generation_ != seen && next_ < task_count_);
        });
        if (stop_)
            return;
        seen = generation_;
        t_in_region = true;
        while (fn_ != nullptr && next_ < task_count_) {
            const std::size_t idx = next_++;
            const auto *fn = fn_;
            lock.unlock();
            (*fn)(idx);
            lock.lock();
            if (--pending_ == 0)
                done_cv_.notify_all();
        }
        t_in_region = false;
    }
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(resolveThreads());
    g_global_created.store(true, std::memory_order_relaxed);
    return pool;
}

std::size_t
ThreadPool::resolveThreads()
{
    const std::size_t forced = g_thread_override.load();
    if (forced > 0)
        return forced;
    const char *env = std::getenv("ROG_THREADS");
    std::uint64_t v = 0;
    if (env == nullptr || !parseNumber(env, v) || v < 1)
        return 1;
    return static_cast<std::size_t>(v);
}

void
ThreadPool::setThreads(std::size_t threads)
{
    if (g_global_created.load(std::memory_order_relaxed))
        return; // the live pool is never resized.
    g_thread_override.store(threads == 0 ? 1 : threads);
}

} // namespace parallel
} // namespace rog
