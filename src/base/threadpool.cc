#include "threadpool.h"

#include <atomic>
#include <cmath>
#include <cstdlib>

namespace pt
{

namespace
{

std::atomic<unsigned> gJobsOverride{0};
thread_local bool tlOnWorker = false;

} // namespace

u64
parseCount(const char *s, u64 max)
{
    if (!s || *s < '0' || *s > '9')
        return 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end || v == 0 || v > max)
        return 0;
    return v;
}

unsigned
parseJobs(const char *s)
{
    return static_cast<unsigned>(parseCount(s, kMaxJobs));
}

double
parseScale(const char *s)
{
    if (!s || !((*s >= '0' && *s <= '9') || *s == '.'))
        return 0;
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (*end || !std::isfinite(v) || v <= 0)
        return 0;
    return v;
}

unsigned
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
defaultJobs()
{
    if (unsigned o = gJobsOverride.load(std::memory_order_relaxed))
        return o;
    if (unsigned e = parseJobs(std::getenv("PT_JOBS")))
        return e;
    return hardwareJobs();
}

void
setDefaultJobs(unsigned jobs)
{
    gJobsOverride.store(jobs, std::memory_order_relaxed);
}

/** One parallelFor invocation: a chunk cursor workers pull from. */
struct ThreadPool::Loop
{
    std::size_t n = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t)> *body = nullptr;

    std::atomic<std::size_t> cursor{0};    ///< next unclaimed index
    std::atomic<std::size_t> completed{0}; ///< items finished
    std::atomic<bool> failed{false};

    std::mutex doneM; ///< guards err and pairs with doneCv
    std::condition_variable doneCv;
    std::exception_ptr err;

    bool
    exhausted() const
    {
        return cursor.load(std::memory_order_relaxed) >= n;
    }

    bool
    finished() const
    {
        return completed.load(std::memory_order_acquire) >= n;
    }
};

ThreadPool::ThreadPool(unsigned jobs)
    : jobCount(jobs ? jobs : defaultJobs())
{
    if (jobCount < 1)
        jobCount = 1;
    workers.reserve(jobCount - 1);
    for (unsigned w = 1; w < jobCount; ++w)
        workers.emplace_back([this, w] { workerMain(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(m);
        stopping = true;
    }
    wake.notify_all();
    for (auto &t : workers)
        t.join();
}

bool
ThreadPool::onWorkerThread()
{
    return tlOnWorker;
}

void
ThreadPool::workerMain(unsigned)
{
    tlOnWorker = true;
    for (;;) {
        std::shared_ptr<Loop> loop;
        {
            std::unique_lock<std::mutex> lk(m);
            wake.wait(lk,
                      [&] { return stopping || !pending.empty(); });
            if (stopping)
                return;
            loop = pending.front();
            if (loop->exhausted()) {
                // Claimed out; drop it so the queue drains. The
                // issuing parallelFor still waits for completion.
                pending.pop_front();
                continue;
            }
        }
        runLoop(*loop);
    }
}

void
ThreadPool::runLoop(Loop &loop)
{
    for (;;) {
        std::size_t start = loop.cursor.fetch_add(
            loop.grain, std::memory_order_relaxed);
        if (start >= loop.n)
            return;
        std::size_t end = start + loop.grain;
        if (end > loop.n)
            end = loop.n;
        // After a failure the loop only drains: remaining chunks are
        // counted as completed without running the body.
        if (!loop.failed.load(std::memory_order_relaxed)) {
            for (std::size_t i = start; i < end; ++i) {
                try {
                    (*loop.body)(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lk(loop.doneM);
                    if (!loop.err)
                        loop.err = std::current_exception();
                    loop.failed.store(true,
                                      std::memory_order_relaxed);
                    break;
                }
            }
        }
        loop.completed.fetch_add(end - start,
                                 std::memory_order_release);
        if (loop.finished()) {
            std::lock_guard<std::mutex> lk(loop.doneM);
            loop.doneCv.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body,
                        std::size_t grain)
{
    if (n == 0)
        return;
    if (grain == 0)
        grain = 1;

    // Inline execution: one job, or a nested call from a worker (a
    // worker blocking on an inner loop could deadlock the pool).
    if (jobCount == 1 || tlOnWorker) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    auto loop = std::make_shared<Loop>();
    loop->n = n;
    loop->grain = grain;
    loop->body = &body;
    {
        std::lock_guard<std::mutex> lk(m);
        pending.push_back(loop);
    }
    wake.notify_all();

    // The caller is a full participant.
    runLoop(*loop);

    {
        std::unique_lock<std::mutex> lk(loop->doneM);
        loop->doneCv.wait(lk, [&] { return loop->finished(); });
    }
    {
        // Retire the loop if no worker got to it first.
        std::lock_guard<std::mutex> lk(m);
        for (auto it = pending.begin(); it != pending.end(); ++it) {
            if (it->get() == loop.get()) {
                pending.erase(it);
                break;
            }
        }
    }
    if (loop->err)
        std::rethrow_exception(loop->err);
}

ThreadPool &
ThreadPool::shared()
{
    static std::mutex gm;
    static std::unique_ptr<ThreadPool> pool;
    std::lock_guard<std::mutex> lk(gm);
    // Rebuild when --jobs / PT_JOBS changed the target size; never
    // from inside the pool itself (a worker joining itself).
    if (!pool || (!tlOnWorker && pool->jobs() != defaultJobs()))
        pool = std::make_unique<ThreadPool>(defaultJobs());
    return *pool;
}

} // namespace pt
