/**
 * @file
 * A fixed-size work-stealing thread pool for the embarrassingly
 * parallel parts of the pipeline (the 56-configuration cache sweep,
 * batch session replay, bench drivers).
 *
 * Design rules, in the spirit of the deterministic state machine the
 * simulator is built on:
 *
 *  - Parallelism must never change results. parallelFor/parallelMap
 *    only split *independent* work items; item i always observes the
 *    same inputs regardless of the worker count or schedule, and
 *    parallelMap writes results by index so output order is fixed.
 *  - jobs == 1 degrades to inline execution on the calling thread:
 *    no workers are started, no locks are taken on the work path, so
 *    the sequential baseline truly is the single-threaded code.
 *  - The worker count comes from, in priority order: an explicit
 *    constructor/call-site value, setDefaultJobs() (the CLI's
 *    --jobs N), the PT_JOBS environment variable, and finally the
 *    hardware concurrency.
 *  - Exceptions thrown by work items are captured and the first one
 *    is rethrown on the calling thread after the loop drains.
 *  - Nested parallelFor calls from inside a worker run inline (no
 *    deadlock, no oversubscription).
 */

#ifndef PT_BASE_THREADPOOL_H
#define PT_BASE_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/types.h"

namespace pt
{

/** @return the machine's hardware thread count (at least 1). */
unsigned hardwareJobs();

/**
 * @return the process-default worker count: setDefaultJobs() override
 * if set, else PT_JOBS when valid, else hardwareJobs().
 */
unsigned defaultJobs();

/** Sets (0 clears) the process-wide --jobs override. */
void setDefaultJobs(unsigned jobs);

/** The largest worker count parseJobs() accepts. */
inline constexpr unsigned kMaxJobs = 1024;

/**
 * Parses a worker count (--jobs N, PT_JOBS): a plain decimal integer
 * in [1, kMaxJobs]. @return 0 for anything else — null, empty, signs,
 * trailing junk, zero, or out of range.
 */
unsigned parseJobs(const char *s);

/**
 * Parses a count option (--jobs, a fleet's --count): a plain decimal
 * integer in [1, @p max]. @return 0 for anything else, as parseJobs.
 */
u64 parseCount(const char *s, u64 max);

/**
 * Parses a scale factor (--scale): a plain decimal number that is
 * finite and > 0. @return 0 for anything else — null, empty, signs,
 * trailing junk, zero, inf or nan.
 */
double parseScale(const char *s);

/** A fixed-size work-stealing pool. */
class ThreadPool
{
  public:
    /** @param jobs worker count; 0 means defaultJobs(). */
    explicit ThreadPool(unsigned jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The number of threads doing work (>= 1, counts the caller). */
    unsigned jobs() const { return jobCount; }

    /**
     * Runs body(i) for every i in [0, n), spread over the pool; the
     * calling thread participates. Items are handed out in chunks of
     * @p grain from a shared cursor; idle workers steal the remainder,
     * so uneven item costs still balance. Blocks until every item has
     * run; rethrows the first work-item exception.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body,
                     std::size_t grain = 1);

    /**
     * Maps fn over items, returning results in input order (slot i is
     * always fn(items[i]), whatever the schedule).
     */
    template <typename T, typename Fn>
    auto
    parallelMap(const std::vector<T> &items, Fn fn)
        -> std::vector<decltype(fn(items[std::size_t(0)]))>
    {
        using R = decltype(fn(items[std::size_t(0)]));
        std::vector<R> out(items.size());
        parallelFor(items.size(),
                    [&](std::size_t i) { out[i] = fn(items[i]); });
        return out;
    }

    /**
     * The shared process pool, sized from defaultJobs(). Rebuilt on
     * next use if setDefaultJobs()/PT_JOBS changed the target size;
     * do not change the job count from inside parallel work.
     */
    static ThreadPool &shared();

    /** True when the calling thread is one of this pool's workers. */
    static bool onWorkerThread();

  private:
    struct Loop; ///< one parallelFor's shared state

    void workerMain(unsigned self);
    void runLoop(Loop &loop);

    unsigned jobCount;                ///< workers + caller
    std::vector<std::thread> workers; ///< jobCount - 1 threads
    std::mutex m;
    std::condition_variable wake;
    std::deque<std::shared_ptr<Loop>> pending; ///< open loops
    bool stopping = false;
};

} // namespace pt

#endif // PT_BASE_THREADPOOL_H
