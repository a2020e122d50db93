/**
 * @file
 * Unit tests for the worker pool: chunk claiming, caller
 * participation, inline degradation at jobs = 1, nested parallelFor
 * from worker threads, exception propagation, parallelMap ordering,
 * and clean teardown with work still queued.
 */

#include <atomic>
#include <chrono>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/threadpool.h"

namespace pt
{
namespace
{

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 10'000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, JobsOneRunsInlineOnTheCaller)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    std::thread::id caller = std::this_thread::get_id();
    std::size_t ran = 0;
    pool.parallelFor(100, [&](std::size_t) {
        // Inline execution means no synchronization is needed here.
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++ran;
    });
    EXPECT_EQ(ran, 100u);
}

TEST(ThreadPool, EmptyLoopIsANoOp)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, GrainBatchesIndices)
{
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(
        1000,
        [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        64);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ExceptionInTaskPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(1000,
                         [&](std::size_t i) {
                             if (i == 137)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);

    // The pool survives a failed loop and runs later work.
    std::atomic<std::size_t> count{0};
    pool.parallelFor(100, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPool, WorkerThreadExceptionRethrownOnCaller)
{
    // Regression: an exception thrown on a *pool worker* thread (not
    // the caller running items inline) must be captured and rethrown
    // on the submitting thread with its message intact. The caller's
    // chunks spin until a worker has demonstrably run an item, so the
    // throw is guaranteed to originate off-caller.
    ThreadPool pool(4);
    std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> workerThrew{false};
    bool caught = false;
    try {
        pool.parallelFor(
            256,
            [&](std::size_t) {
                if (std::this_thread::get_id() == caller) {
                    // Park the caller until a worker item has thrown
                    // (bounded so a broken pool fails, not hangs).
                    for (int spin = 0;
                         !workerThrew.load(std::memory_order_acquire) &&
                         spin < 5000;
                         ++spin) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    }
                    return;
                }
                workerThrew.store(true, std::memory_order_release);
                throw std::runtime_error("chaos-worker-42");
            },
            1);
    } catch (const std::runtime_error &e) {
        caught = true;
        EXPECT_STREQ(e.what(), "chaos-worker-42");
    }
    EXPECT_TRUE(workerThrew.load()) << "no pool worker ever ran an item";
    EXPECT_TRUE(caught) << "worker exception was swallowed";

    // The pool must stay usable after the failed loop.
    std::atomic<std::size_t> n{0};
    pool.parallelFor(64, [&](std::size_t) {
        n.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(n.load(), 64u);
}

TEST(ThreadPool, WorkerBadAllocKeepsItsType)
{
    // std::bad_alloc from a work item must arrive on the caller as
    // std::bad_alloc, not be flattened into a generic exception.
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](std::size_t i) {
                                      if (i % 7 == 3)
                                          throw std::bad_alloc();
                                  }),
                 std::bad_alloc);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    // A worker that calls parallelFor must not deadlock waiting for
    // peers that are busy with the outer loop; nested calls run
    // inline on the worker.
    ThreadPool pool(2);
    std::atomic<std::size_t> inner{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(10, [&](std::size_t) {
            inner.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner.load(), 80u);
}

TEST(ThreadPool, ParallelMapPreservesOrder)
{
    ThreadPool pool(4);
    std::vector<int> in;
    for (int i = 0; i < 500; ++i)
        in.push_back(i);
    std::vector<std::string> out =
        pool.parallelMap(in, [](const int &v) {
            return std::to_string(v * 3);
        });
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(out[i], std::to_string(static_cast<int>(i) * 3));
}

TEST(ThreadPool, ManySmallLoopsOnOnePool)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> total{0};
    for (int round = 0; round < 200; ++round) {
        pool.parallelFor(17, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(total.load(), 200u * 17u);
}

TEST(ThreadPool, TeardownWithIdleWorkersIsClean)
{
    // Construct and destroy pools repeatedly; destruction must join
    // every worker (no leaks, no crashes under TSan).
    for (int i = 0; i < 20; ++i) {
        ThreadPool pool(3);
        std::atomic<std::size_t> n{0};
        pool.parallelFor(10, [&](std::size_t) {
            n.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(n.load(), 10u);
    }
}

TEST(ThreadPool, ConcurrentLoopsFromManyThreads)
{
    // External threads may submit loops to one pool concurrently.
    ThreadPool pool(4);
    std::atomic<std::size_t> total{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&] {
            for (int round = 0; round < 50; ++round) {
                pool.parallelFor(31, [&](std::size_t) {
                    total.fetch_add(1, std::memory_order_relaxed);
                });
            }
        });
    }
    for (auto &c : clients)
        c.join();
    EXPECT_EQ(total.load(), 4u * 50u * 31u);
}

TEST(ThreadPoolDefaults, HardwareAndOverride)
{
    EXPECT_GE(hardwareJobs(), 1u);
    unsigned before = defaultJobs();
    setDefaultJobs(3);
    EXPECT_EQ(defaultJobs(), 3u);
    setDefaultJobs(0); // back to the environment/hardware default
    EXPECT_EQ(defaultJobs(), before);
}

TEST(ThreadPoolDefaults, ParseJobsAcceptsOnlyInRangeIntegers)
{
    // The one parser behind --jobs and PT_JOBS: 0 means "rejected".
    const struct
    {
        const char *text;
        unsigned want;
    } cases[] = {
        {"8", 8},    {"1024", 1024}, {"0", 0},  {"-1", 0},
        {"1025", 0}, {"abc", 0},     {"8x", 0}, {"", 0},
    };
    for (const auto &c : cases)
        EXPECT_EQ(parseJobs(c.text), c.want) << '"' << c.text << '"';
    EXPECT_EQ(parseJobs(nullptr), 0u);
}

TEST(ThreadPoolDefaults, ParseCountAndScaleRejectBadText)
{
    // The checked parsers behind every integer and real flag of the
    // CLI: a rejected value (0 here) makes it exit 2 naming the flag.
    constexpr u64 kMax = u64{1} << 20;
    const struct
    {
        const char *text;
        u64 want;
    } counts[] = {
        {"1", 1},       {"1048576", kMax}, {"1048577", 0},
        {"0", 0},       {"-1", 0},         {"+3", 0},
        {"abc", 0},     {"8x", 0},         {"", 0},
        {" 8", 0},      {"4294967295", 0}, {"99999999999999999999", 0},
    };
    for (const auto &c : counts) {
        EXPECT_EQ(parseCount(c.text, 1, kMax).value_or(0), c.want)
            << '"' << c.text << '"';
    }
    EXPECT_FALSE(parseCount(nullptr, 1, kMax));

    // A lower bound of 0 accepts 0; the full u64 range stops exactly
    // at 2^64 - 1 instead of saturating.
    EXPECT_EQ(parseCount("0", 0, 10), std::optional<u64>(0));
    EXPECT_FALSE(parseCount("11", 0, 10));
    EXPECT_FALSE(parseCount("-0", 0, 10));
    EXPECT_FALSE(parseCount("65535", 65536, kMax));
    EXPECT_EQ(parseCount("18446744073709551615", 0, ~u64{0}),
              std::optional<u64>(~u64{0}));
    EXPECT_FALSE(parseCount("18446744073709551616", 0, ~u64{0}));

    const struct
    {
        const char *text;
        double want;
    } scales[] = {
        {"1", 1.0},  {"0.25", 0.25}, {".5", 0.5}, {"2e1", 20.0},
        {"0", 0.0},  {"0.0", 0.0},   {"-1", 0.0}, {"abc", 0.0},
        {"1x", 0.0}, {"", 0.0},      {"inf", 0.0}, {"nan", 0.0},
        {"1e999", 0.0},
    };
    for (const auto &c : scales)
        EXPECT_EQ(parseScale(c.text), c.want) << '"' << c.text << '"';
    EXPECT_EQ(parseScale(nullptr), 0.0);
}

TEST(ThreadPoolDefaults, SharedPoolFollowsDefault)
{
    setDefaultJobs(2);
    EXPECT_EQ(ThreadPool::shared().jobs(), 2u);
    std::atomic<std::size_t> n{0};
    ThreadPool::shared().parallelFor(64, [&](std::size_t) {
        n.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(n.load(), 64u);
    setDefaultJobs(0);
}

} // namespace
} // namespace pt
