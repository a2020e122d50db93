#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "workloads.h"

namespace perfbench
{

namespace
{

/** Keeps the kernels' results observable. */
std::atomic<u64> probeSink{0};

/** A fixed single-config cache kernel: ~2 M accesses of an LCG
 *  address stream over 128 KB, through a 4 KB 2-way cache. */
void
cacheKernel()
{
    pt::cache::CacheConfig cfg;
    cfg.sizeBytes = 4096;
    cfg.lineBytes = 16;
    cfg.assoc = 2;
    pt::cache::Cache c(cfg);
    u64 x = 0x2545F4914F6CDD1Dull;
    for (int i = 0; i < 2'000'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        c.access(static_cast<pt::Addr>((x >> 40) & 0x1FFFF), false);
    }
    probeSink += c.stats().misses;
}

double
timeCopies(unsigned copies)
{
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < copies; ++i)
        threads.emplace_back(cacheKernel);
    for (std::thread &t : threads)
        t.join();
    return secondsSince(t0);
}

} // namespace

double
probeParallelCapacity()
{
    const unsigned k = std::max(2u, std::thread::hardware_concurrency());
    std::vector<double> ratios;
    for (int rep = 0; rep < 3; ++rep) {
        const double one = timeCopies(1);
        const double many = timeCopies(k);
        ratios.push_back(static_cast<double>(k) * one / many);
    }
    return median(ratios);
}

} // namespace perfbench
