/**
 * @file
 * Cache simulator tests: geometry, replacement policies, the paper's
 * equations, the 56-configuration sweep and its exact oracle (every
 * config against a standalone Cache), and the fully-associative LRU
 * inclusion property (parameterized).
 */

#include <set>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "workload/desktoptrace.h"

namespace pt
{
namespace
{

using cache::Cache;
using cache::CacheConfig;
using cache::CacheStats;
using cache::CacheSweep;
using cache::Policy;

CacheConfig
cfg(u32 size, u32 line, u32 assoc, Policy p = Policy::Lru)
{
    CacheConfig c;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.assoc = assoc;
    c.policy = p;
    return c;
}

TEST(CacheConfig, GeometryAndNames)
{
    CacheConfig c = cfg(2048, 32, 4);
    EXPECT_TRUE(c.valid());
    EXPECT_EQ(c.numSets(), 16u);
    EXPECT_EQ(c.name(), "2KB/32B/4way");
    EXPECT_EQ(cfg(256, 16, 1).name(), "256B/16B/1way");
}

TEST(CacheConfig, InvalidGeometriesRejected)
{
    EXPECT_FALSE(cfg(1000, 32, 1).valid());  // not divisible
    EXPECT_FALSE(cfg(1024, 24, 1).valid());  // line not power of two
    CacheConfig zero;
    zero.sizeBytes = 0;
    EXPECT_FALSE(zero.valid());
}

TEST(CacheConfig, DegenerateGeometryDoesNotDivideByZero)
{
    // A zero line size or associativity used to divide by zero in
    // numSets(); now the geometry reads as zero sets and validate()
    // names the offending field.
    CacheConfig zeroLine = cfg(1024, 0, 2);
    EXPECT_EQ(zeroLine.numSets(), 0u);
    EXPECT_FALSE(zeroLine.valid());
    EXPECT_EQ(zeroLine.validate().error().field, "lineBytes");

    CacheConfig zeroAssoc = cfg(1024, 32, 0);
    EXPECT_EQ(zeroAssoc.numSets(), 0u);
    EXPECT_FALSE(zeroAssoc.valid());
    EXPECT_EQ(zeroAssoc.validate().error().field, "assoc");
}

TEST(CacheConfig, ValidateNamesTheOffendingField)
{
    CacheConfig zeroSize = cfg(0, 32, 1);
    EXPECT_EQ(zeroSize.validate().error().field, "sizeBytes");

    // Line size must be a power of two (the offset mask needs it).
    EXPECT_EQ(cfg(1024, 24, 1).validate().error().field, "lineBytes");

    // Size must divide into whole sets of line*assoc bytes.
    EXPECT_EQ(cfg(1000, 32, 1).validate().error().field, "sizeBytes");

    // Set count must be a power of two (the index mask needs it).
    // 1536 B / (32 B * 1 way) = 48 sets: divisible but not a power
    // of two.
    EXPECT_EQ(cfg(1536, 32, 1).validate().error().field, "sizeBytes");

    // An associativity exceeding the line count makes waySize exceed
    // the cache: 256 B / (32 B * 16 ways) = 0 sets.
    EXPECT_FALSE(cfg(256, 32, 16).valid());

    EXPECT_TRUE(cfg(1024, 32, 2).validate().ok());
    EXPECT_EQ(cfg(1024, 32, 2).validate().message(), "ok");
}

TEST(CacheConfig, LineCountIsBounded)
{
    // 2 GB of 1-byte lines would have a cache allocate 2^31 lines.
    // Such a config can arrive from a journal on disk, so validate()
    // refuses it instead of the constructor trying.
    CacheConfig huge = cfg(0x80000000u, 1, 1);
    EXPECT_FALSE(huge.valid());
    EXPECT_EQ(huge.validate().error().field, "sizeBytes");
    EXPECT_FALSE(cfg(2u << 20, 1, 1).valid());
    EXPECT_TRUE(cfg(CacheConfig::kMaxLines, 1, 1).valid());
    EXPECT_TRUE(cfg(16u << 20, 16, 4).valid()); // 2^20 lines

    // Every config the benches, the CLI and the ablations build.
    for (const CacheConfig &c : CacheSweep::paper56())
        EXPECT_TRUE(c.valid()) << c.name();
    for (Policy p : {Policy::Lru, Policy::Fifo, Policy::Random})
        EXPECT_TRUE(cfg(4096, 32, 2, p).valid());
    for (u32 size : {1024u, 4096u, 16384u})
        EXPECT_TRUE(cfg(size, 32, 2).valid());
    EXPECT_TRUE(cfg(16384, 32, 4).valid());
    EXPECT_TRUE(cfg(8 * 1024, 32, 4).valid());
    EXPECT_TRUE(cfg(64 * 1024, 32, 8).valid());
}

TEST(Cache, ColdMissesThenHits)
{
    Cache c(cfg(1024, 16, 1));
    EXPECT_FALSE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x10F, false)); // same line
    EXPECT_FALSE(c.access(0x110, false)); // next line
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, DirectMappedConflict)
{
    // 256 B direct-mapped, 16 B lines: 16 sets. Addresses 0x0 and
    // 0x100 map to the same set and evict each other.
    Cache c(cfg(256, 16, 1));
    EXPECT_FALSE(c.access(0x000, false));
    EXPECT_FALSE(c.access(0x100, false));
    EXPECT_FALSE(c.access(0x000, false)); // evicted
    // Two-way associativity resolves the conflict.
    Cache c2(cfg(256, 16, 2));
    EXPECT_FALSE(c2.access(0x000, false));
    EXPECT_FALSE(c2.access(0x100, false));
    EXPECT_TRUE(c2.access(0x000, false));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // One set of 2 ways (32 B cache, 16 B lines, 2-way).
    Cache c(cfg(32, 16, 2));
    c.access(0x000, false); // miss, way 0
    c.access(0x100, false); // miss, way 1
    c.access(0x000, false); // hit: 0x100 becomes LRU
    c.access(0x200, false); // evicts 0x100
    EXPECT_TRUE(c.access(0x000, false));
    EXPECT_FALSE(c.access(0x100, false));
}

TEST(Cache, FifoIgnoresRecency)
{
    Cache c(cfg(32, 16, 2, Policy::Fifo));
    c.access(0x000, false);
    c.access(0x100, false);
    c.access(0x000, false); // hit, but FIFO order unchanged
    c.access(0x200, false); // evicts 0x000 (oldest insertion)
    EXPECT_FALSE(c.access(0x000, false));
}

TEST(Cache, RandomPolicyIsDeterministicForSeed)
{
    auto run = [](u64 seed) {
        Cache c(cfg(256, 16, 4, Policy::Random), seed);
        Rng r(99);
        for (int i = 0; i < 10000; ++i)
            c.access(static_cast<Addr>(r.below(4096)), false);
        return c.stats().misses;
    };
    EXPECT_EQ(run(1), run(1));
}

TEST(Cache, FlashAndRamAccountedSeparately)
{
    Cache c(cfg(1024, 32, 2));
    c.access(0x100, false);
    c.access(0x100, false);
    c.access(0x10C00000, true);
    EXPECT_EQ(c.stats().ramAccesses, 2u);
    EXPECT_EQ(c.stats().flashAccesses, 1u);
    EXPECT_EQ(c.stats().ramMisses, 1u);
    EXPECT_EQ(c.stats().flashMisses, 1u);
}

TEST(CacheEquations, NoCacheBaselineEq3)
{
    // Paper Table 1: flash at ~2/3 of refs gives ~2.35 cycles.
    double t = CacheStats::noCacheAccessTime(1000, 2000);
    EXPECT_NEAR(t, (1000.0 * 1 + 2000.0 * 3) / 3000.0, 1e-12);
    EXPECT_NEAR(CacheStats::noCacheAccessTime(325, 675), 2.35, 0.001);
}

TEST(CacheEquations, AvgAccessTimeEq2)
{
    CacheStats s;
    s.accesses = 1000;
    s.misses = 100;
    s.ramAccesses = 400;
    s.flashAccesses = 600;
    s.ramMisses = 30;
    s.flashMisses = 70;
    // Paper form: 1 + 0.4*0.1*1 + 0.6*0.1*3 = 1.22
    EXPECT_NEAR(s.avgAccessTimePaper(), 1.22, 1e-12);
    // Exact form: 1 + 30/1000*1 + 70/1000*3 = 1.24
    EXPECT_NEAR(s.avgAccessTimeExact(), 1.24, 1e-12);
    // A perfect cache costs exactly the hit time.
    CacheStats p;
    p.accesses = 10;
    EXPECT_DOUBLE_EQ(p.avgAccessTimePaper(), 1.0);
}

TEST(CacheSweepTest, Paper56Configurations)
{
    auto configs = CacheSweep::paper56();
    ASSERT_EQ(configs.size(), 56u);
    for (const auto &c : configs) {
        EXPECT_TRUE(c.valid()) << c.name();
        EXPECT_EQ(c.policy, Policy::Lru);
    }
    // 7 sizes x 2 lines x 4 associativities, all distinct.
    std::set<std::string> names;
    for (const auto &c : configs)
        names.insert(c.name());
    EXPECT_EQ(names.size(), 56u);
}

TEST(CacheSweepTest, FeedReachesAllCaches)
{
    CacheSweep sweep(CacheSweep::paper56());
    for (int i = 0; i < 1000; ++i)
        sweep.feed(static_cast<Addr>(i * 8), i % 3 == 0);
    sweep.finish();
    for (const auto &c : sweep.caches())
        EXPECT_EQ(c.stats().accesses, 1000u) << c.config().name();
}

using cache::ClassifiedRef;

/**
 * Every field of every config in @p configs, swept at jobs 1, 2 and
 * 8, equals a standalone Cache fed the same stream. The standalone
 * caches take the seeds the sweep gives its shards (§9), so Random
 * configs compare exactly too.
 */
void
expectMatchesStandalone(const std::vector<CacheConfig> &configs,
                        const std::vector<ClassifiedRef> &refs)
{
    std::vector<Cache> oracle;
    u64 seed = 0xCACEull;
    for (const CacheConfig &c : configs) {
        oracle.emplace_back(c, seed);
        seed += 0x9E3779B97F4A7C15ull;
    }
    for (const ClassifiedRef &r : refs) {
        for (Cache &c : oracle)
            c.access(r.addr, r.isFlash);
    }
    for (unsigned jobs : {1u, 2u, 8u}) {
        CacheSweep sweep(configs, jobs);
        for (const ClassifiedRef &r : refs)
            sweep.feed(r.addr, r.isFlash);
        sweep.finish();
        ASSERT_EQ(sweep.caches().size(), configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const CacheStats &want = oracle[i].stats();
            const CacheStats &got = sweep.caches()[i].stats();
            const std::string where =
                configs[i].name() + "/" +
                cache::policyName(configs[i].policy) +
                " at jobs=" + std::to_string(jobs);
            EXPECT_EQ(got.accesses, want.accesses) << where;
            EXPECT_EQ(got.misses, want.misses) << where;
            EXPECT_EQ(got.evictions, want.evictions) << where;
            EXPECT_EQ(got.ramAccesses, want.ramAccesses) << where;
            EXPECT_EQ(got.ramMisses, want.ramMisses) << where;
            EXPECT_EQ(got.flashAccesses, want.flashAccesses) << where;
            EXPECT_EQ(got.flashMisses, want.flashMisses) << where;
        }
    }
}

/** paper56 plus the geometries its families never reach, with FIFO
 *  and Random configs in the same sweep. */
std::vector<CacheConfig>
oracleConfigs()
{
    std::vector<CacheConfig> configs = CacheSweep::paper56();
    for (const CacheConfig &c : {
             cfg(256, 16, 16),    // deeper than 8, fully associative
             cfg(4096, 16, 256),  // fully associative, 256 deep
             cfg(1024, 32, 16),   // 2 sets, 16 deep
             cfg(64, 1, 1),       // 1-byte lines, direct-mapped
             cfg(256, 1, 4),      // 1-byte lines, 4-way
             cfg(16, 1, 16),      // 1-byte lines, one set
             cfg(4096, 64, 2),    // 64-byte lines
             cfg(8192, 64, 1),    // 64-byte lines, direct-mapped
             cfg(4096, 32, 2, Policy::Fifo),
             cfg(256, 1, 2, Policy::Fifo),
             cfg(1024, 16, 4, Policy::Random),
             cfg(256, 16, 8, Policy::Random),
         })
        configs.push_back(c);
    return configs;
}

TEST(CacheSweepTest, MatchesStandaloneCachesOnDesktopStream)
{
    // Long enough to cross three kBatchRefs flushes, so the filter's
    // previous-line register and the stacks carry across batches.
    std::vector<ClassifiedRef> refs;
    workload::DesktopTraceConfig tc;
    tc.refs = 3 * CacheSweep::kBatchRefs + 137;
    tc.seed = 4242;
    workload::DesktopTraceGen gen(tc);
    gen.generate([&](Addr a, u8) {
        refs.push_back({a, refs.size() % 3 != 0});
    });
    ASSERT_GT(refs.size(), 3 * CacheSweep::kBatchRefs);
    expectMatchesStandalone(oracleConfigs(), refs);
}

TEST(CacheSweepTest, MatchesStandaloneOnSameLineRunsOfBothClasses)
{
    // Runs of references to one line whose class alternates: the
    // filter drops all but the first of each run, and the dropped
    // ones must still count as accesses of their own class.
    std::vector<ClassifiedRef> refs;
    Rng rng(17);
    bool flash = false;
    while (refs.size() < 2 * CacheSweep::kBatchRefs + 500) {
        const Addr base = static_cast<Addr>(rng.below(1u << 14)) & ~15u;
        const u64 run = 1 + rng.below(6);
        for (u64 k = 0; k < run; ++k) {
            // Same 16-byte line; the same 1-byte line on even k.
            refs.push_back({base + (k % 2 ? static_cast<Addr>(k) : 0),
                            flash});
            flash = !flash;
        }
    }
    expectMatchesStandalone(oracleConfigs(), refs);
}

TEST(CacheSweepTest, FirstReferenceToLineZeroIsNotFiltered)
{
    // A previous-line register that started at line 0 would drop the
    // first reference as a repeat and lose its cold miss.
    const std::vector<ClassifiedRef> refs = {
        {0x0, false}, {0x0, true},  {0x4, false},  {0x100, true},
        {0x0, false}, {0x200, true}, {0x0, false}, {0x4000, false},
    };
    expectMatchesStandalone(oracleConfigs(), refs);

    CacheSweep sweep({cfg(256, 16, 1)}, 1);
    sweep.feed(0x0, false);
    sweep.finish();
    EXPECT_EQ(sweep.caches()[0].stats().misses, 1u);
}

TEST(CacheSweepTest, TopLineOfTheAddressSpace)
{
    // With 1-byte lines a line is the whole 32-bit address, so a
    // class bit packed into a shifted 32-bit line would collide
    // 0xFFFFFFFF with 0x7FFFFFFF. Both land in the same sets.
    std::vector<ClassifiedRef> refs;
    const Addr addrs[] = {0xFFFFFFFFu, 0x7FFFFFFFu, 0xFFFFFFF0u,
                          0xFFFFFFFEu, 0x0u,        0xFFFFFFFFu,
                          0x7FFFFFFFu, 0xFFFFFF00u, 0xFFFFFFC0u};
    for (int round = 0; round < 50; ++round) {
        for (std::size_t k = 0; k < std::size(addrs); ++k)
            refs.push_back({addrs[(k * 5 + round) % std::size(addrs)],
                            (k + round) % 2 == 0});
    }
    expectMatchesStandalone(oracleConfigs(), refs);
}

/** Fully-associative LRU inclusion: bigger cache never misses more. */
class LruInclusion : public testing::TestWithParam<u32>
{
};

TEST_P(LruInclusion, MissesNonIncreasingWithSize)
{
    u32 line = GetParam();
    // Fully associative: assoc = size / line.
    std::vector<Cache> caches;
    for (u32 size : {256u, 512u, 1024u, 2048u, 4096u})
        caches.emplace_back(cfg(size, line, size / line));

    workload::DesktopTraceConfig tc;
    tc.refs = 200'000;
    tc.seed = 1234 + line;
    workload::DesktopTraceGen gen(tc);
    gen.generate([&](Addr a, u8) {
        for (auto &c : caches)
            c.access(a, false);
    });

    for (std::size_t i = 1; i < caches.size(); ++i) {
        EXPECT_LE(caches[i].stats().misses,
                  caches[i - 1].stats().misses)
            << caches[i].config().name();
    }
}

INSTANTIATE_TEST_SUITE_P(Lines, LruInclusion,
                         testing::Values(16u, 32u, 64u));

/** Cold-start sanity across every paper configuration. */
class PaperConfigs : public testing::TestWithParam<int>
{
};

TEST_P(PaperConfigs, SequentialScanMissRateMatchesLineSize)
{
    auto configs = CacheSweep::paper56();
    const auto &c = configs[static_cast<std::size_t>(GetParam())];
    Cache cache(c);
    // A long sequential word scan misses once per line.
    const u32 n = 100'000;
    for (u32 i = 0; i < n; ++i)
        cache.access(i * 2, false);
    double expected = 2.0 / c.lineBytes;
    EXPECT_NEAR(cache.stats().missRate(), expected, expected * 0.05)
        << c.name();
}

INSTANTIATE_TEST_SUITE_P(All56, PaperConfigs, testing::Range(0, 56));

} // namespace
} // namespace pt
