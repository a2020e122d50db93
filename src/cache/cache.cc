#include "cache.h"

#include <algorithm>
#include <cstdio>
#include <new>

#include "base/logging.h"
#include "base/threadpool.h"

namespace pt::cache
{

const char *
policyName(Policy p)
{
    switch (p) {
      case Policy::Lru: return "LRU";
      case Policy::Fifo: return "FIFO";
      default: return "Random";
    }
}

std::string
CacheConfig::name() const
{
    char buf[64];
    if (sizeBytes >= 1024) {
        std::snprintf(buf, sizeof(buf), "%uKB/%uB/%uway",
                      sizeBytes / 1024, lineBytes, assoc);
    } else {
        std::snprintf(buf, sizeof(buf), "%uB/%uB/%uway", sizeBytes,
                      lineBytes, assoc);
    }
    return buf;
}

LoadResult
CacheConfig::validate() const
{
    if (sizeBytes == 0)
        return LoadResult::fail(0, "sizeBytes", "must be nonzero");
    if (lineBytes == 0)
        return LoadResult::fail(0, "lineBytes", "must be nonzero");
    if (assoc == 0)
        return LoadResult::fail(0, "assoc", "must be nonzero");
    if (lineBytes & (lineBytes - 1))
        return LoadResult::fail(0, "lineBytes",
                                "must be a power of two");
    if (sizeBytes / lineBytes > kMaxLines)
        return LoadResult::fail(
            0, "sizeBytes",
            std::to_string(sizeBytes / lineBytes) +
                " lines exceed the limit of " +
                std::to_string(kMaxLines));
    u64 waySize = static_cast<u64>(lineBytes) * assoc;
    if (sizeBytes % waySize)
        return LoadResult::fail(
            0, "sizeBytes",
            "not divisible by lineBytes * assoc (" +
                std::to_string(waySize) + ")");
    u32 sets = numSets();
    if (sets & (sets - 1))
        return LoadResult::fail(
            0, "sizeBytes",
            "set count " + std::to_string(sets) +
                " is not a power of two (the index mask needs one)");
    return LoadResult();
}

double
CacheStats::avgAccessTimePaper(double tHit, double tRamMiss,
                               double tFlashMiss) const
{
    if (!accesses)
        return tHit;
    double mr = missRate();
    double total = static_cast<double>(accesses);
    double fRam = static_cast<double>(ramAccesses) / total;
    double fFlash = static_cast<double>(flashAccesses) / total;
    return tHit + fRam * mr * tRamMiss + fFlash * mr * tFlashMiss;
}

double
CacheStats::avgAccessTimeExact(double tHit, double tRamMiss,
                               double tFlashMiss) const
{
    if (!accesses)
        return tHit;
    double total = static_cast<double>(accesses);
    return tHit +
           static_cast<double>(ramMisses) / total * tRamMiss +
           static_cast<double>(flashMisses) / total * tFlashMiss;
}

double
CacheStats::noCacheAccessTime(u64 ramRefs, u64 flashRefs, double tRam,
                              double tFlash)
{
    u64 total = ramRefs + flashRefs;
    if (!total)
        return 0.0;
    return (static_cast<double>(ramRefs) * tRam +
            static_cast<double>(flashRefs) * tFlash) /
           static_cast<double>(total);
}

namespace
{

u32
log2u(u32 v)
{
    u32 n = 0;
    while ((1u << n) < v)
        ++n;
    return n;
}

} // namespace

Cache::Cache(const CacheConfig &cfg, u64 randomSeed)
    : cfg(cfg), rng(randomSeed)
{
    PT_ASSERT(cfg.valid(), "invalid cache configuration ",
              cfg.sizeBytes, "/", cfg.lineBytes, "/", cfg.assoc, ": ",
              cfg.validate().message());
    lines.assign(static_cast<std::size_t>(cfg.numSets()) * cfg.assoc,
                 Line{});
    setShift = log2u(cfg.lineBytes);
    setMask = cfg.numSets() - 1;
    indexBits = log2u(cfg.numSets());
}

void
Cache::reset()
{
    std::fill(lines.begin(), lines.end(), Line{});
    st = CacheStats{};
    tick = 0;
}

bool
Cache::access(Addr addr, bool isFlash)
{
    ++tick;
    ++st.accesses;
    if (isFlash)
        ++st.flashAccesses;
    else
        ++st.ramAccesses;

    u64 lineAddr = addr >> setShift;
    u32 set = static_cast<u32>(lineAddr) & setMask;
    u64 tag = lineAddr >> indexBits; // tag excludes the index bits
    Line *base = &lines[static_cast<std::size_t>(set) * cfg.assoc];

    for (u32 w = 0; w < cfg.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            if (cfg.policy == Policy::Lru)
                base[w].stamp = tick; // FIFO keeps insertion order
            return true;
        }
    }

    // Miss: pick a victim.
    ++st.misses;
    if (isFlash)
        ++st.flashMisses;
    else
        ++st.ramMisses;

    u32 victim = 0;
    if (cfg.policy == Policy::Random) {
        bool foundInvalid = false;
        for (u32 w = 0; w < cfg.assoc; ++w) {
            if (!base[w].valid) {
                victim = w;
                foundInvalid = true;
                break;
            }
        }
        if (!foundInvalid)
            victim = static_cast<u32>(rng.below(cfg.assoc));
    } else {
        u64 oldest = ~0ull;
        for (u32 w = 0; w < cfg.assoc; ++w) {
            if (!base[w].valid) {
                victim = w;
                oldest = 0;
                break;
            }
            if (base[w].stamp < oldest) {
                oldest = base[w].stamp;
                victim = w;
            }
        }
    }
    if (base[victim].valid)
        ++st.evictions;
    base[victim].valid = true;
    base[victim].tag = tag;
    base[victim].stamp = tick;
    return false;
}

namespace
{

/** Allocates in whole 64-byte lines, so arrays written by two shards
 *  on different workers never share a cache line. */
template <typename T>
struct LineAlloc
{
    using value_type = T;

    LineAlloc() = default;
    template <typename U>
    LineAlloc(const LineAlloc<U> &)
    {}

    static std::size_t
    bytes(std::size_t n)
    {
        return (n * sizeof(T) + 63) / 64 * 64;
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(bytes(n), std::align_val_t{64}));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        ::operator delete(p, bytes(n), std::align_val_t{64});
    }

    friend bool
    operator==(const LineAlloc &, const LineAlloc &)
    {
        return true;
    }
};

template <typename T>
using LineVector = std::vector<T, LineAlloc<T>>;

/** A reference that passed the MRU-line filter. The line is a full
 *  32-bit value (1-byte lines), so the class has its own field. */
struct LineRef
{
    u32 line;
    u32 isFlash;
};

} // namespace

/**
 * The MRU-line filter of one line size. A reference to the previous
 * reference's line is a depth-0 hit in every LRU family of the line
 * size and leaves every stack as it was, so only the others are kept.
 */
struct CacheSweep::Filter
{
    u32 shift = 0;
    bool havePrev = false; ///< the first reference has no predecessor
    u32 prev = 0;
    std::vector<LineRef> out; ///< out[0, count) is this batch's list
    std::size_t count = 0;

    void
    run(const std::vector<ClassifiedRef> &batch)
    {
        if (out.size() < batch.size())
            out.resize(batch.size());
        count = 0;
        for (const ClassifiedRef &r : batch) {
            const u32 line = r.addr >> shift;
            if (havePrev && line == prev)
                continue;
            havePrev = true;
            prev = line;
            out[count++] = {line, r.isFlash};
        }
    }
};

/**
 * The LRU configs of one (line size, set count). Per set it keeps an
 * LRU stack of line addresses, most recent first, as deep as the
 * largest member associativity. Each reference counts a hit at its
 * stack depth, or a miss at the set's occupancy; both histograms are
 * split by RAM/flash at index 2 * slot + isFlash. Depth-0 hits are a
 * hit in every member and are not counted.
 */
struct alignas(64) CacheSweep::Family
{
    u32 shift = 0; ///< log2 of the line size
    u32 sets = 0;
    u32 depth = 0;
    std::size_t filter = 0; ///< index into CacheSweep::filters
    /** (config index, associativity) of every member. */
    std::vector<std::pair<std::size_t, u32>> members;
    LineVector<u32> stacks;    ///< sets * depth, set-major
    LineVector<u32> occupancy; ///< lines on each set's stack
    LineVector<u64> hitsAt;    ///< 2 * depth; slot 0 stays zero
    LineVector<u64> missesAt;  ///< 2 * (depth + 1)

    void
    allocate()
    {
        stacks.assign(static_cast<std::size_t>(sets) * depth, 0);
        occupancy.assign(sets, 0);
        hitsAt.assign(2 * static_cast<std::size_t>(depth), 0);
        missesAt.assign(2 * (static_cast<std::size_t>(depth) + 1), 0);
    }

    void
    walk(const LineRef *refs, std::size_t n)
    {
        const u32 mask = sets - 1;
        u32 *const stackBase = stacks.data();
        u32 *const occ = occupancy.data();
        u64 *const hits = hitsAt.data();
        u64 *const misses = missesAt.data();
        for (std::size_t i = 0; i < n; ++i) {
            const u32 line = refs[i].line;
            const u32 set = line & mask;
            u32 *s = stackBase + static_cast<std::size_t>(set) * depth;
            const u32 used = occ[set];
            if (used && s[0] == line)
                continue; // depth 0: a hit everywhere, nothing moves
            u32 d = 1;
            while (d < used && s[d] != line)
                ++d;
            if (d < used) {
                ++hits[2 * d + refs[i].isFlash];
            } else {
                ++misses[2 * used + refs[i].isFlash];
                if (used < depth) {
                    occ[set] = used + 1;
                    d = used;
                } else {
                    d = depth - 1; // the LRU line falls off
                }
            }
            for (; d > 0; --d)
                s[d] = s[d - 1];
            s[0] = line;
        }
    }

    /**
     * An A-way LRU set holds the A most recent lines of its stack, so
     * a hit at depth >= A misses in the member and evicts (the set
     * holds A lines), and a miss evicts once A lines are resident.
     */
    CacheStats
    statsFor(u32 assoc) const
    {
        CacheStats st;
        for (u32 cls = 0; cls < 2; ++cls) {
            u64 missed = 0;
            for (u32 d = assoc; d < depth; ++d)
                missed += hitsAt[2 * d + cls];
            u64 evicted = missed;
            for (u32 used = 0; used <= depth; ++used) {
                const u64 m = missesAt[2 * used + cls];
                missed += m;
                if (used >= assoc)
                    evicted += m;
            }
            (cls ? st.flashMisses : st.ramMisses) = missed;
            st.misses += missed;
            st.evictions += evicted;
        }
        return st;
    }
};

/** One FIFO or Random config, simulated on its own over the full
 *  stream: neither policy has the inclusion property. */
struct alignas(64) CacheSweep::PolicyShard
{
    std::size_t index; ///< into cachesVec
    Cache cache;
};

CacheSweep::CacheSweep(const std::vector<CacheConfig> &configs,
                       unsigned jobs)
    : jobsOverride(jobs)
{
    cachesVec.reserve(configs.size());
    batch.reserve(kBatchRefs);
    auto familyOf = [this](const CacheConfig &c) -> Family & {
        const u32 shift = log2u(c.lineBytes);
        for (Family &f : families) {
            if (f.shift == shift && f.sets == c.numSets())
                return f;
        }
        std::size_t filter = 0;
        while (filter < filters.size() && filters[filter].shift != shift)
            ++filter;
        if (filter == filters.size())
            filters.emplace_back().shift = shift;
        Family &f = families.emplace_back();
        f.shift = shift;
        f.sets = c.numSets();
        f.filter = filter;
        return f;
    };
    // Each FIFO/Random shard gets its own deterministic seed derived
    // from its position, never from the schedule: Random-policy
    // results are identical for every job count.
    u64 seed = 0xCACEull;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const CacheConfig &c = configs[i];
        cachesVec.emplace_back(c, seed);
        if (c.policy == Policy::Lru) {
            Family &f = familyOf(c);
            f.depth = std::max(f.depth, c.assoc);
            f.members.emplace_back(i, c.assoc);
        } else {
            policyShards.push_back({i, Cache(c, seed)});
        }
        seed += 0x9E3779B97F4A7C15ull;
    }
    for (Family &f : families)
        f.allocate();
    if (jobsOverride > 1)
        ownPool = std::make_unique<ThreadPool>(jobsOverride);
}

CacheSweep::~CacheSweep() = default;

void
CacheSweep::flush()
{
    if (batch.empty())
        return;
    settled = false;
    accesses += batch.size();
    for (const ClassifiedRef &r : batch)
        flashAccesses += r.isFlash;
    for (Filter &f : filters)
        f.run(batch);
    auto runShard = [this](std::size_t i) {
        if (i < families.size()) {
            Family &f = families[i];
            const Filter &src = filters[f.filter];
            f.walk(src.out.data(), src.count);
            return;
        }
        Cache &c = policyShards[i - families.size()].cache;
        for (const ClassifiedRef &r : batch)
            c.access(r.addr, r.isFlash);
    };
    const std::size_t shards = families.size() + policyShards.size();
    if (jobsOverride == 1) {
        for (std::size_t i = 0; i < shards; ++i)
            runShard(i);
    } else if (ownPool) {
        // A pool of the pinned size (differential tests fix jobs).
        ownPool->parallelFor(shards, runShard);
    } else {
        ThreadPool::shared().parallelFor(shards, runShard);
    }
    batch.clear();
}

u64
CacheSweep::feedAll(RefSource &src, CancelToken *cancel)
{
    u64 total = 0;
    for (;;) {
        if (cancel) {
            cancel->beat();
            if (cancel->cancelled())
                break;
        }
        // Let the source fill the batch buffer in place up to the
        // flush threshold — the same boundaries per-ref feed() hits.
        std::size_t base = batch.size();
        batch.resize(kBatchRefs);
        std::size_t got =
            src.pull(batch.data() + base, kBatchRefs - base);
        batch.resize(base + got);
        total += got;
        if (batch.size() >= kBatchRefs)
            flush();
        if (!got)
            break;
    }
    return total;
}

void
CacheSweep::finish()
{
    flush();
    for (const Family &f : families) {
        for (const auto &[index, assoc] : f.members) {
            CacheStats st = f.statsFor(assoc);
            st.accesses = accesses;
            st.flashAccesses = flashAccesses;
            st.ramAccesses = accesses - flashAccesses;
            cachesVec[index].st = st;
        }
    }
    for (const PolicyShard &p : policyShards)
        cachesVec[p.index].st = p.cache.stats();
    settled = true;
}

const std::vector<Cache> &
CacheSweep::caches() const
{
    PT_ASSERT(settled,
              "CacheSweep::finish() must run before reading results");
    return cachesVec;
}

const std::vector<u32> &
CacheSweep::paperSizes()
{
    static const std::vector<u32> sizes = {256,  512,  1024, 2048,
                                           4096, 8192, 16384};
    return sizes;
}

std::vector<CacheConfig>
CacheSweep::paper56()
{
    std::vector<CacheConfig> out;
    for (u32 size : paperSizes()) {
        for (u32 line : {16u, 32u}) {
            for (u32 assoc : {1u, 2u, 4u, 8u}) {
                CacheConfig c;
                c.sizeBytes = size;
                c.lineBytes = line;
                c.assoc = assoc;
                c.policy = Policy::Lru;
                out.push_back(c);
            }
        }
    }
    PT_ASSERT(out.size() == 56, "expected 56 configurations");
    return out;
}

} // namespace pt::cache
