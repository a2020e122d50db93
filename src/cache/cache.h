/**
 * @file
 * The trace-driven cache simulator used for the paper's case study
 * (§4): set-associative caches with configurable size, line size and
 * associativity, LRU (plus FIFO/Random for ablations), fed with the
 * RAM/flash-classified reference stream from replay.
 */

#ifndef PT_CACHE_CACHE_H
#define PT_CACHE_CACHE_H

#include <memory>
#include <string>
#include <vector>

#include "base/cancel.h"
#include "base/loaderror.h"
#include "base/rng.h"
#include "base/types.h"

namespace pt
{
class ThreadPool;
}

namespace pt::cache
{

/** Block replacement policies. */
enum class Policy : u8 { Lru, Fifo, Random };

/** @return a short name ("LRU", ...). */
const char *policyName(Policy p);

/** One cache configuration. */
struct CacheConfig
{
    u32 sizeBytes = 1024;
    u32 lineBytes = 32;
    u32 assoc = 1;
    Policy policy = Policy::Lru;

    /** @return sets, or 0 when the geometry is degenerate (a zero
     *  line size or associativity must not divide by zero). */
    u32
    numSets() const
    {
        u64 waySize = static_cast<u64>(lineBytes) * assoc;
        return waySize ? static_cast<u32>(sizeBytes / waySize) : 0;
    }

    /** e.g. "2KB/32B/4way". */
    std::string name() const;

    /** The most lines one cache may hold (a 16 MB cache of 16-byte
     *  lines). A config read from an untrusted journal must not
     *  make the simulator allocate without bound. */
    static constexpr u32 kMaxLines = 1u << 20;

    /**
     * Checks the geometry and names the first offending field:
     * nonzero size/line/associativity, power-of-two line size, at
     * most kMaxLines lines, size divisible by line*assoc, and a
     * power-of-two set count (the indexing mask requires it).
     * @return ok, or field + reason.
     */
    LoadResult validate() const;

    bool valid() const { return validate().ok(); }
};

/** Hit/miss accounting, split by backing store. */
struct CacheStats
{
    u64 accesses = 0;
    u64 misses = 0;
    u64 evictions = 0; ///< misses that displaced a valid line
    u64 ramAccesses = 0;
    u64 ramMisses = 0;
    u64 flashAccesses = 0;
    u64 flashMisses = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }

    /**
     * Average effective memory access time per the paper's Eq 2:
     * T_eff = T_hit + (REF_ram/REF_tot) * MR * T_ram_miss
     *               + (REF_flash/REF_tot) * MR * T_flash_miss
     * with a single overall miss rate, as the paper computes it.
     */
    double avgAccessTimePaper(double tHit = 1.0, double tRamMiss = 1.0,
                              double tFlashMiss = 3.0) const;

    /** Refinement using per-backing-store miss rates. */
    double avgAccessTimeExact(double tHit = 1.0, double tRamMiss = 1.0,
                              double tFlashMiss = 3.0) const;

    /** No-cache baseline, Eq 3. */
    static double noCacheAccessTime(u64 ramRefs, u64 flashRefs,
                                    double tRam = 1.0,
                                    double tFlash = 3.0);
};

/** A set-associative cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg, u64 randomSeed = 0xCACE);

    /** Performs one access. @return true on hit. */
    bool access(Addr addr, bool isFlash);

    const CacheConfig &config() const { return cfg; }
    const CacheStats &stats() const { return st; }
    void reset();

  private:
    friend class CacheSweep; ///< writes the stats its families compute

    struct Line
    {
        u64 tag = 0;
        u64 stamp = 0; ///< LRU recency or FIFO insertion order
        bool valid = false;
    };

    CacheConfig cfg;
    CacheStats st;
    std::vector<Line> lines; ///< sets * assoc, set-major
    u64 tick = 0;
    u32 setShift;
    u32 setMask;
    u32 indexBits;
    Rng rng;
};

/** One classified reference, the unit a sweep consumes. */
struct ClassifiedRef
{
    Addr addr;
    bool isFlash;
};

/**
 * Pull-source of classified references for streaming sweeps: the
 * sweep asks the source to fill its internal batch buffer directly,
 * so a disk-backed trace (trace::PackedTraceReader via
 * workload::PackedRefSource) feeds the parallel engine with O(block)
 * memory and zero intermediate copies.
 */
class RefSource
{
  public:
    virtual ~RefSource() = default;

    /**
     * Fills up to @p max references into @p out.
     * @return the number produced; 0 ends the stream (a source that
     * fails mid-stream returns 0 and reports the error on its own
     * surface).
     */
    virtual std::size_t pull(ClassifiedRef *out, std::size_t max) = 0;
};

/**
 * Runs many configurations over one reference stream in a single
 * pass, fanning fixed-size reference batches out to shards on a
 * thread pool.
 *
 * LRU configurations are simulated exactly by stack distance: the
 * configs that share a (line size, set count) form one *family*,
 * which keeps one LRU stack per set, as deep as its largest
 * associativity, and histograms the depth each reference hits at
 * (or, on a miss, the set's occupancy). Every member's stats follow
 * from those histograms at finish() by the LRU inclusion property:
 * an A-way set holds exactly the A most recent lines of its stack.
 * Before the families run, an MRU-line filter drops each reference
 * to the same line as the reference before it; that is a depth-0 hit
 * in every family of the line size and changes no state. FIFO and
 * Random configs lack the inclusion property and keep one Cache
 * shard each, fed the full stream.
 *
 * Determinism contract: every shard (family or per-config cache)
 * owns its state and seeded RNG and consumes its stream in arrival
 * order, so results are bit-identical for any job count and equal to
 * a standalone Cache per config — jobs only decide which thread
 * walks which shard over the current batch. tests/test_cache.cc
 * checks every field against standalone Caches; tests/test_parallel.cc
 * checks jobs in {1, 2, 8} against each other.
 *
 * Call finish() after the last feed(); results are read through
 * caches().
 */
class CacheSweep
{
  public:
    /** References buffered per flush; large enough to amortize the
     *  fork/join, small enough to stay cache-resident. */
    static constexpr std::size_t kBatchRefs = 8192;

    /** @param jobs worker count for flushes; 0 uses the shared
     *  pool's default (PT_JOBS / --jobs), 1 is fully inline. */
    explicit CacheSweep(const std::vector<CacheConfig> &configs,
                        unsigned jobs = 0);
    ~CacheSweep();

    /** Feeds one classified reference to every cache (buffered). */
    void
    feed(Addr addr, bool isFlash)
    {
        batch.push_back({addr, isFlash});
        if (batch.size() >= kBatchRefs)
            flush();
    }

    /**
     * Drains @p src into the sweep until it runs dry. Batch
     * boundaries land exactly where per-reference feed() calls would
     * put them, so a streamed trace is bit-identical to the same
     * records fed from memory (the §9 determinism contract).
     * @return references consumed. finish() is still required.
     *
     * When @p cancel is set the drain beats it once per pulled batch
     * and stops between batches on cancellation — the stats then
     * cover a prefix of the stream and must be discarded.
     */
    u64 feedAll(RefSource &src, CancelToken *cancel = nullptr);

    /** Flushes buffered references and computes every config's
     *  stats; required before reading them. */
    void finish();

    /** @return one result per config, in config order; finish() must
     *  have run since the last feed(). */
    const std::vector<Cache> &caches() const;

    /** The paper's 56 configurations: 7 sizes (256 B - 16 KB) x line
     *  {16, 32} x associativity {1, 2, 4, 8}, LRU. */
    static std::vector<CacheConfig> paper56();

    /** The size axis of paper56. */
    static const std::vector<u32> &paperSizes();

  private:
    struct Filter;
    struct Family;
    struct PolicyShard;

    void flush();

    std::vector<Cache> cachesVec; ///< results, in config order
    std::vector<Filter> filters;  ///< one per LRU line size
    std::vector<Family> families;
    std::vector<PolicyShard> policyShards; ///< FIFO and Random configs
    u64 accesses = 0;
    u64 flashAccesses = 0;
    bool settled = true; ///< finish() ran since the last flush
    std::vector<ClassifiedRef> batch;
    unsigned jobsOverride;
    std::unique_ptr<ThreadPool> ownPool; ///< when jobs > 1 was pinned
};

} // namespace pt::cache

#endif // PT_CACHE_CACHE_H
