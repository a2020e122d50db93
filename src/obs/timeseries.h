/**
 * @file
 * Simulated-time telemetry: an interval sampler keyed on the machine's
 * own clock rather than wall time.
 *
 * The paper's claims are time-varying — effective access time and
 * miss behavior depend on how the RAM/flash reference mix evolves as
 * a session unfolds — so whole-run aggregates hide the story. A
 * Timeseries partitions the run into fixed-width intervals of
 * simulated cycles (interval k covers absolute cycles
 * [k*W, (k+1)*W)) and accumulates per-interval integer columns:
 * cycles executed, instructions retired, I/D references, RAM vs
 * flash mix, per-level cache hits/misses, events drained. Derived
 * doubles (IPC, flash fraction, energy) are computed only at emit
 * time from the summed integers, so two runs that agree on the
 * integer columns emit byte-identical files.
 *
 * Determinism contract (DESIGN.md §14): CPU progress is observed at
 * the replay's per-event points, a pure function of the session;
 * each observation's delta is split exactly across the intervals it
 * spans (cycles exactly, instructions by prefix rounding — a pure
 * function of the endpoints, summing exactly to the delta).
 * References are attributed per-ref at their absolute cycle, so two
 * replays of one session emit byte-identical series.
 *
 * Instances are single-threaded.
 */

#ifndef PT_OBS_TIMESERIES_H
#define PT_OBS_TIMESERIES_H

#include <map>
#include <string>

#include "base/types.h"

namespace pt::obs
{

/** What a memory reference did (mirrors trace::RefKind). */
enum class TsRef
{
    Ifetch,
    Dread,
    Dwrite,
};

/**
 * The interval accumulator. The domain is simulated cycles by
 * default; the sweep uses a reference-index domain (interval k covers
 * refs [k*W, (k+1)*W)) where only the mix/energy columns are
 * meaningful.
 */
class Timeseries
{
  public:
    enum class Domain
    {
        Cycles,
        Refs,
    };

    /** One interval's accumulated integer columns. */
    struct Row
    {
        u64 cycles = 0;
        u64 instructions = 0;
        u64 ifetch = 0;
        u64 dread = 0;
        u64 dwrite = 0;
        u64 ramRefs = 0;
        u64 flashRefs = 0;
        u64 l1Hits = 0;
        u64 l1Misses = 0;
        u64 l2Hits = 0;
        u64 l2Misses = 0;
        u64 events = 0;

        bool zero() const;
    };

    static constexpr u64 kDefaultIntervalCycles = 1u << 20;

    explicit Timeseries(u64 intervalWidth = kDefaultIntervalCycles,
                        Domain d = Domain::Cycles);

    u64 interval() const { return width; }
    Domain domain() const { return dom; }

    /**
     * Observes CPU progress at an absolute (cycle, instruction)
     * point. The first call only sets the baseline; each later call
     * splits the delta since the previous observation exactly across
     * the intervals it spans. Out-of-order or duplicate observations
     * are zero-delta no-ops.
     */
    void observe(u64 cycles, u64 instructions);

    /**
     * Attributes one memory reference to the interval holding
     * @p cycle (cycle domain) or the next reference index (ref
     * domain, where @p cycle is ignored).
     */
    void addRef(u64 cycle, TsRef kind, bool isFlash);

    /**
     * Attributes one cache access outcome at @p cycle (or the
     * current ref position in the ref domain). @p level is 1 or 2.
     */
    void addCache(u64 cycle, int level, bool hit);

    /** Counts one replay event drained at @p cycle. */
    void noteEvent(u64 cycle);

    const std::map<u64, Row> &rows() const { return intervals; }

    /** Per-ref energy estimate used for the energy column (nJ);
     *  defaults match cache::EnergyModel's uncached RAM/flash cost. */
    void
    setEnergyNj(double ramNj, double flashNj)
    {
        ramEnergyNj = ramNj;
        flashEnergyNj = flashNj;
    }

    /** Renders the series as JSONL: one header object, one object
     *  per nonempty interval, ascending. */
    std::string toJsonl() const;

    /** Renders the series as CSV with a header row. */
    std::string toCsv() const;

    /**
     * Writes the series to @p path — CSV when the path ends in
     * ".csv", JSONL otherwise. @return false (with @p errOut set)
     * on I/O failure.
     */
    bool writeFile(const std::string &path,
                   std::string *errOut = nullptr) const;

  private:
    Row &row(u64 idx);

    u64 width;
    Domain dom;
    std::map<u64, Row> intervals;

    // Cached pointer for the run's hot path: refs land in the same
    // interval thousands of times in a row.
    u64 cachedIdx = ~0ull;
    Row *cachedRow = nullptr;

    bool started = false;
    u64 prevCycles = 0;
    u64 prevInstructions = 0;
    u64 refCursor = 0;

    double ramEnergyNj = 2.5;
    double flashEnergyNj = 6.0;
};

} // namespace pt::obs

#endif // PT_OBS_TIMESERIES_H
