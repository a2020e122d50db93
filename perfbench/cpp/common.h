/**
 * @file
 * Shared pieces of the palmtrace benchmark: run options, the per-run
 * outcome (op accounting, metrics, digest), a span log that turns
 * spans around public calls into per-layer self time, and small
 * statistics and session-building helpers.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "base/types.h"
#include "core/palmsim.h"
#include "device/bus.h"
#include "trace/packedtrace.h"

namespace perfbench
{

using pt::u32;
using pt::u64;
using pt::u8;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** What one invocation runs. */
struct RunOptions
{
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Test hook: the first timed op reads a truncated PTPK copy. */
    bool truncateInput = false;
};

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything one workload run reports. */
struct Outcome
{
    u64 attempted = 0; ///< ops run: set-up warm-ups, timed, post-phase
    u64 failed = 0;    ///< ops with a failed check or an error reply
    std::vector<std::string> failures;

    /** Metrics by name; main() orders and validates them. */
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;
    /** Workload-specific end-to-end figures, printed on stderr. */
    std::vector<Metric> extras;

    /** Hex digest of the simulated results, fixed for a seed. */
    std::string digest;

    /** Traced runs: self seconds per span name, per traced op. */
    std::map<std::string, double> spanSelfPerOp;

    /** Counts one op; @p problems empty means it passed. */
    void op(const std::vector<std::string> &problems);
};

/**
 * Per-layer self time from spans the benchmark opens around calls
 * into palmtrace's public API. A span's self time is its duration
 * minus the time of the spans nested inside it. Single-threaded:
 * spans are opened and closed on the driving thread only.
 */
class SpanLog
{
  public:
    void begin(const char *name);
    void end();

    /** Self seconds per span name, summed over the log's life. */
    const std::map<std::string, double> &self() const { return selfSec; }

    /** RAII span. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name) : log(log)
        {
            log.begin(name);
        }
        ~Scope() { log.end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log;
    };

  private:
    struct Open
    {
        const char *name;
        Clock::time_point start;
        double childSec;
    };
    std::vector<Open> stack;
    std::map<std::string, double> selfSec;
};

/** The root span name of one timed op; its self time is unattributed. */
inline constexpr const char *kOpSpan = "op";

/**
 * Fills spanSelfPerOp from @p log and sets span_coverage to the share
 * of the logged time that falls in layer spans, not in kOpSpan's own.
 */
void reportSpans(const SpanLog &log, u64 tracedOps, Outcome &out);

double median(std::vector<double> v);

/** Nearest-rank percentile, @p p in (0, 100]. */
double percentile(std::vector<double> v, double p);

/** Peak resident set of the process, in MB. */
double peakRssMb();

/** SplitMix64 step: derives independent seeds from the run seed. */
u64 mixSeed(u64 seed, u64 stream);

/**
 * Collects one long session: one-interaction sittings of the default
 * user model, each with a seed derived from @p seed, chained on one
 * device until it has run at least @p minInstructions. Session size
 * then depends on the target, not on how busy one seed's user happens
 * to be.
 */
pt::core::Session collectLongSession(u64 seed, u64 minInstructions);

/** What packSession produced. */
struct Packed
{
    pt::core::ReplayResult replay;
    double seconds = 0; ///< replay plus close: `replay --pack-out`
    u64 records = 0;
    u64 bytes = 0;
    u64 fnv = 0; ///< of the whole file
    std::vector<std::string> problems;
};

/**
 * Replays @p s into a PTPK file at @p path through a PackedWriterSink,
 * as `replay --pack-out` does, then hashes the file (untimed). The
 * file is left for the caller to check and remove.
 */
Packed packSession(const pt::core::Session &s, const std::string &path);

/** Hex rendering of a digest value. */
std::string hex64(u64 v);

/**
 * MemRefSink that hands RAM/flash references to a PackedTraceWriter
 * in fixed chunks, each chunk inside a "trace.encode" span. Records
 * and their order are exactly those PackedWriterSink would write.
 */
class ChunkedPackSink : public pt::device::MemRefSink
{
  public:
    static constexpr std::size_t kChunkRefs = 65536;

    ChunkedPackSink(pt::trace::PackedTraceWriter &w, SpanLog &log);

    void onRef(pt::Addr addr, pt::m68k::AccessKind kind,
               pt::device::RefClass cls) override;

    /** Hands over the partial last chunk. */
    void flush();

  private:
    pt::trace::PackedTraceWriter &writer;
    SpanLog &log;
    std::vector<pt::trace::TraceRecord> chunk;
};

/** A sink that does nothing: isolates the cost of ref dispatch. */
class NullSink : public pt::device::MemRefSink
{
  public:
    void
    onRef(pt::Addr, pt::m68k::AccessKind, pt::device::RefClass) override
    {}
};

/** Replays @p s into a PTPK at @p path, spans on @p log. */
struct TracedPack
{
    pt::core::ReplayResult replay;
    u64 records = 0;
    u64 bytes = 0;
    bool ok = false;
    std::string error;
};
TracedPack tracedPackReplay(const pt::core::Session &s,
                            const std::string &path, SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
