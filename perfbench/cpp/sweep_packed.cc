/**
 * @file
 * sweep_packed: the paper's CacheSweep::paper56() fed from a PTPK
 * file on disk through workload::sweepPackedFile, the
 * `palmtrace sweep --packed` path. PTPK decode plus Cache::access,
 * no emulation. The modelled caches start empty on every op, as in
 * the paper.
 *
 * The timed ops run on 1 worker. On 2 workers a sweep's speed is set
 * by where CacheSweep's vector of 56 cache shards (128 bytes each)
 * happens to start: on a 64-byte line the workers scale, off one
 * they share lines and run slower than 1 worker. Where it starts
 * follows from everything the run allocated before, so it differs
 * from seed to seed and a 2-worker figure swings up to 3x between
 * seeds. The traced run measures the 2-worker sweep next to the
 * shard vector's line offset (cache.speedup_vs_1job,
 * cache.shard_line_offset_b).
 */

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "base/fnv.h"
#include "cache/cache.h"
#include "super/jobs.h"
#include "workload/tracefeed.h"
#include "workloads.h"

namespace perfbench
{

namespace
{

using namespace pt;

/** Trace length: the first 2 M references of a collected session,
 *  so every seed sweeps the same amount of work (~1 s per op). */
constexpr u64 kTraceRefs = 2'000'000;
constexpr int kSetups = 3;
constexpr unsigned kJobs = 1;
constexpr unsigned kParallelJobs = 2;
constexpr int kParallelSweeps = 3;
const char *const kInput = "input.ptpk";

/** Configs checked against a standalone cache::Cache run. */
constexpr std::size_t kCheckedConfigs[] = {0, 55};

bool
sameStats(const cache::CacheStats &a, const cache::CacheStats &b)
{
    return a.accesses == b.accesses && a.misses == b.misses &&
           a.evictions == b.evictions &&
           a.ramAccesses == b.ramAccesses &&
           a.ramMisses == b.ramMisses &&
           a.flashAccesses == b.flashAccesses &&
           a.flashMisses == b.flashMisses;
}

/** The input trace and everything known about it from set-up. */
struct Input
{
    u64 refs = 0;
    u64 bytes = 0;
    u64 blocks = 0;
    u64 fnv = 0;
    std::vector<cache::CacheStats> reference; ///< per kCheckedConfigs
    double sameLine16 = 0;
    double sameLine32 = 0;
};

/**
 * Hands the first @p limit RAM/flash references to @p inner, then
 * cancels the replay: the rest of the session is not needed.
 */
class PrefixSink : public device::MemRefSink
{
  public:
    PrefixSink(device::MemRefSink &inner, u64 limit, CancelToken &stop)
        : inner(inner), limit(limit), stop(stop)
    {}

    void
    onRef(Addr addr, m68k::AccessKind kind,
          device::RefClass cls) override
    {
        if (cls != device::RefClass::Ram &&
            cls != device::RefClass::Flash)
            return;
        if (seen == limit) {
            stop.requestCancel();
            return;
        }
        ++seen;
        inner.onRef(addr, kind, cls);
    }

  private:
    device::MemRefSink &inner;
    u64 limit;
    CancelToken &stop;
    u64 seen = 0;
};

/**
 * Collects a session and packs the first kTraceRefs of its references
 * through a PackedWriterSink, as `replay --pack-out` writes them. A
 * session of N instructions makes at least N references (one fetch
 * each), so collecting kTraceRefs instructions always suffices.
 */
std::vector<std::string>
packInput(u64 seed, Input &in)
{
    const core::Session s =
        collectLongSession(mixSeed(seed, 0x5EE9), kTraceRefs);
    trace::PackedTraceWriter writer(kInput);
    trace::PackedWriterSink sink(writer);
    CancelToken stop;
    PrefixSink prefix(sink, kTraceRefs, stop);
    core::ReplayConfig cfg;
    cfg.extraRefSink = &prefix;
    cfg.options.cancel = &stop;
    core::PalmSimulator::replaySession(s, cfg);
    std::string err;
    if (!writer.ok() || !writer.close(&err))
        return {"pack " + std::string(kInput) + ": " + err};
    in.refs = writer.count();
    in.bytes = writer.bytesWritten();
    if (in.refs != kTraceRefs)
        return {"packed " + std::to_string(in.refs) + " refs, expected " +
                std::to_string(kTraceRefs)};
    bool ok = false;
    in.fnv = super::fnvFile(kInput, &ok);
    if (!ok)
        return {"cannot hash " + std::string(kInput)};
    return {};
}

/**
 * Streams the input through standalone caches for the checked
 * configs, and measures how often a ref hits its predecessor's line.
 */
std::vector<std::string>
referencePass(const std::vector<cache::CacheConfig> &configs, Input &in)
{
    trace::PackedTraceReader reader;
    if (auto res = reader.open(kInput); !res)
        return {"reference open: " + res.message()};
    in.blocks = reader.blockCount();
    std::vector<cache::Cache> caches;
    for (std::size_t i : kCheckedConfigs)
        caches.emplace_back(configs[i]);
    std::vector<trace::TraceRecord> block;
    u64 n = 0, same16 = 0, same32 = 0;
    Addr prev = 0;
    while (reader.nextBlock(block)) {
        for (const trace::TraceRecord &r : block) {
            for (cache::Cache &c : caches)
                c.access(r.addr, r.cls == 1);
            if (n > 0) {
                same16 += (r.addr >> 4) == (prev >> 4);
                same32 += (r.addr >> 5) == (prev >> 5);
            }
            prev = r.addr;
            ++n;
        }
    }
    if (!reader.status())
        return {"reference decode: " + reader.status().message()};
    in.reference.clear();
    for (const cache::Cache &c : caches)
        in.reference.push_back(c.stats());
    in.sameLine16 = n > 1 ? static_cast<double>(same16) / (n - 1) : 0;
    in.sameLine32 = n > 1 ? static_cast<double>(same32) / (n - 1) : 0;
    return {};
}

/** What one sweep of the input produced. */
struct SweepRun
{
    double seconds = 0;
    u64 refs = 0;
    u64 misses = 0; ///< summed over configs
    u64 digest = 0;
    std::vector<std::string> problems;
};

/** The untimed checks on a finished sweep. */
void
checkSweep(const Input &in, const LoadResult &status,
           const std::vector<cache::Cache> &caches, SweepRun &r)
{
    if (!status) {
        r.problems.push_back("trace: " + status.message());
        return;
    }
    if (caches.size() != 56) {
        r.problems.push_back("sweep returned " +
                             std::to_string(caches.size()) +
                             " configs, expected 56");
        return;
    }
    if (r.refs != in.refs)
        r.problems.push_back("sweep consumed " + std::to_string(r.refs) +
                             " refs of " + std::to_string(in.refs));
    Fnv64 d;
    for (const cache::Cache &c : caches) {
        const cache::CacheStats &st = c.stats();
        if (st.accesses != in.refs) {
            r.problems.push_back(c.config().name() + ": " +
                                 std::to_string(st.accesses) +
                                 " accesses of " +
                                 std::to_string(in.refs) + " refs");
        }
        r.misses += st.misses;
        d.updateValue(st.accesses);
        d.updateValue(st.misses);
        d.updateValue(st.evictions);
        d.updateValue(st.ramMisses);
        d.updateValue(st.flashMisses);
    }
    for (std::size_t k = 0; k < std::size(kCheckedConfigs); ++k) {
        const cache::Cache &c = caches[kCheckedConfigs[k]];
        if (!sameStats(c.stats(), in.reference[k])) {
            r.problems.push_back(c.config().name() +
                                 ": differs from a standalone Cache");
        }
    }
    r.digest = d.value();
}

/** The untraced op: exactly what `sweep --packed` does. */
SweepRun
sweepOnce(const Input &in, const std::vector<cache::CacheConfig> &configs,
          const char *path, unsigned jobs)
{
    SweepRun r;
    const auto t0 = Clock::now();
    workload::PackedSweepResult res =
        workload::sweepPackedFile(path, configs, jobs);
    r.seconds = secondsSince(t0);
    r.refs = res.refs;
    checkSweep(in, res.status, res.caches, r);
    return r;
}

/** RefSource that times each pull of the wrapped source. */
class TimedSource : public cache::RefSource
{
  public:
    TimedSource(cache::RefSource &inner, SpanLog &log)
        : inner(inner), log(log)
    {}

    std::size_t
    pull(cache::ClassifiedRef *out, std::size_t max) override
    {
        SpanLog::Scope span(log, "trace.decode");
        return inner.pull(out, max);
    }

  private:
    cache::RefSource &inner;
    SpanLog &log;
};

/**
 * The traced op: sweepPackedFile's public calls, each in a span.
 * @p lineOffset receives the shard vector's offset in its 64-byte
 * line.
 */
SweepRun
tracedSweepOnce(const Input &in,
                const std::vector<cache::CacheConfig> &configs,
                unsigned jobs, SpanLog &log, std::size_t &lineOffset)
{
    SweepRun r;
    LoadResult status;
    std::vector<cache::Cache> caches;
    const auto t0 = Clock::now();
    {
        SpanLog::Scope op(log, kOpSpan);
        trace::PackedTraceReader reader;
        {
            SpanLog::Scope span(log, "trace.open");
            status = reader.open(kInput);
        }
        if (status) {
            workload::PackedRefSource packed(reader);
            TimedSource src(packed, log);
            SpanLog::Scope span(log, "cache.sweep");
            cache::CacheSweep sweep(configs, jobs);
            lineOffset = reinterpret_cast<std::uintptr_t>(
                             sweep.caches().data()) %
                         64;
            r.refs = sweep.feedAll(src);
            sweep.finish();
            status = packed.status();
            caches = sweep.caches();
        }
    }
    r.seconds = secondsSince(t0);
    checkSweep(in, status, caches, r);
    return r;
}

/** Writes the first half of the input as a truncated copy. */
std::string
writeTruncatedCopy()
{
    std::ifstream f(kInput, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    const char *path = "truncated.ptpk";
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(),
               static_cast<std::streamsize>(bytes.size() / 2));
    return path;
}

} // namespace

Outcome
runSweepPacked(const RunOptions &o)
{
    Outcome out;
    const std::vector<cache::CacheConfig> configs =
        cache::CacheSweep::paper56();

    // --- Set-up, repeated: collect + pack, reference, warm-up -----
    Input in;
    u64 digest = 0;
    std::vector<double> setupSecs;
    for (int k = 0; k < kSetups; ++k) {
        const auto t0 = Clock::now();
        Input fresh;
        std::vector<std::string> problems = packInput(o.seed, fresh);
        if (problems.empty())
            problems = referencePass(configs, fresh);
        SweepRun warm;
        if (problems.empty()) {
            warm = sweepOnce(fresh, configs, kInput, kJobs);
            problems = warm.problems;
        }
        setupSecs.push_back(secondsSince(t0));
        if (k == 0) {
            in = fresh;
            digest = warm.digest;
        } else if (fresh.fnv != in.fnv || warm.digest != digest) {
            problems.push_back("set-up is not deterministic for a seed");
        }
        out.op(problems);
        if (!problems.empty())
            return out;
    }

    std::string truncated;
    if (o.truncateInput)
        truncated = writeTruncatedCopy();

    // --- Timed phase ----------------------------------------------
    SpanLog log;
    std::vector<double> plainSecs, tracedSecs, mrefs;
    u64 misses = 0; ///< summed over configs, the same on every op
    const auto t0 = Clock::now();
    while (secondsSince(t0) < o.seconds) {
        const char *path = truncated.empty() ? kInput : truncated.c_str();
        SweepRun r = sweepOnce(in, configs, path, kJobs);
        if (r.problems.empty() && r.digest != digest)
            r.problems.push_back("sweep results differ between runs");
        out.op(r.problems);
        misses = r.misses;
        if (!truncated.empty()) {
            std::remove(truncated.c_str());
            truncated.clear();
            continue; // a failed op has no rate
        }
        plainSecs.push_back(r.seconds);
        mrefs.push_back(static_cast<double>(r.refs) / r.seconds / 1e6);
        if (o.trace) {
            std::size_t offset = 0;
            SweepRun t = tracedSweepOnce(in, configs, kJobs, log, offset);
            if (t.problems.empty() && t.digest != digest)
                t.problems.push_back("traced sweep results differ");
            out.op(t.problems);
            tracedSecs.push_back(t.seconds);
        }
    }

    Fnv64 d;
    d.updateValue(in.fnv);
    d.updateValue(digest);
    out.digest = hex64(d.value());

    const double refs = static_cast<double>(in.refs);
    out.endToEnd["setup_s"] = median(setupSecs);
    out.endToEnd["refs_per_s"] = median(mrefs);
    out.endToEnd["trace_bytes_per_ref"] =
        refs > 0 ? static_cast<double>(in.bytes) / refs : 0.0;
    out.extras.push_back({"trace_refs", refs, "count"});
    out.extras.push_back({"sweep_ms_p50", median(plainSecs) * 1e3, "ms"});

    if (!o.trace) {
        std::remove(kInput);
        return out;
    }

    // --- Traced run: layer attribution ----------------------------
    reportSpans(log, tracedSecs.size(), out);
    auto per = [&](const char *name) {
        auto it = out.spanSelfPerOp.find(name);
        return it == out.spanSelfPerOp.end() ? 0.0 : it->second;
    };
    const double decode = per("trace.decode");
    const double sweepSelf = per("cache.sweep");
    const double accesses = refs * static_cast<double>(configs.size());
    out.perLayer["trace.open_s"] = per("trace.open");
    out.perLayer["trace.decode_s"] = decode;
    out.perLayer["trace.decode_ns_per_ref"] =
        refs > 0 ? decode * 1e9 / refs : 0.0;
    out.perLayer["trace.bytes"] = static_cast<double>(in.bytes);
    out.perLayer["trace.blocks"] = static_cast<double>(in.blocks);
    out.perLayer["cache.sweep_s"] = sweepSelf;
    out.perLayer["cache.ns_per_access"] =
        accesses > 0 ? sweepSelf * 1e9 / accesses : 0.0;
    out.perLayer["cache.accesses"] = accesses;
    out.perLayer["cache.misses"] = static_cast<double>(misses);
    out.perLayer["cache.same_line_ratio_16b"] = in.sameLine16;
    out.perLayer["cache.same_line_ratio_32b"] = in.sameLine32;

    // The same sweep on 2 workers, beside where its shards landed.
    SpanLog parallelLog;
    std::vector<double> parallelSecs;
    std::size_t offset = 0;
    for (int i = 0; i < kParallelSweeps; ++i) {
        SweepRun p = tracedSweepOnce(in, configs, kParallelJobs,
                                     parallelLog, offset);
        if (p.problems.empty() && p.digest != digest)
            p.problems.push_back("2-worker sweep differs from 1 worker");
        out.op(p.problems);
        parallelSecs.push_back(p.seconds);
    }
    out.perLayer["cache.speedup_vs_1job"] =
        median(plainSecs) / median(parallelSecs);
    out.perLayer["cache.shard_line_offset_b"] = static_cast<double>(offset);
    out.perLayer["trace_overhead"] =
        median(tracedSecs) / median(plainSecs);
    std::remove(kInput);
    return out;
}

} // namespace perfbench
