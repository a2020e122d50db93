/**
 * @file
 * replay_pack: one long collected session replayed into a PTPK file
 * through PalmSimulator::replaySession with a PackedWriterSink, the
 * `palmtrace replay --pack-out` path. Emulation, the sink chain, the
 * encoder and the file write, on one thread; the cache model is idle.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "base/fnv.h"
#include "super/jobs.h"
#include "workloads.h"

namespace perfbench
{

namespace
{

using namespace pt;

/** Session size: about 1 s of packed replay on a 2020s server core. */
constexpr u64 kSessionInstructions = 8'000'000;
constexpr int kSetups = 3;

/** What one replay into a PTPK file produced. */
struct PackRun
{
    double seconds = 0;
    u64 instructions = 0;
    u64 cycles = 0;
    u64 refs = 0; ///< the replay's RefCounter total
    u64 records = 0;
    u64 bytes = 0;
    u64 blocks = 0;
    u64 fnv = 0;
    std::vector<std::string> problems;
};

/** The untimed checks: reopen the file, compare it to the replay. */
void
checkPack(const std::string &path, PackRun &r)
{
    trace::PackedTraceReader reader;
    if (auto res = reader.open(path); !res) {
        r.problems.push_back("reopen " + path + ": " + res.message());
        return;
    }
    r.blocks = reader.blockCount();
    if (reader.totalRecords() != r.refs || r.records != r.refs) {
        r.problems.push_back(
            "PTPK holds " + std::to_string(reader.totalRecords()) +
            " records, the replay counted " + std::to_string(r.refs));
    }
    if (reader.fileBytes() != r.bytes)
        r.problems.push_back("PTPK size differs from bytesWritten()");
}

/** The untraced op: exactly what `replay --pack-out` does. */
PackRun
packOnce(const core::Session &s, const std::string &path)
{
    Packed p = packSession(s, path);
    PackRun r;
    r.seconds = p.seconds;
    r.instructions = p.replay.instructions;
    r.cycles = p.replay.cycles;
    r.refs = p.replay.refs.totalRefs();
    r.records = p.records;
    r.bytes = p.bytes;
    r.fnv = p.fnv;
    r.problems = std::move(p.problems);
    if (r.problems.empty())
        checkPack(path, r);
    std::remove(path.c_str());
    return r;
}

/** The traced op: the same records through the benchmark's chunked
 *  sink, with spans around each public call. */
PackRun
tracedPackOnce(const core::Session &s, const std::string &path,
               SpanLog &log)
{
    PackRun r;
    const auto t0 = Clock::now();
    TracedPack tp;
    {
        SpanLog::Scope op(log, kOpSpan);
        tp = tracedPackReplay(s, path, log);
    }
    r.seconds = secondsSince(t0);
    if (!tp.ok)
        r.problems.push_back(tp.error);
    r.instructions = tp.replay.instructions;
    r.cycles = tp.replay.cycles;
    r.refs = tp.replay.refs.totalRefs();
    r.records = tp.records;
    r.bytes = tp.bytes;
    if (tp.ok) {
        checkPack(path, r);
        bool ok = false;
        r.fnv = super::fnvFile(path, &ok);
        if (!ok)
            r.problems.push_back("cannot hash " + path);
    }
    std::remove(path.c_str());
    return r;
}

/** A replay must reproduce the reference bit for bit. */
void
compareToReference(const PackRun &ref, PackRun &r)
{
    if (r.instructions != ref.instructions || r.cycles != ref.cycles ||
        r.refs != ref.refs || r.fnv != ref.fnv) {
        r.problems.push_back(
            "replay diverged from the set-up replay of the same session");
    }
}

/** Seconds of one replay of @p s with @p sink (or none). */
double
plainReplaySeconds(const core::Session &s, device::MemRefSink *sink)
{
    core::ReplayConfig cfg;
    cfg.extraRefSink = sink;
    const auto t0 = Clock::now();
    core::PalmSimulator::replaySession(s, cfg);
    return secondsSince(t0);
}

} // namespace

Outcome
runReplayPack(const RunOptions &o)
{
    Outcome out;
    if (o.truncateInput) {
        out.op({"--truncate-input applies to sweep_packed only"});
        return out;
    }

    // --- Set-up, repeated: collect, plus one warm-up pack ---------
    core::Session session;
    PackRun ref;
    std::vector<double> setupSecs;
    for (int k = 0; k < kSetups; ++k) {
        const auto t0 = Clock::now();
        session = collectLongSession(o.seed, kSessionInstructions);
        PackRun warm = packOnce(session, "warmup.ptpk");
        setupSecs.push_back(secondsSince(t0));
        if (k == 0)
            ref = warm;
        else
            compareToReference(ref, warm);
        out.op(warm.problems);
    }

    // --- Timed phase ----------------------------------------------
    SpanLog log;
    std::vector<double> plainSecs, tracedSecs, mips, mrefs;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < o.seconds) {
        PackRun r = packOnce(session, "timed.ptpk");
        compareToReference(ref, r);
        out.op(r.problems);
        plainSecs.push_back(r.seconds);
        mips.push_back(static_cast<double>(r.instructions) / r.seconds /
                       1e6);
        mrefs.push_back(static_cast<double>(r.refs) / r.seconds / 1e6);
        if (o.trace) {
            PackRun t = tracedPackOnce(session, "traced.ptpk", log);
            compareToReference(ref, t);
            out.op(t.problems);
            tracedSecs.push_back(t.seconds);
        }
    }

    Fnv64 d;
    d.updateValue(ref.instructions);
    d.updateValue(ref.cycles);
    d.updateValue(ref.refs);
    d.updateValue(ref.fnv);
    out.digest = hex64(d.value());

    const double refs = static_cast<double>(ref.refs);
    out.endToEnd["setup_s"] = median(setupSecs);
    out.endToEnd["refs_per_s"] = median(mrefs);
    out.endToEnd["trace_bytes_per_ref"] =
        refs > 0 ? static_cast<double>(ref.bytes) / refs : 0.0;
    out.extras.push_back({"sim_mips", median(mips), "Minstr/s"});
    out.extras.push_back(
        {"session_instructions", static_cast<double>(ref.instructions),
         "count"});
    out.extras.push_back({"session_refs", refs, "count"});
    out.extras.push_back({"pack_ms_p50", median(plainSecs) * 1e3, "ms"});

    if (!o.trace)
        return out;

    // --- Traced run: layer attribution ----------------------------
    reportSpans(log, tracedSecs.size(), out);
    const auto &span = out.spanSelfPerOp;
    auto per = [&](const char *name) {
        auto it = span.find(name);
        return it == span.end() ? 0.0 : it->second;
    };
    const double emulate = per("replay.emulate");
    const double encode = per("trace.encode");
    out.perLayer["replay.emulate_s"] = emulate;
    out.perLayer["replay.instructions"] =
        static_cast<double>(ref.instructions);
    out.perLayer["replay.refs"] = refs;
    out.perLayer["m68k.ns_per_instr"] =
        ref.instructions ? emulate * 1e9 /
                               static_cast<double>(ref.instructions)
                         : 0.0;
    out.perLayer["trace.encode_s"] = encode;
    out.perLayer["trace.encode_ns_per_ref"] =
        refs > 0 ? encode * 1e9 / refs : 0.0;
    out.perLayer["trace.close_s"] = per("trace.close");
    out.perLayer["trace.bytes"] = static_cast<double>(ref.bytes);
    out.perLayer["trace.blocks"] = static_cast<double>(ref.blocks);
    out.perLayer["trace_overhead"] =
        median(tracedSecs) / median(plainSecs);

    // Ref dispatch: a do-nothing extra sink against none, median of
    // three back-to-back pairs.
    NullSink nothing;
    std::vector<double> dispatch;
    for (int i = 0; i < 3; ++i) {
        const double with = plainReplaySeconds(session, &nothing);
        const double without = plainReplaySeconds(session, nullptr);
        dispatch.push_back(refs > 0 ? (with - without) * 1e9 / refs : 0.0);
    }
    out.perLayer["device.sink_dispatch_ns_per_ref"] = median(dispatch);
    return out;
}

} // namespace perfbench
