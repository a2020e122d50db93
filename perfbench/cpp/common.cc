#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

#include "super/jobs.h"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Outcome::op(const std::vector<std::string> &problems)
{
    ++attempted;
    if (problems.empty())
        return;
    ++failed;
    failures.insert(failures.end(), problems.begin(), problems.end());
}

void
SpanLog::begin(const char *name)
{
    stack.push_back({name, Clock::now(), 0.0});
}

void
SpanLog::end()
{
    const Open o = stack.back();
    stack.pop_back();
    const double d = secondsSince(o.start);
    selfSec[o.name] += d - o.childSec;
    if (!stack.empty())
        stack.back().childSec += d;
}

void
reportSpans(const SpanLog &log, u64 tracedOps, Outcome &out)
{
    double total = 0, unattributed = 0;
    for (const auto &[name, sec] : log.self()) {
        total += sec;
        if (name == kOpSpan)
            unattributed = sec;
        out.spanSelfPerOp[name] =
            tracedOps ? sec / static_cast<double>(tracedOps) : 0.0;
    }
    out.perLayer["span_coverage"] =
        total > 0 ? (total - unattributed) / total : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

u64
mixSeed(u64 seed, u64 stream)
{
    u64 z = seed + (stream + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

pt::core::Session
collectLongSession(u64 seed, u64 minInstructions)
{
    pt::core::PalmSimulator sim;
    sim.beginCollection();
    const u64 start = sim.device().instructionsRetired();
    for (u64 sitting = 0;
         sim.device().instructionsRetired() - start < minInstructions;
         ++sitting) {
        pt::workload::UserModelConfig cfg;
        cfg.seed = mixSeed(seed, sitting);
        cfg.interactions = 1;
        sim.runUser(cfg);
    }
    return sim.endCollection();
}

Packed
packSession(const pt::core::Session &s, const std::string &path)
{
    Packed p;
    const auto t0 = Clock::now();
    pt::trace::PackedTraceWriter writer(path);
    pt::trace::PackedWriterSink sink(writer);
    pt::core::ReplayConfig cfg;
    cfg.extraRefSink = &sink;
    p.replay = pt::core::PalmSimulator::replaySession(s, cfg);
    std::string err;
    const bool closed = writer.ok() && writer.close(&err);
    p.seconds = secondsSince(t0);
    p.records = writer.count();
    p.bytes = writer.bytesWritten();
    if (!closed) {
        p.problems.push_back("close " + path + ": " + err);
        return p;
    }
    bool ok = false;
    p.fnv = pt::super::fnvFile(path, &ok);
    if (!ok)
        p.problems.push_back("cannot hash " + path);
    return p;
}

std::string
hex64(u64 v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

ChunkedPackSink::ChunkedPackSink(pt::trace::PackedTraceWriter &w,
                                 SpanLog &log)
    : writer(w), log(log)
{
    chunk.reserve(kChunkRefs);
}

void
ChunkedPackSink::onRef(pt::Addr addr, pt::m68k::AccessKind kind,
                       pt::device::RefClass cls)
{
    if (cls != pt::device::RefClass::Ram &&
        cls != pt::device::RefClass::Flash)
        return;
    chunk.push_back({addr, static_cast<u8>(kind),
                     static_cast<u8>(cls == pt::device::RefClass::Flash)});
    if (chunk.size() == kChunkRefs)
        flush();
}

void
ChunkedPackSink::flush()
{
    SpanLog::Scope span(log, "trace.encode");
    for (const pt::trace::TraceRecord &r : chunk)
        writer.add(r);
    chunk.clear();
}

TracedPack
tracedPackReplay(const pt::core::Session &s, const std::string &path,
                 SpanLog &log)
{
    TracedPack out;
    log.begin("trace.create");
    pt::trace::PackedTraceWriter writer(path);
    log.end();
    if (!writer.ok()) {
        out.error = "cannot create " + path;
        return out;
    }
    ChunkedPackSink sink(writer, log);
    pt::core::ReplayConfig cfg;
    cfg.extraRefSink = &sink;
    {
        SpanLog::Scope span(log, "replay.emulate");
        out.replay = pt::core::PalmSimulator::replaySession(s, cfg);
    }
    sink.flush();
    out.records = writer.count();
    std::string err;
    {
        SpanLog::Scope span(log, "trace.close");
        out.ok = writer.close(&err);
    }
    if (!out.ok)
        out.error = "close " + path + ": " + err;
    out.bytes = writer.bytesWritten();
    return out;
}

} // namespace perfbench
