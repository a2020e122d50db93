#include "jobs.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "base/fnv.h"
#include "obs/hostmem.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "trace/packedtrace.h"

namespace pt::super
{

namespace
{

u64
doubleBits(double d)
{
    u64 v;
    std::memcpy(&v, &d, sizeof(v));
    return v;
}

double
bitsDouble(u64 v)
{
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
}

/** Footers are best-effort, like every journal append. */
void
footerBestEffort(JournalWriter *journal, const JournalFooter &f)
{
    if (journal && journal->ok())
        journal->appendFooter(f);
}

/** Shared early-out when the supervisor was cancelled: journal a
 *  clean Interrupted footer (the resumable orderly-stop marker) and
 *  report the interruption. */
bool
handleInterrupt(JobResult &res, JournalWriter *journal)
{
    if (!res.super.interrupted)
        return false;
    footerBestEffort(journal,
                     {JobStatus::Interrupted, 0,
                      "interrupted; `palmtrace resume` continues"});
    res.interrupted = true;
    res.error = "interrupted";
    return true;
}

SuperOptions
superOptionsFor(const JobSpec &spec, JournalWriter *journal,
                CancelToken *globalCancel, u64 backoffBaseMs,
                std::vector<bool> skip)
{
    SuperOptions so;
    so.jobs = spec.jobs;
    so.maxAttempts = spec.maxAttempts;
    so.deadlineMs = spec.deadlineMs;
    so.backoffBaseMs = backoffBaseMs;
    so.backoffSeed = spec.backoffSeed;
    so.journal = journal;
    so.globalCancel = globalCancel;
    so.skip = std::move(skip);
    return so;
}

/** The spec fields every job kind fills from its JobOptions. */
JobSpec
specFor(JobKind kind, const std::string &outPath, u64 totalItems,
        const JobOptions &jo)
{
    JobSpec spec;
    spec.kind = kind;
    spec.outPath = outPath;
    spec.blockCapacity = jo.blockCapacity;
    spec.totalItems = totalItems;
    spec.maxAttempts = jo.maxAttempts;
    spec.deadlineMs = jo.deadlineMs;
    spec.backoffSeed = jo.backoffSeed;
    spec.jobs = jo.jobs;
    return spec;
}

/** The blob item @p i settled with: this run's outcome, or the
 *  journalled one of an item a resume skipped. */
const std::vector<u8> &
settledBlob(const SuperResult &sr, const std::vector<ItemRecord> &prior,
            std::size_t i)
{
    return sr.outcomes[i].blob.empty() && i < prior.size()
               ? prior[i].blob
               : sr.outcomes[i].blob;
}

bool
bindingHolds(const JobSpec &spec, u64 actual, const std::string &what,
             JobResult &res)
{
    if (actual == spec.bindFingerprint)
        return true;
    res.error = what + " no longer matches the journalled job "
                       "(fingerprint changed)";
    return false;
}

} // namespace

u64
fnvFile(const std::string &path, bool *okOut)
{
    if (okOut)
        *okOut = false;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return 0;
    Fnv64 h;
    u8 buf[1 << 16];
    for (;;) {
        std::size_t n = std::fread(buf, 1, sizeof(buf), f);
        h.update(buf, n);
        if (n < sizeof(buf))
            break;
    }
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (okOut)
        *okOut = ok;
    return ok ? h.value() : 0;
}

// ---------------------------------------------------------------------
// Run and resume prologues, shared by every job kind

bool
openJobJournal(JournalWriter &journal, JournalWriter *&jptr,
               const std::string &path, const JobSpec &spec,
               JobResult &res)
{
    jptr = nullptr;
    if (path.empty())
        return true;
    std::string err;
    if (!journal.open(path, spec, &err)) {
        res.error = "cannot open journal: " + err;
        return false;
    }
    jptr = &journal;
    return true;
}

bool
loadResumable(const std::string &journalPath, JournalData &data,
              JobResult &res)
{
    if (auto r = loadJournal(journalPath, data); !r) {
        res.error = "cannot load journal " + journalPath + ": " +
                    r.message();
        return false;
    }
    res.outPath = data.spec.outPath;
    if (data.hasFooter &&
        data.footer.status != JobStatus::Interrupted) {
        // An orderly complete/degraded run: nothing left to resume.
        res.ok = true;
        res.nothingToDo = true;
        res.outFnv = data.footer.outFnv;
        res.degraded = data.footer.status == JobStatus::Degraded;
        return false;
    }
    return true;
}

JobResult &
finishCsv(JobResult &res, JournalWriter *journal, const std::string &csv)
{
    BinWriter w;
    w.putBytes(csv.data(), csv.size());
    std::string err;
    if (!w.writeFile(res.outPath, &err)) {
        res.error = "write " + res.outPath + ": " + err;
        return res;
    }
    res.outFnv = fnv64(csv.data(), csv.size());
    res.degraded = res.super.itemsQuarantined > 0;
    footerBestEffort(
        journal,
        {res.degraded ? JobStatus::Degraded : JobStatus::Complete,
         res.outFnv, res.degraded ? res.super.firstError : ""});
    res.ok = true;
    return res;
}

// ---------------------------------------------------------------------
// The fleet pipeline

namespace
{

/** The smallest encoded spec: an empty name plus the fixed fields. */
constexpr std::size_t kMinSpecBytes = 4 + 8 + 4 * 4 + 5 * 8;

/** A u32 count, then that many specs: the last field of both fleet
 *  journal extras. */
void
putSessionSpecs(BinWriter &w,
                const std::vector<workload::SessionSpec> &specs)
{
    w.put32(static_cast<u32>(specs.size()));
    for (const workload::SessionSpec &s : specs)
        putSessionSpec(w, s);
}

LoadResult
getSessionSpecs(BinReader &r, std::vector<workload::SessionSpec> &out)
{
    const std::size_t at = r.offset();
    const u32 count = r.get32();
    // Checked before anything is allocated: a hostile count must be a
    // structured error, not an allocation bomb.
    if (!r.ok() || count > r.remaining() / kMinSpecBytes) {
        return LoadResult::fail(at, "specs.count",
                                std::to_string(count) +
                                    " specs cannot fit in the bytes "
                                    "that follow");
    }
    out.clear();
    out.reserve(count);
    for (u32 i = 0; i < count; ++i) {
        workload::SessionSpec s;
        if (auto e = getSessionSpec(r, s); !e)
            return e;
        out.push_back(std::move(s));
    }
    if (!r.atEnd()) {
        return LoadResult::fail(r.offset(), "specs",
                                "trailing bytes after the last spec");
    }
    return {};
}

std::vector<u8>
serializeFleetExtra(const std::vector<workload::SessionSpec> &specs,
                    const FleetOptions &fo)
{
    BinWriter w;
    w.put8(fo.saveSessions ? 1 : 0);
    putSessionSpecs(w, specs);
    return w.takeBytes();
}

/** The spec check both fleet resumes share: false, with res.error
 *  set, when the spec list failed to decode (@p decoded), disagrees
 *  with the item count, or fails the binding fingerprint. */
bool
fleetSpecsHold(const LoadResult &decoded,
               const std::vector<workload::SessionSpec> &specs,
               const JobSpec &spec, JobResult &res)
{
    const std::string what =
        std::string("journalled ") + jobKindName(spec.kind) + " specs";
    if (!decoded) {
        res.error = what + " are corrupt: " + decoded.message();
        return false;
    }
    if (specs.size() != spec.totalItems) {
        res.error = what + " are corrupt: " +
                    std::to_string(specs.size()) + " specs for " +
                    std::to_string(spec.totalItems) + " items";
        return false;
    }
    // The specs travel inside the journal, so the binding fingerprint
    // covers them directly.
    return bindingHolds(spec, fnv64(spec.extra.data(), spec.extra.size()),
                        "the " + what, res);
}

bool
fleetSpecs(const JobSpec &spec, std::vector<workload::SessionSpec> &specs,
           FleetOptions &fo, JobResult &res)
{
    BinReader r(spec.extra);
    fo.saveSessions = r.get8() != 0;
    return fleetSpecsHold(r.ok() ? getSessionSpecs(r, specs)
                                 : LoadResult::fail(0, "saveSessions",
                                                    "missing"),
                          specs, spec, res);
}

JobResult
fleetJobCore(const std::vector<workload::SessionSpec> &specs,
             const FleetOptions &fo, const JobSpec &spec,
             JournalWriter *journal, std::vector<bool> skip,
             const std::vector<ItemRecord> &prior, const JobOptions &jo)
{
    JobResult res;
    res.outPath = spec.outPath;
    const std::string &outBase = spec.sessionPath;
    const std::size_t n = specs.size();
    const auto t0 = std::chrono::steady_clock::now();

    ItemFn fn = [&](u64 i, CancelToken &tok) -> ItemOutcome {
        ItemOutcome out;
        const workload::SessionSpec &ss =
            specs[static_cast<std::size_t>(i)];

        // Scoped metrics: this session's counters accumulate in a
        // private registry for the attempt's lifetime, published into
        // the process totals only when the attempt succeeds — retried
        // attempts never double-count.
        std::unique_ptr<obs::MetricScope> scope;
        std::unique_ptr<obs::ScopedProfileSink> scoped;
        if (obs::profileSink()) {
            scope =
                std::make_unique<obs::MetricScope>("fleet/" + ss.name);
            scoped = std::make_unique<obs::ScopedProfileSink>(*scope);
        }

        const std::string tracePath = fleetTracePath(outBase, i);
        FleetItemResult r = runFleetItem(
            ss, tracePath, spec.blockCapacity, &tok,
            fo.saveSessions ? outBase + "-session-" + std::to_string(i)
                            : std::string());
        if (!r.ok) {
            out.error = r.reason;
            return out;
        }
        out.ok = true;
        out.artifact = tracePath;
        out.artifactFnv = r.traceFnv;
        out.blob = r.measure.blob();
        if (scope)
            scope->publish();
        return out;
    };

    res.super = superviseItems(
        n, fn,
        superOptionsFor(spec, journal, jo.globalCancel,
                        jo.backoffBaseMs, std::move(skip)));

    // Fleet throughput and footprint gauges. RSS-per-device reports
    // what the copy-on-write memory model actually costs per session
    // in this process; event totals fold in journalled (skipped)
    // items so a resumed run reports the whole fleet.
    u64 totalEvents = 0;
    for (std::size_t i = 0; i < n; ++i) {
        FleetMeasure m;
        if (m.fromBlob(settledBlob(res.super, prior, i)))
            totalEvents += m.events;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    obs::Registry &reg = obs::Registry::global();
    if (elapsed > 0 && n > 0) {
        reg.gauge("fleet.sessions_per_sec")
            .set(static_cast<double>(res.super.itemsDone) / elapsed);
        reg.gauge("fleet.events_per_sec")
            .set(static_cast<double>(totalEvents) / elapsed);
    }
    if (n > 0) {
        reg.gauge("fleet.rss_per_device_bytes")
            .set(static_cast<double>(obs::residentSetBytes()) /
                 static_cast<double>(n));
    }

    if (handleInterrupt(res, journal))
        return res; // finished traces stay for the resume
    return finishCsv(res, journal,
                     fleetCsv(specs, outBase, res.super, prior));
}

JobResult
resumeFleetJob(const std::string &journalPath, const JournalData &data,
               const JobOptions &jo)
{
    JobResult res;
    res.outPath = data.spec.outPath;

    std::vector<workload::SessionSpec> specs;
    FleetOptions fo;
    if (!fleetSpecs(data.spec, specs, fo, res))
        return res;

    ResumeState rs;
    beginFleetResume(rs, journalPath, data, jo);
    return fleetJobCore(specs, fo, rs.spec, rs.jptr, std::move(rs.skip),
                        rs.latest, jo);
}

} // namespace

void
putSessionSpec(BinWriter &w, const workload::SessionSpec &s)
{
    w.putString(s.name);
    const workload::UserModelConfig &c = s.config;
    w.put64(c.seed);
    w.put32(c.interactions);
    w.put32(c.meanThinkTicks);
    w.put32(c.meanIdleTicks);
    w.put32(c.meanBurstActions);
    w.put64(doubleBits(c.strokeWeight));
    w.put64(doubleBits(c.tapWeight));
    w.put64(doubleBits(c.appSwitchWeight));
    w.put64(doubleBits(c.scrollHoldWeight));
    w.put64(doubleBits(c.beamWeight));
}

LoadResult
getSessionSpec(BinReader &r, workload::SessionSpec &out)
{
    out.name = r.getString();
    workload::UserModelConfig &c = out.config;
    c.seed = r.get64();
    c.interactions = r.get32();
    c.meanThinkTicks = r.get32();
    c.meanIdleTicks = r.get32();
    c.meanBurstActions = r.get32();
    c.strokeWeight = bitsDouble(r.get64());
    c.tapWeight = bitsDouble(r.get64());
    c.appSwitchWeight = bitsDouble(r.get64());
    c.scrollHoldWeight = bitsDouble(r.get64());
    c.beamWeight = bitsDouble(r.get64());
    if (!r.ok()) {
        return LoadResult::fail(r.offset(), "spec",
                                "payload truncated or malformed");
    }
    return {};
}

void
beginFleetResume(ResumeState &rs, const std::string &journalPath,
                 const JournalData &data, const JobOptions &jo)
{
    rs.spec = data.spec;
    if (jo.jobs)
        rs.spec.jobs = jo.jobs;

    // Skip only Done items whose measure decodes and whose journalled
    // trace is still intact on disk: the .ptpk is the product, not
    // just the row. Anything else — Failed, Running at crash time,
    // checksum drift — re-runs.
    rs.latest = data.latestPerItem();
    rs.skip.assign(rs.latest.size(), false);
    for (std::size_t i = 0; i < rs.latest.size(); ++i) {
        const ItemRecord &rec = rs.latest[i];
        if (rec.state != ItemState::Done ||
            !FleetMeasure{}.fromBlob(rec.blob))
            continue;
        bool readable = true;
        const u64 fnv = fnvFile(rec.artifact, &readable);
        rs.skip[i] = readable && fnv == rec.artifactFnv;
    }

    // Stale temp hygiene: a crash can strand <trace>.tmp / <out>.tmp
    // litter. They are this job's own temporaries, so the resume
    // removes them before re-running.
    for (u64 i = 0; i < data.spec.totalItems; ++i)
        std::remove(
            (fleetTracePath(data.spec.sessionPath, i) + ".tmp").c_str());
    std::remove((data.spec.outPath + ".tmp").c_str());

    if (rs.journal.openAppend(journalPath, data.validBytes))
        rs.jptr = &rs.journal;
}

std::vector<u8>
remoteFleetExtra(const std::string &endpoint,
                 const std::vector<workload::SessionSpec> &specs)
{
    BinWriter w;
    w.putString(endpoint);
    putSessionSpecs(w, specs);
    return w.takeBytes();
}

bool
remoteFleetSpecs(const JobSpec &spec, std::string &endpoint,
                 std::vector<workload::SessionSpec> &specs,
                 JobResult &res)
{
    BinReader r(spec.extra);
    endpoint = r.getString();
    return fleetSpecsHold(r.ok() ? getSessionSpecs(r, specs)
                                 : LoadResult::fail(0, "endpoint",
                                                    "truncated"),
                          specs, spec, res);
}

void
FleetMeasure::put(BinWriter &w) const
{
    w.put64(events);
    w.put64(traceBytes);
    w.put64(ramRefs);
    w.put64(flashRefs);
    w.put64(instructions);
    w.put64(cycles);
}

void
FleetMeasure::get(BinReader &r)
{
    events = r.get64();
    traceBytes = r.get64();
    ramRefs = r.get64();
    flashRefs = r.get64();
    instructions = r.get64();
    cycles = r.get64();
}

std::vector<u8>
FleetMeasure::blob() const
{
    BinWriter w;
    put(w);
    return w.takeBytes();
}

bool
FleetMeasure::fromBlob(const std::vector<u8> &blob)
{
    BinReader r(blob);
    get(r);
    return r.ok() && r.atEnd();
}

FleetItemResult
runFleetItem(const workload::SessionSpec &spec,
             const std::string &tracePath, u32 blockCapacity,
             CancelToken *cancel, const std::string &sessionBase)
{
    FleetItemResult r;
    auto fail = [&r](const char *field, std::string reason) {
        r.field = field;
        r.reason = std::move(reason);
        return r;
    };

    // The item is a pure function of its spec: the device boots from
    // the shared ROM pages, the session is deterministic in the
    // spec's seed, and the packed trace streams straight to disk — so
    // the bytes cannot depend on job count, on which worker ran the
    // item, or on whether a server ran it.
    core::Session sess = core::PalmSimulator::collect(spec.config);
    if (!sessionBase.empty()) {
        std::string serr;
        if (!sess.save(sessionBase, &serr))
            return fail("session", "cannot save session: " + serr);
    }

    trace::PackedTraceWriter writer(tracePath, blockCapacity);
    if (!writer.ok())
        return fail("trace", "cannot open trace " + tracePath);
    trace::PackedWriterSink sink(writer);
    core::ReplayConfig cfg;
    cfg.options.cancel = cancel;
    cfg.extraRefSink = &sink;
    core::ReplayResult rr = core::PalmSimulator::replaySession(sess, cfg);
    if (rr.replayStats.interrupted) {
        writer.abort();
        return fail("session", "interrupted");
    }
    if (rr.replayStats.optionsRejected) {
        writer.abort();
        return fail("replay", "replay options rejected: " +
                                  rr.replayStats.optionsError);
    }
    r.measure.events = writer.count();
    std::string werr;
    if (!writer.close(&werr))
        return fail("trace", "close " + tracePath + ": " + werr);
    r.measure.traceBytes = writer.bytesWritten();
    bool fnvOk = false;
    r.traceFnv = fnvFile(tracePath, &fnvOk);
    if (!fnvOk)
        return fail("trace", "trace unreadable after close: " + tracePath);
    r.measure.ramRefs = rr.refs.ramRefs();
    r.measure.flashRefs = rr.refs.flashRefs();
    r.measure.instructions = rr.instructions;
    r.measure.cycles = rr.cycles;
    r.ok = true;
    return r;
}

std::string
fleetTracePath(const std::string &outBase, u64 i)
{
    return outBase + "-session-" + std::to_string(i) + ".ptpk";
}

std::string
fleetCsv(const std::vector<workload::SessionSpec> &specs,
         const std::string &outBase, const SuperResult &sr,
         const std::vector<ItemRecord> &prior)
{
    // Every row renders from the journal-format blob — skipped and
    // fresh items, local and served — so a resumed or remote run's CSV
    // is byte-identical to an uninterrupted local one.
    std::string csv =
        "session,status,trace,events,trace_bytes,ram_refs,flash_refs,"
        "instructions,cycles\n";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        csv += specs[i].name;
        FleetMeasure m;
        if (sr.quarantined[i] || !m.fromBlob(settledBlob(sr, prior, i))) {
            csv += ",quarantined,,0,0,0,0,0,0\n";
            continue;
        }
        csv += ",ok,";
        csv += fleetTracePath(outBase, i);
        csv += ',' + std::to_string(m.events);
        csv += ',' + std::to_string(m.traceBytes);
        csv += ',' + std::to_string(m.ramRefs);
        csv += ',' + std::to_string(m.flashRefs);
        csv += ',' + std::to_string(m.instructions);
        csv += ',' + std::to_string(m.cycles);
        csv += '\n';
    }
    return csv;
}

JobResult
runFleetJob(const std::vector<workload::SessionSpec> &specs,
            const std::string &outBase, const JobOptions &jo,
            const FleetOptions &fo)
{
    JobResult res;
    res.outPath = outBase + ".csv";

    JobSpec spec =
        specFor(JobKind::Fleet, res.outPath, specs.size(), jo);
    spec.sessionPath = outBase; ///< per-session trace base
    spec.extra = serializeFleetExtra(specs, fo);
    spec.bindFingerprint = fnv64(spec.extra.data(), spec.extra.size());

    JournalWriter journal;
    JournalWriter *jptr;
    if (!openJobJournal(journal, jptr, jo.journalPath, spec, res))
        return res;
    return fleetJobCore(specs, fo, spec, jptr, {}, {}, jo);
}

JobResult
resumeJob(const std::string &journalPath, const JobOptions &jo)
{
    JobResult res;
    JournalData data;
    if (!loadResumable(journalPath, data, res))
        return res;
    switch (data.spec.kind) {
      case JobKind::Fleet:
        return resumeFleetJob(journalPath, data, jo);
      default:
        res.error = std::string("journal records a ") +
                    jobKindName(data.spec.kind) +
                    " job, which resumeJob does not run";
        return res;
    }
}

} // namespace pt::super
