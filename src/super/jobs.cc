#include "jobs.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "base/fnv.h"
#include "obs/hostmem.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "trace/packedtrace.h"
#include "workload/tracefeed.h"

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

void
appendFixed(std::string &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    out += buf;
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

/** The finalize step of every job: output FNV, degraded flag and the
 *  Complete/Degraded footer. */
JobResult &
finishJob(JobResult &res, JournalWriter *journal, u64 outFnv)
{
    res.outFnv = outFnv;
    res.degraded = res.super.itemsQuarantined > 0;
    footerBestEffort(
        journal,
        {res.degraded ? JobStatus::Degraded : JobStatus::Complete,
         res.outFnv, res.degraded ? res.super.firstError : ""});
    res.ok = true;
    return res;
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

namespace
{

/**
 * The resume prologue every job kind shares. Skips Done items whose
 * blob @p blobOk accepts (nullptr = any) and, when @p artifactPath is
 * given, whose journalled artifact's FNV still matches; removes the
 * stale .tmp of the output and of every item artifact; reopens the
 * journal for appending; applies jo.jobs over the journalled width.
 */
void
beginResume(ResumeState &rs, const std::string &journalPath,
            const JournalData &data, const JobOptions &jo,
            bool (*blobOk)(const std::vector<u8> &),
            const std::function<std::string(u64)> &artifactPath)
{
    rs.spec = data.spec;
    if (jo.jobs)
        rs.spec.jobs = jo.jobs;

    // Skip items whose journalled result is still intact; anything
    // else — Failed, Running at crash time, checksum drift — re-runs.
    rs.latest = data.latestPerItem();
    rs.skip.assign(rs.latest.size(), false);
    for (std::size_t i = 0; i < rs.latest.size(); ++i) {
        const ItemRecord &rec = rs.latest[i];
        if (rec.state != ItemState::Done || (blobOk && !blobOk(rec.blob)))
            continue;
        bool readable = true;
        const u64 fnv = artifactPath ? fnvFile(rec.artifact, &readable)
                                     : rec.artifactFnv;
        rs.skip[i] = readable && fnv == rec.artifactFnv;
    }

    // Stale temp hygiene: a crash can strand <artifact>.tmp /
    // <out>.tmp litter. They are this job's own temporaries, so the
    // resume removes them before re-running.
    if (artifactPath) {
        for (u64 i = 0; i < data.spec.totalItems; ++i)
            std::remove((artifactPath(i) + ".tmp").c_str());
    }
    std::remove((data.spec.outPath + ".tmp").c_str());

    if (rs.journal.openAppend(journalPath, data.validBytes))
        rs.jptr = &rs.journal;
}

} // namespace

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
    return finishJob(res, journal, fnv64(csv.data(), csv.size()));
}

// ---------------------------------------------------------------------
// Epoch jobs

namespace
{

JobResult
epochJobCore(const core::Session &s, const epoch::EpochPlan &plan,
             const JobSpec &spec, JournalWriter *journal,
             std::vector<bool> skip, const JobOptions &jo)
{
    JobResult res;
    res.outPath = spec.outPath;
    const std::size_t n = plan.entries.size();

    epoch::RunOptions ro;
    ro.jobs = 1; // parallelism is the supervisor's fan-out
    ro.blockCapacity = spec.blockCapacity;
    ro.progress = jo.progress;
    ro.progressEveryEvents = jo.progressEveryEvents;

    ItemFn fn = [&](u64 k, CancelToken &tok) -> ItemOutcome {
        ItemOutcome out;
        const std::string shard =
            epoch::shardPath(spec.outPath, k);
        epoch::EpochAttempt a = epoch::runOneEpoch(
            s, plan, static_cast<std::size_t>(k), shard, ro, &tok);
        if (a.interrupted) {
            out.error = "interrupted";
            return out;
        }
        if (!a.ioOk) {
            out.error = a.error;
            return out;
        }
        if (!a.verified) {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "fingerprint mismatch (expected "
                          "0x%016llX, actual 0x%016llX)",
                          static_cast<unsigned long long>(
                              plan.expectedFingerprint(
                                  static_cast<std::size_t>(k))),
                          static_cast<unsigned long long>(
                              a.actualFingerprint));
            out.error = msg;
            return out;
        }
        bool fnvOk = false;
        out.artifactFnv = fnvFile(shard, &fnvOk);
        if (!fnvOk) {
            out.error = "shard unreadable after close: " + shard;
            return out;
        }
        out.ok = true;
        out.artifact = shard;
        BinWriter b;
        b.put64(plan.lastEvent(static_cast<std::size_t>(k)) -
                plan.firstEvent(static_cast<std::size_t>(k)));
        b.put64(a.refs);
        b.put64(a.instructions);
        b.put64(a.cycles);
        out.blob = b.takeBytes();
        return out;
    };

    res.super = superviseItems(
        n, fn,
        superOptionsFor(spec, journal, jo.globalCancel,
                        jo.backoffBaseMs, std::move(skip)));

    if (handleInterrupt(res, journal))
        return res; // shards of Done items stay for the resume

    // Quarantined epochs keep their last attempt's shard (the
    // divergence-degrade contract), so the stitch still covers every
    // epoch; an epoch whose shard never made it to disk surfaces
    // here as an unreadable-shard error.
    epoch::RunOptions sro;
    sro.jobs = spec.jobs;
    sro.blockCapacity = spec.blockCapacity;
    epoch::StitchResult st = stitchShards(spec.outPath, n, sro);
    if (!st.ok) {
        // No footer: the Done records stand and a resume retries
        // the failed stitch.
        res.error = "stitch failed: " + st.error;
        return res;
    }
    res.refs = st.refs;
    res.bytesWritten = st.bytesWritten;

    finishJob(res, journal, fnvFile(spec.outPath));
    if (!jo.keepShards) {
        for (std::size_t k = 0; k < n; ++k)
            std::remove(epoch::shardPath(spec.outPath, k).c_str());
    }
    return res;
}

JobResult
resumeEpochJob(const std::string &journalPath, const JournalData &data,
               const JobOptions &jo)
{
    JobResult res;
    res.outPath = data.spec.outPath;

    core::Session s;
    if (auto r = core::Session::load(data.spec.sessionPath, s); !r) {
        res.error = "cannot reload session " + data.spec.sessionPath +
                    ": " + r.message();
        return res;
    }
    epoch::EpochPlan plan;
    if (auto r = epoch::EpochPlan::load(data.spec.planPath, plan);
        !r) {
        res.error = "cannot reload plan " + data.spec.planPath + ": " +
                    r.message();
        return res;
    }
    if (!bindingHolds(data.spec, plan.logFingerprint,
                      "the plan at " + data.spec.planPath, res)) {
        return res;
    }
    if (std::string err = epoch::validatePlan(s, plan); !err.empty()) {
        res.error = err;
        return res;
    }
    if (plan.entries.size() != data.spec.totalItems) {
        res.error = "the plan's epoch count changed since the "
                    "journal was written";
        return res;
    }

    ResumeState rs;
    beginResume(rs, journalPath, data, jo, nullptr, [&](u64 k) {
        return epoch::shardPath(data.spec.outPath, k);
    });
    return epochJobCore(s, plan, rs.spec, rs.jptr, std::move(rs.skip),
                        jo);
}

} // namespace

JobResult
runEpochJob(const core::Session &s, const std::string &sessionPath,
            const epoch::EpochPlan &plan, const std::string &planPath,
            const std::string &outPath, const JobOptions &jo)
{
    JobResult res;
    res.outPath = outPath;
    if (std::string err = epoch::validatePlan(s, plan); !err.empty()) {
        res.error = err;
        return res;
    }

    JobSpec spec =
        specFor(JobKind::EpochRun, outPath, plan.entries.size(), jo);
    spec.sessionPath = sessionPath;
    spec.planPath = planPath;
    spec.bindFingerprint = plan.logFingerprint;

    JournalWriter journal;
    JournalWriter *jptr;
    if (!openJobJournal(journal, jptr, jo.journalPath, spec, res))
        return res;
    return epochJobCore(s, plan, spec, jptr, {}, jo);
}

// ---------------------------------------------------------------------
// Sweep jobs

namespace
{

/** One journalled config: size, line, assoc (u32 each), policy (u8). */
constexpr std::size_t kConfigBytes = 13;

std::vector<u8>
serializeConfigs(const std::vector<cache::CacheConfig> &configs)
{
    BinWriter w;
    w.put32(static_cast<u32>(configs.size()));
    for (const cache::CacheConfig &c : configs) {
        w.put32(c.sizeBytes);
        w.put32(c.lineBytes);
        w.put32(c.assoc);
        w.put8(static_cast<u8>(c.policy));
    }
    return w.takeBytes();
}

LoadResult
deserializeConfigs(const std::vector<u8> &extra,
                   std::vector<cache::CacheConfig> &out)
{
    BinReader r(extra);
    const u32 count = r.get32();
    if (!r.ok() || count > r.remaining() / kConfigBytes) {
        return LoadResult::fail(0, "configs.count",
                                std::to_string(count) +
                                    " configs cannot fit in the bytes "
                                    "that follow");
    }
    out.clear();
    for (u32 i = 0; i < count; ++i) {
        cache::CacheConfig c;
        c.sizeBytes = r.get32();
        c.lineBytes = r.get32();
        c.assoc = r.get32();
        const u8 policy = r.get8();
        if (policy > static_cast<u8>(cache::Policy::Random)) {
            return LoadResult::fail(r.offset() - 1, "configs.policy",
                                    "unknown replacement policy " +
                                        std::to_string(policy));
        }
        c.policy = static_cast<cache::Policy>(policy);
        out.push_back(c);
    }
    if (!r.atEnd()) {
        return LoadResult::fail(r.offset(), "configs",
                                "trailing bytes after the last config");
    }
    return {};
}

/** The input check run and resume share: every config valid and the
 *  trace readable. @p traceFnv receives the binding fingerprint. */
bool
checkSweepInputs(const std::vector<cache::CacheConfig> &configs,
                 const std::string &tracePath, u64 &traceFnv,
                 JobResult &res)
{
    for (const cache::CacheConfig &c : configs) {
        if (auto r = c.validate(); !r) {
            res.error = "bad cache config " + c.name() + ": " +
                        r.message();
            return false;
        }
    }
    bool fnvOk = false;
    traceFnv = fnvFile(tracePath, &fnvOk);
    if (!fnvOk)
        res.error = "cannot read trace " + tracePath;
    return fnvOk;
}

std::vector<u8>
sweepStatsBlob(const cache::CacheStats &st)
{
    BinWriter w;
    w.put64(st.accesses);
    w.put64(st.misses);
    w.put64(st.evictions);
    w.put64(st.ramAccesses);
    w.put64(st.ramMisses);
    w.put64(st.flashAccesses);
    w.put64(st.flashMisses);
    return w.takeBytes();
}

bool
sweepStatsFromBlob(const std::vector<u8> &blob, cache::CacheStats &st)
{
    BinReader r(blob);
    st.accesses = r.get64();
    st.misses = r.get64();
    st.evictions = r.get64();
    st.ramAccesses = r.get64();
    st.ramMisses = r.get64();
    st.flashAccesses = r.get64();
    st.flashMisses = r.get64();
    return r.ok() && r.atEnd();
}

bool
sweepBlobOk(const std::vector<u8> &blob)
{
    cache::CacheStats st;
    return sweepStatsFromBlob(blob, st);
}

JobResult
sweepJobCore(const std::vector<cache::CacheConfig> &configs,
             const JobSpec &spec, JournalWriter *journal,
             std::vector<bool> skip,
             const std::vector<ItemRecord> &prior, const JobOptions &jo)
{
    JobResult res;
    res.outPath = spec.outPath;
    const std::size_t n = configs.size();

    ItemFn fn = [&](u64 i, CancelToken &tok) -> ItemOutcome {
        ItemOutcome out;
        // Scoped metrics: this config's counters accumulate in a
        // private registry for the attempt's lifetime, published
        // into the process totals only when the attempt succeeds —
        // retried attempts never double-count.
        std::unique_ptr<obs::MetricScope> scope;
        std::unique_ptr<obs::ScopedProfileSink> scoped;
        if (obs::profileSink()) {
            scope = std::make_unique<obs::MetricScope>(
                "sweep/" +
                configs[static_cast<std::size_t>(i)].name());
            scoped =
                std::make_unique<obs::ScopedProfileSink>(*scope);
        }
        workload::PackedSweepResult r = workload::sweepPackedFile(
            spec.sessionPath, {configs[static_cast<std::size_t>(i)]},
            1, &tok);
        if (r.interrupted) {
            out.error = "interrupted";
            return out;
        }
        if (!r.status) {
            out.error = "trace error: " + r.status.message();
            return out;
        }
        if (r.caches.size() != 1) {
            out.error = "sweep produced no result";
            return out;
        }
        out.ok = true;
        out.blob = sweepStatsBlob(r.caches[0].stats());
        if (scope)
            scope->publish();
        return out;
    };

    res.super = superviseItems(
        n, fn,
        superOptionsFor(spec, journal, jo.globalCancel,
                        jo.backoffBaseMs, std::move(skip)));

    if (handleInterrupt(res, journal))
        return res;

    // Render every row from the journal-format blob — skipped items
    // reuse their journalled stats — so a resumed run's CSV is
    // byte-identical to an uninterrupted one.
    std::string csv =
        "config,size_bytes,line_bytes,assoc,policy,status,accesses,"
        "misses,miss_rate,ram_accesses,ram_misses,flash_accesses,"
        "flash_misses\n";
    for (std::size_t i = 0; i < n; ++i) {
        const cache::CacheConfig &c = configs[i];
        csv += c.name();
        csv += ',' + std::to_string(c.sizeBytes);
        csv += ',' + std::to_string(c.lineBytes);
        csv += ',' + std::to_string(c.assoc);
        csv += ',';
        csv += cache::policyName(c.policy);
        cache::CacheStats st;
        if (res.super.quarantined[i] ||
            !sweepStatsFromBlob(settledBlob(res.super, prior, i), st)) {
            csv += ",quarantined,0,0,0.000000,0,0,0,0\n";
            continue;
        }
        csv += ",ok,";
        csv += std::to_string(st.accesses);
        csv += ',' + std::to_string(st.misses);
        csv += ',';
        appendFixed(csv, st.missRate());
        csv += ',' + std::to_string(st.ramAccesses);
        csv += ',' + std::to_string(st.ramMisses);
        csv += ',' + std::to_string(st.flashAccesses);
        csv += ',' + std::to_string(st.flashMisses);
        csv += '\n';
    }
    return finishCsv(res, journal, csv);
}

JobResult
resumeSweepJob(const std::string &journalPath, const JournalData &data,
               const JobOptions &jo)
{
    JobResult res;
    res.outPath = data.spec.outPath;

    std::vector<cache::CacheConfig> configs;
    if (auto r = deserializeConfigs(data.spec.extra, configs); !r) {
        res.error = "journalled sweep configs are corrupt: " +
                    r.message();
        return res;
    }
    if (configs.size() != data.spec.totalItems) {
        res.error = "journalled sweep configs are corrupt: " +
                    std::to_string(configs.size()) + " configs for " +
                    std::to_string(data.spec.totalItems) + " items";
        return res;
    }
    u64 traceFnv = 0;
    if (!checkSweepInputs(configs, data.spec.sessionPath, traceFnv,
                          res) ||
        !bindingHolds(data.spec, traceFnv,
                      "the trace at " + data.spec.sessionPath, res)) {
        return res;
    }

    ResumeState rs;
    beginResume(rs, journalPath, data, jo, sweepBlobOk, nullptr);
    return sweepJobCore(configs, rs.spec, rs.jptr, std::move(rs.skip),
                        rs.latest, jo);
}

} // namespace

JobResult
runSweepJob(const std::string &tracePath,
            const std::vector<cache::CacheConfig> &configs,
            const std::string &outPath, const JobOptions &jo)
{
    JobResult res;
    res.outPath = outPath;
    u64 traceFnv = 0;
    if (!checkSweepInputs(configs, tracePath, traceFnv, res))
        return res;

    JobSpec spec =
        specFor(JobKind::PackedSweep, outPath, configs.size(), jo);
    spec.sessionPath = tracePath;
    spec.bindFingerprint = traceFnv;
    spec.extra = serializeConfigs(configs);

    JournalWriter journal;
    JournalWriter *jptr;
    if (!openJobJournal(journal, jptr, jo.journalPath, spec, res))
        return res;
    return sweepJobCore(configs, spec, jptr, {}, {}, jo);
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

        // Scoped metrics, published only on success (see sweepJobCore).
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
    // Skip only items whose journalled trace is still intact on disk:
    // the .ptpk is the product, not just the row.
    beginResume(
        rs, journalPath, data, jo,
        [](const std::vector<u8> &b) { return FleetMeasure{}.fromBlob(b); },
        [&](u64 i) { return fleetTracePath(data.spec.sessionPath, i); });
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
      case JobKind::EpochRun:
        return resumeEpochJob(journalPath, data, jo);
      case JobKind::PackedSweep:
        return resumeSweepJob(journalPath, data, jo);
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
