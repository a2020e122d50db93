/**
 * @file
 * Supervised-job adapters: the fleet pipeline wrapped in crash-safe,
 * resumable, deadline-guarded execution.
 *
 * runFleetJob() runs the fleet pipeline. Items are session specs;
 * each collects a session on its own device and replays it through a
 * streaming packed-trace writer (runFleetItem()), producing
 * <outBase>-session-<i>.ptpk plus a summary CSV (fleetCsv()). Every
 * device shares the process ROM pages and copy-on-write RAM, so a
 * fleet's footprint is one base state plus per-device dirty pages.
 * Each item is a pure function of its spec, so per-session traces are
 * byte-identical at any job count (and across resumes).
 *
 * The cache sweep is not a job: `sweep --packed` computes all 56
 * configurations in one decode pass (workload::sweepPackedFile), so a
 * per-configuration resume would cost more than a fresh sweep. Its
 * journal kind (2) stays reserved; resumeJob() refuses it by name.
 *
 * The fleet pieces are public because `palmtrace serve` and its
 * client run the same pipeline with a socket in the middle: the
 * server executes runFleetItem(), the PTSF protocol carries the spec
 * codec and the FleetMeasure, and the client renders fleetCsv() and
 * resumes through the same prologue as every local job.
 *
 * A fleet can attach a write-ahead journal (JobOptions::
 * journalPath). resumeJob() reloads a journal — after a crash, a
 * kill -9, or a clean SIGINT — verifies the inputs still match the
 * spec's binding fingerprint, skips items whose artifacts are intact,
 * re-runs the remainder, and finalizes the same output the original
 * run would have produced.
 */

#ifndef PT_SUPER_JOBS_H
#define PT_SUPER_JOBS_H

#include <string>
#include <vector>

#include "core/palmsim.h"
#include "super/supervisor.h"
#include "trace/packedtrace.h"
#include "workload/sessionrunner.h"

namespace pt::super
{

/** Knobs shared by every supervised job. */
struct JobOptions
{
    unsigned jobs = 0; ///< pool width (0 = defaultJobs())
    u32 blockCapacity = trace::kPackedDefaultBlockCapacity;
    u32 maxAttempts = 3;
    u64 deadlineMs = 0;     ///< per-item stall deadline (0 = off)
    u64 backoffBaseMs = 25;
    u64 backoffSeed = 1;
    std::string journalPath; ///< empty = run unjournalled
    CancelToken *globalCancel = nullptr;
};

/** What a supervised job produced. */
struct JobResult
{
    bool ok = false;          ///< output finalized (maybe degraded)
    bool interrupted = false; ///< clean early stop; journal resumable
    bool degraded = false;    ///< finished around quarantined items
    bool nothingToDo = false; ///< resume of an already-finished job
    std::string error;
    std::string outPath;
    u64 outFnv = 0;       ///< FNV-64 of the finished output
    SuperResult super;    ///< the underlying supervision counters
};

/** FNV-64 of a whole file; @p okOut (when given) reports readability. */
u64 fnvFile(const std::string &path, bool *okOut = nullptr);

/** Fleet-specific knobs. */
struct FleetOptions
{
    /** Also persist each collected session next to its trace
     *  (<outBase>-session-<i>.init.snap/.log/.final.snap). */
    bool saveSessions = false;
};

/** The per-session packed-trace path of fleet item @p i. */
std::string fleetTracePath(const std::string &outBase, u64 i);

/** The session-spec codec: the one layout the fleet journals and the
 *  PTSF Submit payload share (name, seed, four u32 user-model knobs,
 *  five action weights as IEEE-754 bit patterns). */
void putSessionSpec(BinWriter &w, const workload::SessionSpec &s);
LoadResult getSessionSpec(BinReader &r, workload::SessionSpec &out);

/** One fleet session's measure: a fleet CSV row, the journal blob of
 *  a Done fleet item, and the body of a PTSF JobDone frame. */
struct FleetMeasure
{
    u64 events = 0;     ///< packed records written
    u64 traceBytes = 0; ///< finished .ptpk size
    u64 ramRefs = 0;
    u64 flashRefs = 0;
    u64 instructions = 0;
    u64 cycles = 0;

    /** Six little-endian u64s in field order. */
    void put(BinWriter &w) const;
    void get(BinReader &r);
    std::vector<u8> blob() const;
    /** False unless @p blob is exactly one measure. */
    bool fromBlob(const std::vector<u8> &blob);
};

/** What one fleet item produced: a measure, or a {field, reason}
 *  error naming the failing stage ("session", "trace", "replay"). */
struct FleetItemResult
{
    bool ok = false;
    std::string field;
    std::string reason;
    FleetMeasure measure;
    u64 traceFnv = 0; ///< FNV-64 of the finished trace file
};

/**
 * The fleet item: collects @p spec's session, replays it through a
 * PackedTraceWriter into @p tracePath, closes the trace and hashes
 * it. A nonempty @p sessionBase also saves the collected session
 * there. @p cancel (optional) interrupts the replay.
 */
FleetItemResult runFleetItem(const workload::SessionSpec &spec,
                             const std::string &tracePath,
                             u32 blockCapacity, CancelToken *cancel,
                             const std::string &sessionBase = {});

/**
 * Fleet-scale batched collect+replay: one packed trace per session
 * (<outBase>-session-<i>.ptpk) and a summary CSV at <outBase>.csv.
 * Publishes fleet.sessions_per_sec, fleet.events_per_sec and
 * fleet.rss_per_device_bytes gauges.
 */
JobResult runFleetJob(const std::vector<workload::SessionSpec> &specs,
                      const std::string &outBase, const JobOptions &jo,
                      const FleetOptions &fo = {});

/** The fleet summary CSV, one row per spec, rendered from this run's
 *  outcome blobs or (for skipped items) the journalled ones. */
std::string fleetCsv(const std::vector<workload::SessionSpec> &specs,
                     const std::string &outBase, const SuperResult &sr,
                     const std::vector<ItemRecord> &prior);

/**
 * The finalize step of every CSV job: writes @p csv atomically to
 * res.outPath, records its FNV and the degraded flag, journals the
 * Complete/Degraded footer and marks the job ok — or sets res.error
 * when the write fails.
 */
JobResult &finishCsv(JobResult &res, JournalWriter *journal,
                     const std::string &csv);

/**
 * The journal of a fresh run: creates @p path with @p spec and points
 * @p jptr at @p journal, or leaves the run unjournalled (jptr null)
 * when @p path is empty. False, with res.error set, when the journal
 * cannot be created.
 */
bool openJobJournal(JournalWriter &journal, JournalWriter *&jptr,
                    const std::string &path, const JobSpec &spec,
                    JobResult &res);

/**
 * Loads @p journalPath for a resume. False when @p res is already
 * the answer: a load error, or a finished journal (nothingToDo).
 */
bool loadResumable(const std::string &journalPath, JournalData &data,
                   JobResult &res);

/** What a resume carries over from its journal. Not movable: the
 *  reopened journal writer lives in it. */
struct ResumeState
{
    JobSpec spec;                   ///< journalled; jobs override applied
    std::vector<ItemRecord> latest; ///< latest record per item
    std::vector<bool> skip;         ///< Done items that need not re-run
    JournalWriter journal;
    JournalWriter *jptr = nullptr; ///< null if the reopen failed
};

/**
 * The resume prologue of a fleet journal, local or remote: skips Done
 * items whose measure decodes and whose trace is intact, removes stale
 * .tmp files, reopens the journal for appending and applies jo.jobs
 * over the journalled width.
 */
void beginFleetResume(ResumeState &rs, const std::string &journalPath,
                      const JournalData &data, const JobOptions &jo);

/** The RemoteFleet journal extra: the server endpoint, then the spec
 *  list, so a resume can rebuild the run without its command line. */
std::vector<u8>
remoteFleetExtra(const std::string &endpoint,
                 const std::vector<workload::SessionSpec> &specs);

/** Decodes a RemoteFleet journal's extra. False, with res.error set,
 *  when it is corrupt, disagrees with the item count, or fails the
 *  binding fingerprint (the FNV-64 of the extra bytes). */
bool remoteFleetSpecs(const JobSpec &spec, std::string &endpoint,
                      std::vector<workload::SessionSpec> &specs,
                      JobResult &res);

/**
 * Resumes the job recorded in @p journalPath: reloads the inputs,
 * verifies them against the spec's binding fingerprint, skips items
 * whose journalled artifacts check out, runs the rest, finalizes.
 * A journal whose footer says Complete/Degraded reports nothingToDo.
 * Only jobs/globalCancel from @p jo apply — everything else comes
 * from the journalled spec, so the resumed run matches the original.
 */
JobResult resumeJob(const std::string &journalPath,
                    const JobOptions &jo);

} // namespace pt::super

#endif // PT_SUPER_JOBS_H
