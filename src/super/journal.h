/**
 * @file
 * The write-ahead job journal ("PTJL") — the persistence half of
 * crash-safe batch runs.
 *
 * A supervised job (a packed cache sweep, a local or remote fleet
 * of sessions) appends a record to its journal at every
 * work-item state transition. The file is strictly append-only and
 * every record is self-framed with an exact length plus an FNV-1a
 * 64-bit checksum (the PR 1 integrity scheme applied per record
 * instead of per file), so after a crash — power loss, kill -9, a
 * torn write mid-append — the loader replays the longest valid
 * record prefix and drops the torn tail. `palmtrace resume` then
 * re-runs exactly the items whose latest state is not Done.
 *
 * Layout (all integers little-endian):
 *
 *   File    := magic "PTJL" (u32)  version (u32)  Record*
 *   Record  := recordMagic "PTJR" (u32)  type (u32)
 *              payloadLen (u64)  payloadFnv (u64)  payload
 *   type    := 1 JobSpec | 2 ItemRecord | 3 Footer
 *
 * The first record is always the JobSpec: what ran, over which
 * inputs (bound by fingerprint so a resume against swapped inputs is
 * refused), with which knobs. ItemRecords follow in append order —
 * the latest record per item wins. A Footer marks an orderly end
 * (complete, degraded, or a clean interrupt); a journal without one
 * was cut off by a crash and is still resumable.
 *
 * Appends are deliberately best-effort: a job must never die because
 * its journal could not be written. JournalWriter flushes every
 * record (a crash loses at most the record being appended) and goes
 * quiescent on the first failure, which the supervisor surfaces as a
 * warning and a metric, not an error.
 */

#ifndef PT_SUPER_JOURNAL_H
#define PT_SUPER_JOURNAL_H

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "base/artifact.h"
#include "base/binio.h"
#include "base/loaderror.h"
#include "base/types.h"

namespace pt::super
{

inline constexpr u32 kJournalMagic = artifact::kJournalMagic;
inline constexpr u32 kJournalVersion = 1;
inline constexpr u32 kJournalRecordMagic = 0x524A5450; // "PTJR"

/** Fixed size of the per-record frame (magic, type, len, fnv). */
inline constexpr std::size_t kJournalRecordHeaderBytes = 24;

/** Which pipeline a journal belongs to. */
enum class JobKind : u32
{
    None = 0,
    RetiredEpochRun = 1, ///< reserved: the retired epoch-parallel
                         ///< replay; its journals load, not resume
    RetiredPackedSweep = 2, ///< reserved: the retired per-config
                            ///< packed sweep; its journals load, not
                            ///< resume
    RetiredSessionBatch = 3, ///< reserved: the retired session-batch
                             ///< job; its journals load, not resume
    Fleet = 4,        ///< fleet collect+replay to per-session traces
    RemoteFleet = 5,  ///< fleet driven through a `palmtrace serve`
                      ///< server; resumed by the serve client
};

const char *jobKindName(JobKind k);

/** A work item's lifecycle. Journalled transitions only ever move
 *  forward within one attempt; a retry re-enters Running with a
 *  higher attempt number. */
enum class ItemState : u8
{
    Pending = 0,
    Running = 1,
    Done = 2,
    Failed = 3,      ///< attempt failed; retry may follow
    Quarantined = 4, ///< retries exhausted; job degrades around it
};

const char *itemStateName(ItemState s);

/** How a journalled job ended (absent entirely after a crash). */
enum class JobStatus : u8
{
    Complete = 0,    ///< every item Done, output finalized
    Degraded = 1,    ///< finished around quarantined items
    Interrupted = 2, ///< clean early stop (SIGINT); resumable
};

const char *jobStatusName(JobStatus s);

/** The job's identity: inputs, output, knobs. Written first so a
 *  resume can rebuild the run without the original command line. */
struct JobSpec
{
    JobKind kind = JobKind::None;
    std::string sessionPath; ///< sweep: input trace; fleets: trace base
    std::string outPath;     ///< the final CSV
    u32 blockCapacity = 0;
    u64 totalItems = 0;
    u32 maxAttempts = 3;
    u64 deadlineMs = 0; ///< per-item stall deadline (0 = none)
    u64 backoffSeed = 0;
    u64 bindFingerprint = 0; ///< input binding (plan/trace identity)
    u32 jobs = 0;
    std::vector<u8> extra; ///< kind-specific payload (configs, specs)

    std::vector<u8> serialize() const;
    static LoadResult deserialize(BinReader &r, JobSpec &out);
};

/** One state transition of one work item. */
struct ItemRecord
{
    u64 item = 0;
    ItemState state = ItemState::Pending;
    u32 attempt = 0;
    std::string artifact;  ///< completed artifact path (Done)
    u64 artifactFnv = 0;   ///< FNV-64 of the artifact file (Done)
    std::string error;     ///< failure context (Failed/Quarantined)
    std::vector<u8> blob;  ///< kind-specific result payload

    std::vector<u8> serialize() const;
    static LoadResult deserialize(BinReader &r, ItemRecord &out);
};

/** The orderly-end marker. */
struct JournalFooter
{
    JobStatus status = JobStatus::Complete;
    u64 outFnv = 0; ///< FNV-64 of the finished output file
    std::string note;

    std::vector<u8> serialize() const;
    static LoadResult deserialize(BinReader &r, JournalFooter &out);
};

/**
 * Appends framed records to a journal file, flushing each one.
 * Thread-safe (workers append concurrently). All appends are
 * best-effort: the first I/O failure makes the writer quiescent and
 * every later call a no-op reporting false.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Creates (truncating) @p path and writes header + @p spec. */
    bool open(const std::string &path, const JobSpec &spec,
              std::string *errOut = nullptr);

    /**
     * Reopens an existing journal for appending (the resume path).
     * The caller must have validated the file via loadJournal; any
     * torn tail is truncated away first so the next record lands on
     * a valid boundary ( @p validBytes from JournalData).
     */
    bool openAppend(const std::string &path, u64 validBytes,
                    std::string *errOut = nullptr);

    bool appendItem(const ItemRecord &rec);
    bool appendFooter(const JournalFooter &f);

    /** True until the first append/open failure. */
    bool ok() const { return file != nullptr && !failed; }

    const std::string &path() const { return journalPath; }

    void close();

  private:
    bool appendRecord(u32 type, const std::vector<u8> &payload);

    std::string journalPath;
    std::FILE *file = nullptr;
    std::mutex m;
    bool failed = false;
};

/** Everything a journal file holds, after dropping any torn tail. */
struct JournalData
{
    JobSpec spec;
    std::vector<ItemRecord> records; ///< in append order
    bool hasFooter = false;
    JournalFooter footer;
    u64 validBytes = 0;     ///< prefix length that parsed cleanly
    u64 truncatedBytes = 0; ///< torn tail dropped by the loader

    /** The latest record per item (size == spec.totalItems; items
     *  never journalled appear as Pending). */
    std::vector<ItemRecord> latestPerItem() const;
};

/**
 * Loads and validates @p path. A torn tail (crash mid-append) is not
 * an error — the valid prefix loads and truncatedBytes reports the
 * loss. A bad header, a bad JobSpec, or a checksum-valid record that
 * fails structural parsing is an error: such a file cannot be
 * trusted for resume.
 */
LoadResult loadJournal(const std::string &path, JournalData &out);

/** Hooks the journal parser into `palmtrace fsck`. */
void registerFsckParser();

} // namespace pt::super

#endif // PT_SUPER_JOURNAL_H
