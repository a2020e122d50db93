/**
 * @file
 * The job supervisor: deadline-guarded, retrying, journalled
 * execution of a batch of independent work items over the thread
 * pool.
 *
 * The long-running pipelines (packed cache sweeps, local and remote
 * fleets of session replays) share one failure shape: N
 * independent items, any of which can fail transiently (I/O fault),
 * wedge (a stalled worker), or fail persistently. superviseItems()
 * wraps that shape once:
 *
 *  - each item runs under its own CancelToken; the item beats the
 *    token as it progresses (the replay engine beats once per
 *    delivered event, the sweep once per batch),
 *  - a watchdog thread watches every active token's beat counter and
 *    cancels any item whose beats stop advancing for the per-item
 *    deadline — stall detection without the ability to kill threads,
 *  - a failed or stalled attempt retries with exponential backoff
 *    plus deterministic seeded jitter, up to the attempt budget,
 *  - an item that exhausts its budget is quarantined: journalled,
 *    counted, and the job degrades around it instead of dying,
 *  - every state transition appends to the write-ahead journal (when
 *    one is attached), so a crash at any instant leaves a resumable
 *    record of exactly which items completed,
 *  - worker exceptions (std::exception, bad_alloc, anything) are
 *    caught at the item boundary and become ordinary failures.
 *
 * Determinism: the supervisor decides only *whether* an item runs,
 * never what it computes — items are pure functions of their inputs
 * (see runFleetItem), so any mix of first runs, retries, and
 * resumed runs yields byte-identical artifacts.
 */

#ifndef PT_SUPER_SUPERVISOR_H
#define PT_SUPER_SUPERVISOR_H

#include <functional>
#include <string>
#include <vector>

#include "base/cancel.h"
#include "base/types.h"
#include "super/journal.h"

namespace pt::super
{

/** What one attempt of one item produced. */
struct ItemOutcome
{
    bool ok = false;
    std::string artifact; ///< produced artifact path, when any
    u64 artifactFnv = 0;  ///< FNV-64 of the artifact file
    std::string error;    ///< failure context when !ok
    std::vector<u8> blob; ///< kind-specific result for the journal
};

/** Runs one attempt of item @p item, beating and polling @p cancel.
 *  Called from pool workers; may be called again for retries. */
using ItemFn = std::function<ItemOutcome(u64 item, CancelToken &cancel)>;

/** Supervision knobs. */
struct SuperOptions
{
    unsigned jobs = 0;  ///< pool width (0 = defaultJobs())
    u32 maxAttempts = 3;
    u64 deadlineMs = 0; ///< beat-stall deadline per item (0 = off)
    u64 backoffBaseMs = 25;
    u64 backoffSeed = 0;   ///< jitter seed (journalled for replay)
    u64 watchdogPollMs = 20;
    JournalWriter *journal = nullptr;  ///< optional WAL
    CancelToken *globalCancel = nullptr; ///< SIGINT / job abort
    std::vector<bool> skip; ///< items already Done (resume path)
};

/** What a supervised run produced. */
struct SuperResult
{
    /** True when the run ran to completion: every item Done, skipped,
     *  or quarantined. Quarantines degrade the job, they don't fail
     *  it — check degraded(). False only on interruption. */
    bool ok = false;
    bool interrupted = false; ///< global cancel stopped the run
    u64 itemsDone = 0;
    u64 itemsSkipped = 0;
    u64 itemsQuarantined = 0;
    u64 retries = 0;
    u64 watchdogFires = 0;
    u64 journalWriteFailures = 0;
    std::vector<ItemOutcome> outcomes; ///< final outcome per item
    /** Per item. Bytes, not vector<bool>: workers set distinct
     *  items concurrently, and packed bits would share a word. */
    std::vector<u8> quarantined;
    std::string firstError;

    /** Degraded = finished, but around quarantined items. */
    bool degraded() const { return ok && itemsQuarantined > 0; }
};

/**
 * Deterministic retry delay: @p base * 2^attempt plus seeded jitter
 * in [0, base), a pure function of (seed, item, attempt) so chaos
 * schedules and resumed runs replay the exact same waits.
 */
u64 backoffDelayMs(u64 base, u64 seed, u64 item, u32 attempt);

/**
 * Runs items [0, n) through @p fn under supervision. Returns when
 * every item is Done, Quarantined, or skipped — or early when the
 * global cancel fires.
 *
 * Test hook: when the environment variable PT_CRASH_AFTER_ITEMS is a
 * positive integer K, the process exits hard (_Exit, no cleanup, as
 * a crash would) immediately after the K-th item completes and its
 * Done record is journalled — the deterministic crash point the CI
 * kill-and-resume step drives.
 */
SuperResult superviseItems(u64 n, const ItemFn &fn,
                           const SuperOptions &opts);

} // namespace pt::super

#endif // PT_SUPER_SUPERVISOR_H
