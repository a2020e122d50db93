/**
 * @file
 * The `palmtrace submit` client: drives a resident
 * `palmtrace serve` server and reassembles its streamed results into
 * artifacts byte-identical to a local `palmtrace fleet` run.
 *
 * The server runs the local fleet's item (super::runFleetItem()) and
 * the wire carries the fleet's own spec codec and FleetMeasure, so
 * all this client owns is the transport: one connection that submits
 * session specs (a bounded number in flight, respecting the server's
 * Busy backpressure), appends each job's TraceChunk frames to a
 * temporary sibling of its final trace path, and renames the
 * temporary into place only after the JobDone frame's whole-file
 * FNV-64 verifies — so a drain, a dropped connection, or a Ctrl-C can
 * never leave a torn .ptpk behind, only absent ones. The summary CSV
 * is the local fleet's renderer (super::fleetCsv()) and finalize
 * step, so `trace diff`/cmp prove remote == local.
 *
 * With JobOptions::journalPath set, the run is journalled client-side
 * as a RemoteFleet PTJL job: Done items record their artifact FNV and
 * measure blob, and resumeRemoteFleetJob() runs the local jobs'
 * resume prologue (binding check, intact-artifact skips, stale .tmp
 * cleanup) and re-submits exactly the unfinished items, finalizing
 * the same CSV an uninterrupted run writes.
 */

#ifndef PT_SERVE_CLIENT_H
#define PT_SERVE_CLIENT_H

#include <string>
#include <vector>

#include "super/jobs.h"
#include "workload/sessionrunner.h"

namespace pt::serve
{

/** Client knobs. */
struct ClientOptions
{
    /** Unix socket path, or "tcp:PORT" for the TCP loopback. */
    std::string endpoint;
    /** Submissions kept in flight (0 = 2x the server's worker
     *  count, as advertised in HelloOk). */
    unsigned maxInflight = 0;
};

/**
 * Runs @p specs through the server at @p co.endpoint, writing
 * per-session traces to fleetTracePath(outBase, i) and the summary
 * CSV to outBase + ".csv" — byte-identical to
 * super::runFleetJob(specs, outBase, jo) on the same specs. Honors
 * jo.blockCapacity, jo.journalPath (client-side RemoteFleet journal)
 * and jo.globalCancel; jo.jobs is the server's concern and ignored.
 */
super::JobResult runRemoteFleet(
    const std::vector<workload::SessionSpec> &specs,
    const std::string &outBase, const ClientOptions &co,
    const super::JobOptions &jo);

/**
 * Resumes a RemoteFleet journal: verifies the journalled specs'
 * binding fingerprint, skips items whose traces are intact on disk,
 * re-submits the rest (to @p endpointOverride when nonempty, else
 * the journalled endpoint), and finalizes the same CSV.
 */
super::JobResult resumeRemoteFleetJob(
    const std::string &journalPath,
    const std::string &endpointOverride, const super::JobOptions &jo);

/** True when @p journalPath holds a RemoteFleet journal (the resume
 *  dispatch hook used by the CLI; false on any load error). */
bool isRemoteFleetJournal(const std::string &journalPath);

} // namespace pt::serve

#endif // PT_SERVE_CLIENT_H
