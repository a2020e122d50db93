/**
 * @file
 * Format-sniffing trace reading and record-by-record comparison.
 *
 * The toolbox commands (pack, unpack, info, diff) all start the same
 * way: sniff the file's format from its magic bytes, then pull
 * records out of it. Two formats are read: Dinero din text and PTPK.
 * TraceSource wraps that — din is materialized and must parse
 * cleanly (a malformed or overlong line makes it an error, so a
 * non-trace file is never read as an empty trace), PTPK streams
 * block by block with O(block) memory. A file with the retired raw
 * PTTR magic is refused by name.
 *
 * diffTraces() is the byte-equivalence oracle the CI determinism
 * jobs script against, so its three outcomes are a contract:
 * Identical, Differ (a real divergence between two readable traces),
 * and Error (unreadable or corrupt input). The CLI maps them to exit
 * codes 0 / 1 / 2 — a caller that treats "differ" as "corrupt" would
 * mask exactly the regressions the diff exists to catch.
 */

#ifndef PT_TRACE_TRACEDIFF_H
#define PT_TRACE_TRACEDIFF_H

#include <string>
#include <vector>

#include "base/loaderror.h"
#include "trace/memtrace.h"
#include "trace/packedtrace.h"

namespace pt::trace
{

/** What a trace file's magic bytes say it is. */
enum class TraceFormat : u8 { Din, Packed, RetiredPttr, Unreadable };

/** Sniffs a trace file's format by its magic bytes; anything that is
 *  not PTPK or the retired PTTR is treated as Dinero text. */
TraceFormat sniffTraceFormat(const std::string &path);

/** The error for a file in the retired raw PTTR format. */
LoadResult retiredPttrError();

/** Maps a Dinero label (0 read / 1 write / 2 fetch) onto the trace
 *  record kind (0 fetch / 1 read / 2 write), and back. */
u8 dinLabelToKind(u8 label);
u8 kindToDinLabel(u8 kind);

/** @return "fetch" / "read" / "write" for a record kind. */
const char *recordKindName(u8 kind);

/** Pulls records one at a time from any trace format. */
class TraceSource
{
  public:
    /** @return true when @p path opened; error() explains a false. */
    bool open(const std::string &path);

    /** @return true with the next record; false at end or on error
     *  (error() tells the two apart). */
    bool next(TraceRecord &out);

    const std::string &error() const { return err; }

  private:
    bool packed = false;
    std::vector<TraceRecord> all;
    std::size_t pos = 0;
    PackedTraceReader reader;
    std::vector<TraceRecord> block;
    std::size_t bpos = 0;
    std::string err;
};

/** How a trace comparison ended. */
enum class DiffOutcome : u8
{
    Identical, ///< same record sequence (class, kind, address)
    Differ,    ///< both readable, sequences diverge
    Error      ///< unreadable or corrupt input
};

/** A trace comparison's verdict plus its human-readable account. */
struct DiffResult
{
    DiffOutcome outcome = DiffOutcome::Error;
    u64 records = 0;    ///< records compared before stopping
    std::string detail; ///< divergence description / error message
};

/**
 * Compares the traces at @p pathA and @p pathB record by record, in
 * any mix of formats. Stops at the first divergence.
 */
DiffResult diffTraces(const std::string &pathA,
                      const std::string &pathB);

} // namespace pt::trace

#endif // PT_TRACE_TRACEDIFF_H
