/**
 * @file
 * The `palmtrace serve` wire protocol ("PTSF" frames).
 *
 * A client and the resident fleet server exchange length-prefixed,
 * FNV-64-framed messages over a stream socket (Unix-domain, or TCP on
 * the loopback). The frame is the PR 1 artifact-integrity scheme
 * applied per message:
 *
 *   Frame   := magic "PTSF" (u32)  type (u32)
 *              payloadLen (u32)  payloadFnv (u64)  payload
 *
 * payloadLen is capped (kMaxFramePayload) and validated BEFORE any
 * allocation, so a hostile length can never drive an allocation bomb;
 * payloadFnv is the FNV-1a 64 of the payload bytes, so a flipped bit
 * anywhere in the payload is a structured rejection, never a
 * misparsed job. All integers are little-endian (BinWriter/BinReader).
 *
 * Conversation shape:
 *
 *   client                          server
 *   ------                          ------
 *   Hello{version}              ->
 *                               <-  HelloOk{version, jobs, queueCap}
 *   Submit{jobId, spec}         ->
 *                               <-  Accepted{jobId, queueDepth}
 *                                     | Busy{jobId, field, reason}
 *                                     | Error{jobId, LoadError}
 *                               <-  TraceChunk{jobId, offset, bytes}*
 *                               <-  JobDone{jobId, measure, traceFnv}
 *                                     | Error{jobId, LoadError}
 *   Stats{}                     ->
 *                               <-  StatsOk{registry JSON}
 *   Cancel{jobId}               ->
 *   Shutdown{}                  ->
 *                               <-  ShutdownOk{}   (server drains)
 *
 * Multiple Submits may be in flight on one connection; TraceChunk and
 * JobDone frames carry the jobId so the client demultiplexes streams.
 * Any malformed frame (bad magic, oversized length, checksum
 * mismatch, short read) earns a structured Error response when the
 * server can still write one, and always closes the connection —
 * framing is unrecoverable once the stream position is suspect.
 */

#ifndef PT_SERVE_PROTOCOL_H
#define PT_SERVE_PROTOCOL_H

#include <string>
#include <vector>

#include "base/binio.h"
#include "base/loaderror.h"
#include "base/types.h"
#include "super/jobs.h"
#include "workload/sessionrunner.h"

namespace pt::serve
{

inline constexpr u32 kFrameMagic = 0x46535450; // "PTSF"
inline constexpr u32 kProtocolVersion = 1;

/** Fixed size of the frame header (magic, type, len, fnv). */
inline constexpr std::size_t kFrameHeaderBytes = 20;

/** Hard cap on one frame's payload; larger lengths are rejected
 *  before any allocation (the allocation-bomb guard). */
inline constexpr u32 kMaxFramePayload = 8u << 20;

/** Bytes of trace streamed per TraceChunk frame. */
inline constexpr std::size_t kTraceChunkBytes = 256 * 1024;

enum class MsgType : u32
{
    Hello = 1,
    HelloOk = 2,
    Submit = 3,
    Accepted = 4,
    Busy = 5,
    Error = 6,
    TraceChunk = 7,
    JobDone = 8,
    Stats = 9,
    StatsOk = 10,
    Shutdown = 11,
    ShutdownOk = 12,
    Cancel = 13,
};

const char *msgTypeName(MsgType t);

/** Builds one framed message (header + payload) ready to send. */
std::vector<u8> packFrame(MsgType type, const std::vector<u8> &payload);

/** writeFull()s one framed message to @p fd. */
bool sendFrame(int fd, MsgType type, const std::vector<u8> &payload);

/**
 * readFull()s and validates one frame from @p fd. On success fills
 * @p type / @p payload. Failure modes carry structured context:
 * field "eof" when the peer closed cleanly between frames, "header"
 * for a short header, "magic"/"payloadLen"/"payloadFnv" for framing
 * violations, "payload" for a short payload.
 */
LoadResult recvFrame(int fd, MsgType &type, std::vector<u8> &payload);

// --- Message payloads -------------------------------------------------

/** Submit: one session job. The spec is the same UserModel seed spec
 *  the local fleet runs, so remote execution is byte-identical. */
struct SubmitMsg
{
    u64 jobId = 0;
    u32 blockCapacity = 0;
    workload::SessionSpec spec;

    std::vector<u8> encode() const;
    static LoadResult decode(const std::vector<u8> &payload,
                             SubmitMsg &out);
};

/** Busy: structured backpressure ({field, reason} + queue state). */
struct BusyMsg
{
    u64 jobId = 0;
    std::string field;  ///< what was saturated ("queue", "server")
    std::string reason; ///< "queue full", "draining", ...
    u32 queueDepth = 0;

    std::vector<u8> encode() const;
    static LoadResult decode(const std::vector<u8> &payload,
                             BusyMsg &out);
};

/** Error: a LoadError-shaped structured failure for one job (or for
 *  the connection when jobId is 0 and the frame itself was bad). */
struct ErrorMsg
{
    u64 jobId = 0;
    LoadError err;

    std::vector<u8> encode() const;
    static LoadResult decode(const std::vector<u8> &payload,
                             ErrorMsg &out);
};

/** JobDone: the fleet measure the CSV row is rendered from (encoded
 *  by its own codec between jobId and traceFnv), plus the finished
 *  trace's whole-file FNV-64 so the client can verify the streamed
 *  bytes before renaming them into place. */
struct JobDoneMsg : super::FleetMeasure
{
    u64 jobId = 0;
    u64 traceFnv = 0;

    std::vector<u8> encode() const;
    static LoadResult decode(const std::vector<u8> &payload,
                             JobDoneMsg &out);
};

/** HelloOk: version echo plus the server's capacity advertisement. */
struct HelloOkMsg
{
    u32 version = kProtocolVersion;
    u32 jobs = 0;
    u32 queueCapacity = 0;

    std::vector<u8> encode() const;
    static LoadResult decode(const std::vector<u8> &payload,
                             HelloOkMsg &out);
};

/** TraceChunk header fields; the chunk bytes follow in the payload. */
struct TraceChunkHeader
{
    u64 jobId = 0;
    u64 offset = 0;
};

/** Prefix size of a TraceChunk payload before the raw bytes. */
inline constexpr std::size_t kTraceChunkPrefixBytes = 16;

std::vector<u8> encodeTraceChunk(u64 jobId, u64 offset, const u8 *data,
                                 std::size_t len);
LoadResult decodeTraceChunk(const std::vector<u8> &payload,
                            TraceChunkHeader &hdr, const u8 **data,
                            std::size_t *len);

/** Hello / Cancel / Accepted small payload helpers. */
std::vector<u8> encodeHello(u32 version = kProtocolVersion);
LoadResult decodeHello(const std::vector<u8> &payload, u32 &version);
std::vector<u8> encodeJobRef(u64 jobId, u32 queueDepth = 0);
LoadResult decodeJobRef(const std::vector<u8> &payload, u64 &jobId,
                        u32 &queueDepth);

} // namespace pt::serve

#endif // PT_SERVE_PROTOCOL_H
