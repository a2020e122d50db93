#include "protocol.h"

#include "base/fdio.h"
#include "base/fnv.h"

namespace pt::serve
{

namespace
{

LoadResult
shortPayload(const BinReader &r, const char *field)
{
    return LoadResult::fail(r.offset(), field,
                            "payload truncated or malformed");
}

} // namespace

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::Hello:
        return "hello";
      case MsgType::HelloOk:
        return "hello-ok";
      case MsgType::Submit:
        return "submit";
      case MsgType::Accepted:
        return "accepted";
      case MsgType::Busy:
        return "busy";
      case MsgType::Error:
        return "error";
      case MsgType::TraceChunk:
        return "trace-chunk";
      case MsgType::JobDone:
        return "job-done";
      case MsgType::Stats:
        return "stats";
      case MsgType::StatsOk:
        return "stats-ok";
      case MsgType::Shutdown:
        return "shutdown";
      case MsgType::ShutdownOk:
        return "shutdown-ok";
      case MsgType::Cancel:
        return "cancel";
    }
    return "?";
}

std::vector<u8>
packFrame(MsgType type, const std::vector<u8> &payload)
{
    BinWriter w;
    w.put32(kFrameMagic);
    w.put32(static_cast<u32>(type));
    w.put32(static_cast<u32>(payload.size()));
    w.put64(fnv64(payload.data(), payload.size()));
    w.putBytes(payload.data(), payload.size());
    return w.takeBytes();
}

bool
sendFrame(int fd, MsgType type, const std::vector<u8> &payload)
{
    const std::vector<u8> frame = packFrame(type, payload);
    return io::writeFull(fd, frame.data(), frame.size());
}

LoadResult
recvFrame(int fd, MsgType &type, std::vector<u8> &payload)
{
    u8 hdr[kFrameHeaderBytes];
    if (!io::readFull(fd, hdr, 1)) {
        return LoadResult::fail(0, "eof",
                                "connection closed between frames");
    }
    if (!io::readFull(fd, hdr + 1, sizeof(hdr) - 1)) {
        return LoadResult::fail(1, "header",
                                "connection closed mid-header");
    }
    BinReader r(std::vector<u8>(hdr, hdr + sizeof(hdr)));
    const u32 magic = r.get32();
    const u32 rawType = r.get32();
    const u32 len = r.get32();
    const u64 fnv = r.get64();
    if (magic != kFrameMagic) {
        return LoadResult::fail(0, "magic",
                                "not a PTSF frame (bad magic)");
    }
    if (rawType < static_cast<u32>(MsgType::Hello) ||
        rawType > static_cast<u32>(MsgType::Cancel)) {
        return LoadResult::fail(4, "type",
                                "unknown message type " +
                                    std::to_string(rawType));
    }
    if (len > kMaxFramePayload) {
        // Rejected before any allocation: a flipped or hostile
        // length must not drive an allocation bomb.
        return LoadResult::fail(8, "payloadLen",
                                "payload length " +
                                    std::to_string(len) +
                                    " exceeds cap " +
                                    std::to_string(kMaxFramePayload));
    }
    payload.assign(len, 0);
    if (len > 0 && !io::readFull(fd, payload.data(), len)) {
        return LoadResult::fail(kFrameHeaderBytes, "payload",
                                "connection closed mid-payload");
    }
    if (fnv64(payload.data(), payload.size()) != fnv) {
        return LoadResult::fail(12, "payloadFnv",
                                "payload checksum mismatch");
    }
    type = static_cast<MsgType>(rawType);
    return {};
}

// --- Submit -----------------------------------------------------------

std::vector<u8>
SubmitMsg::encode() const
{
    BinWriter w;
    w.put64(jobId);
    w.put32(blockCapacity);
    super::putSessionSpec(w, spec);
    return w.takeBytes();
}

LoadResult
SubmitMsg::decode(const std::vector<u8> &payload, SubmitMsg &out)
{
    BinReader r(payload);
    out.jobId = r.get64();
    out.blockCapacity = r.get32();
    if (!r.ok())
        return shortPayload(r, "submit");
    if (auto s = super::getSessionSpec(r, out.spec); !s)
        return s;
    if (!r.atEnd()) {
        return LoadResult::fail(r.offset(), "submit",
                                "trailing bytes after spec");
    }
    return {};
}

// --- Busy -------------------------------------------------------------

std::vector<u8>
BusyMsg::encode() const
{
    BinWriter w;
    w.put64(jobId);
    w.putString(field);
    w.putString(reason);
    w.put32(queueDepth);
    return w.takeBytes();
}

LoadResult
BusyMsg::decode(const std::vector<u8> &payload, BusyMsg &out)
{
    BinReader r(payload);
    out.jobId = r.get64();
    out.field = r.getString();
    out.reason = r.getString();
    out.queueDepth = r.get32();
    if (!r.ok() || !r.atEnd())
        return shortPayload(r, "busy");
    return {};
}

// --- Error ------------------------------------------------------------

std::vector<u8>
ErrorMsg::encode() const
{
    BinWriter w;
    w.put64(jobId);
    w.put64(static_cast<u64>(err.offset));
    w.putString(err.field);
    w.putString(err.reason);
    return w.takeBytes();
}

LoadResult
ErrorMsg::decode(const std::vector<u8> &payload, ErrorMsg &out)
{
    BinReader r(payload);
    out.jobId = r.get64();
    out.err.offset = static_cast<std::size_t>(r.get64());
    out.err.field = r.getString();
    out.err.reason = r.getString();
    if (!r.ok() || !r.atEnd())
        return shortPayload(r, "error");
    return {};
}

// --- JobDone ----------------------------------------------------------

std::vector<u8>
JobDoneMsg::encode() const
{
    BinWriter w;
    w.put64(jobId);
    put(w);
    w.put64(traceFnv);
    return w.takeBytes();
}

LoadResult
JobDoneMsg::decode(const std::vector<u8> &payload, JobDoneMsg &out)
{
    BinReader r(payload);
    out.jobId = r.get64();
    out.get(r);
    out.traceFnv = r.get64();
    if (!r.ok() || !r.atEnd())
        return shortPayload(r, "job-done");
    return {};
}

// --- HelloOk ----------------------------------------------------------

std::vector<u8>
HelloOkMsg::encode() const
{
    BinWriter w;
    w.put32(version);
    w.put32(jobs);
    w.put32(queueCapacity);
    return w.takeBytes();
}

LoadResult
HelloOkMsg::decode(const std::vector<u8> &payload, HelloOkMsg &out)
{
    BinReader r(payload);
    out.version = r.get32();
    out.jobs = r.get32();
    out.queueCapacity = r.get32();
    if (!r.ok() || !r.atEnd())
        return shortPayload(r, "hello-ok");
    return {};
}

// --- TraceChunk -------------------------------------------------------

std::vector<u8>
encodeTraceChunk(u64 jobId, u64 offset, const u8 *data,
                 std::size_t len)
{
    BinWriter w;
    w.put64(jobId);
    w.put64(offset);
    w.putBytes(data, len);
    return w.takeBytes();
}

LoadResult
decodeTraceChunk(const std::vector<u8> &payload, TraceChunkHeader &hdr,
                 const u8 **data, std::size_t *len)
{
    if (payload.size() < kTraceChunkPrefixBytes) {
        return LoadResult::fail(0, "trace-chunk",
                                "chunk shorter than its prefix");
    }
    BinReader r(std::vector<u8>(payload.begin(),
                                payload.begin() +
                                    kTraceChunkPrefixBytes));
    hdr.jobId = r.get64();
    hdr.offset = r.get64();
    *data = payload.data() + kTraceChunkPrefixBytes;
    *len = payload.size() - kTraceChunkPrefixBytes;
    return {};
}

// --- Small payloads ---------------------------------------------------

std::vector<u8>
encodeHello(u32 version)
{
    BinWriter w;
    w.put32(version);
    return w.takeBytes();
}

LoadResult
decodeHello(const std::vector<u8> &payload, u32 &version)
{
    BinReader r(payload);
    version = r.get32();
    if (!r.ok() || !r.atEnd())
        return LoadResult::fail(r.offset(), "hello",
                                "payload truncated or malformed");
    return {};
}

std::vector<u8>
encodeJobRef(u64 jobId, u32 queueDepth)
{
    BinWriter w;
    w.put64(jobId);
    w.put32(queueDepth);
    return w.takeBytes();
}

LoadResult
decodeJobRef(const std::vector<u8> &payload, u64 &jobId,
             u32 &queueDepth)
{
    BinReader r(payload);
    jobId = r.get64();
    queueDepth = r.get32();
    if (!r.ok() || !r.atEnd())
        return LoadResult::fail(r.offset(), "job-ref",
                                "payload truncated or malformed");
    return {};
}

} // namespace pt::serve
