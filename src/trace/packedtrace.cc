#include "packedtrace.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "base/binio.h"
#include "base/fnv.h"
#include "base/iohooks.h"

namespace pt::trace
{

namespace
{

u32
readLe32(const u8 *p)
{
    return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16) |
           (static_cast<u32>(p[3]) << 24);
}

u64
readLe64(const u8 *p)
{
    return static_cast<u64>(readLe32(p)) |
           (static_cast<u64>(readLe32(p + 4)) << 32);
}

std::string
hex32(u32 v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08X", v);
    return buf;
}

/** Upper bound on a legitimate block payload: at most one meta token
 *  per record (<= 4 varint bytes) plus one address item per record
 *  (<= 6 varint bytes for a 33-bit zigzag delta with flag bits).
 *  Anything larger is corruption, and rejecting it bounds the
 *  reader's per-block allocation. */
u64
maxPayloadBytes(u32 count)
{
    return static_cast<u64>(count) * 10;
}

/** Number of per-(kind,class) delta chains (meta values 0..6; 3 and
 *  7 would need kind == 3 and never occur). */
constexpr unsigned kChains = 8;

/** Address-space regions for the per-chain last-address table: the
 *  top nibble of the address. */
constexpr unsigned kRegions = 16;

/** Ring of recently seen addresses per chain, for exact-match items
 *  (temporal reuse repeats addresses verbatim). */
constexpr unsigned kRecent = 64;

/** log2 of the slot count of the writer's exact-match index. */
constexpr unsigned kMatchBits = 9;

/** The exact-match index slot of @p addr (Fibonacci hashing). */
u32
matchSlotOf(u32 addr)
{
    return (addr * 0x9E3779B1u) >> (32 - kMatchBits);
}

/** Writes a LEB128 varint at @p out. @return the byte after it. */
u8 *
putVarintAt(u8 *out, u64 v)
{
    while (v >= 0x80) {
        *out++ = static_cast<u8>(v) | 0x80;
        v >>= 7;
    }
    *out++ = static_cast<u8>(v);
    return out;
}

/** Writes the item for a same-region delta @p body repeated
 *  @p extra more times. */
u8 *
putDeltaRun(u8 *out, u64 body, u64 extra)
{
    if (!extra)
        return putVarintAt(out, body << 1);
    out = putVarintAt(out, (body << 1) | 1);
    return putVarintAt(out, extra);
}

/** Ring index of the most recent copy of @p addr among the @p limit
 *  chain entries before addrs[k], or kRecent when there is none.
 *  Entries before the chain start read as 0: the decoder's ring
 *  starts zero-filled. */
unsigned
scanRecent(const Addr *addrs, u32 k, Addr addr, unsigned limit)
{
    for (unsigned j = 1; j <= limit; ++j) {
        if ((j <= k ? addrs[k - j] : 0) == addr)
            return j - 1;
    }
    return kRecent;
}

} // namespace

// ---------------------------------------------------------------------
// PackedTraceWriter

PackedTraceWriter::PackedTraceWriter(const std::string &path,
                                     u32 blockCapacity)
    : finalPath(path), tmpPath(path + ".tmp"),
      blockCapacity(blockCapacity ? blockCapacity
                                  : kPackedDefaultBlockCapacity)
{
    if (this->blockCapacity > kPackedMaxBlockCapacity)
        this->blockCapacity = kPackedMaxBlockCapacity;
    blockAddrs.resize(this->blockCapacity);
    blockMetas.resize(this->blockCapacity);
    if (io::checkFault(io::Op::Open, finalPath).any())
        return;
    file = std::fopen(tmpPath.c_str(), "wb");
    if (!file)
        return;
    BinWriter h;
    h.put32(kPackedMagic);
    h.put32(kPackedVersion);
    h.put32(this->blockCapacity);
    h.put32(0); // reserved
    write(h.bytes().data(), h.bytes().size());
}

PackedTraceWriter::~PackedTraceWriter()
{
    if (!closed)
        close();
}

void
PackedTraceWriter::write(const void *data, std::size_t len)
{
    if (!file || failed)
        return;
    io::Fault wf = io::checkFault(io::Op::Write, finalPath);
    if (wf.torn) {
        // A crash mid-write: half the bytes land, the tmp survives.
        std::fwrite(data, 1, len / 2, file);
        failed = true;
        torn = true;
        return;
    }
    if (wf.fail || std::fwrite(data, 1, len, file) != len) {
        failed = true;
        return;
    }
    written += len;
}

/**
 * Encodes the pending block's payload (meta tokens + chain streams)
 * into scratch. @return its length. All chain state restarts per
 * block.
 */
std::size_t
PackedTraceWriter::encodeBlock()
{
    const u32 n = pending;
    const u8 *metas = blockMetas.data();
    if (chainAddrs.size() < n) {
        runTokens.resize(n);
        chainAddrs.resize(n);
    }
    if (scratch.size() < maxPayloadBytes(n))
        scratch.resize(maxPayloadBytes(n));
    if (matchIndex.empty())
        matchIndex.resize(std::size_t{1} << kMatchBits);

    // 1. Meta tokens: varint(runLength << 3 | meta). A single-record
    // run costs one byte, so interleaved kinds degrade gracefully
    // while uniform stretches collapse.
    u8 *out = scratch.data();
    u32 runs = 0;
    u32 chainCount[kChains] = {};
    for (u32 i = 0; i < n;) {
        const u8 meta = metas[i];
        u32 j = i + 1;
        while (j < n && metas[j] == meta)
            ++j;
        chainCount[meta] += j - i;
        runTokens[runs] = ((j - i) << 3) | meta;
        out = putVarintAt(out, runTokens[runs++]);
        i = j;
    }

    // 2. A counting sort of the addresses by meta, a run at a time
    // (stable, so each chain keeps arrival order): each chain's
    // addresses end up contiguous in chainAddrs.
    u32 start[kChains];
    u32 cursor[kChains];
    for (u32 m = 0, sum = 0; m < kChains; ++m) {
        start[m] = cursor[m] = sum;
        sum += chainCount[m];
    }
    const Addr *src = blockAddrs.data();
    for (u32 r = 0; r < runs; ++r) {
        const u32 len = runTokens[r] >> 3;
        u32 &at = cursor[runTokens[r] & 7];
        std::copy(src, src + len, chainAddrs.data() + at);
        at += len;
        src += len;
    }

    // 3. Per-chain address streams in ascending meta order.
    for (u32 m = 0; m < kChains; ++m) {
        if (chainCount[m]) {
            out = encodeChain(chainAddrs.data() + start[m], chainCount[m],
                              stampBase + start[m], out);
        }
    }
    stampBase += n;
    return static_cast<std::size_t>(out - scratch.data());
}

/**
 * Writes one chain's address stream at @p out: @p n addresses whose
 * exact-match stamps are @p stamp0 onwards. @return the byte after
 * it.
 *
 * The chain deltas against its own history so the interleaved fetch,
 * stack and heap streams do not thrash one another's locality, and
 * keeps a last-address-per-region table (top nibble) so alternation
 * between distant regions costs a 4-bit region switch instead of a
 * full-width delta. Runs of identical same-region deltas (sequential
 * fetch, streaming data) collapse into one item, streamed with one
 * pending run. Exact matches against the ring of the chain's last 64
 * addresses beat wide deltas (temporal reuse repeats addresses
 * verbatim), but never break a delta run in progress.
 */
u8 *
PackedTraceWriter::encodeChain(const Addr *addrs, u32 n, u64 stamp0,
                               u8 *out)
{
    u32 last[kRegions];
    for (unsigned r = 0; r < kRegions; ++r)
        last[r] = static_cast<u32>(r) << 28;
    u32 prevRegion = kRegions; // invalid: first item switches
    u32 chainPrev = 0;
    bool runOpen = false; // a same-region delta run awaits writing
    u64 runBody = 0;
    u64 runExtra = 0;
    MatchSlot *slots = matchIndex.data();
    for (u32 k = 0; k < n; ++k) {
        const u32 addr = addrs[k];
        const u32 reg = addr >> 28;
        u64 body;
        if (reg == prevRegion) {
            body = zigzagEncode(static_cast<s64>(addr) -
                                static_cast<s64>(chainPrev))
                   << 1;
        } else {
            body = (zigzagEncode(static_cast<s64>(addr) -
                                 static_cast<s64>(last[reg]))
                    << 5) |
                   (static_cast<u64>(reg) << 1) | 1;
        }
        MatchSlot &slot = slots[matchSlotOf(addr)];
        if (runOpen && body == runBody) {
            ++runExtra;
        } else {
            if (runOpen)
                out = putDeltaRun(out, runBody, runExtra);
            runOpen = false;
            // A match item costs 1 byte below ring index 32 and 2
            // below 64; it is used only when shorter than the delta
            // item, so deltas of one byte never look.
            const u64 item = body << 1;
            const unsigned limit = item < 0x80     ? 0
                                   : item < 0x4000 ? 32
                                                   : kRecent;
            u64 idx = kRecent;
            if (limit) {
                // The slot gives the index the ring scan would: the
                // most recent copy. A different address still in
                // the window may have overwritten ours, so scan;
                // one outside the window (or none this chain) proves
                // ours absent, since anything that overwrote an
                // in-window entry is itself in the window.
                const bool seen = slot.stamp >= stamp0;
                const u64 dist = seen ? stamp0 + k - slot.stamp : ~0ull;
                if (seen && slot.addr == addr)
                    idx = dist - 1;
                else if (dist <= kRecent)
                    idx = scanRecent(addrs, k, addr, limit);
                else if (addr == 0 && k < kRecent)
                    idx = k; // the zero-filled part of the ring
            }
            if (idx < limit) {
                // Wire form (index << 2 | 3): a rep-flagged
                // switch-type item, a combination the delta encoder
                // never produces.
                out = putVarintAt(out, (idx << 2) | 3);
            } else if (body & 1) {
                out = putVarintAt(out, item);
            } else {
                runOpen = true;
                runBody = body;
                runExtra = 0;
            }
        }
        slot = {addr, stamp0 + k};
        last[reg] = addr;
        chainPrev = addr;
        prevRegion = reg;
    }
    if (runOpen)
        out = putDeltaRun(out, runBody, runExtra);
    return out;
}

void
PackedTraceWriter::flushBlock()
{
    if (!pending)
        return;
    const std::size_t len = encodeBlock();
    BinWriter h;
    h.put32(kPackedBlockMagic);
    h.put32(pending);
    h.put64(len);
    h.put64(fnv64(scratch.data(), len));
    index.push_back({written, pending});
    write(h.bytes().data(), h.bytes().size());
    write(scratch.data(), len);
    total += pending;
    pending = 0;
}

bool
PackedTraceWriter::close(std::string *errOut)
{
    if (closed)
        return !failed;
    closed = true;
    auto fail = [&](const std::string &step) {
        failed = true;
        if (errOut) {
            *errOut = step + " " + tmpPath + ": " +
                      std::strerror(errno ? errno : EIO);
        }
        if (file) {
            std::fclose(file);
            file = nullptr;
        }
        if (!torn)
            std::remove(tmpPath.c_str());
        return false;
    };
    if (!file)
        return fail("open");

    flushBlock();

    BinWriter body;
    body.put32(kPackedFooterMagic);
    body.put64(total);
    body.put32(static_cast<u32>(index.size()));
    for (const PackedBlockInfo &e : index) {
        body.put64(e.fileOffset);
        body.put32(e.count);
    }
    write(body.bytes().data(), body.bytes().size());

    BinWriter trailer;
    trailer.put64(fnv64(body.bytes().data(), body.bytes().size()));
    trailer.put64(body.bytes().size());
    trailer.put32(kPackedEndMagic);
    write(trailer.bytes().data(), trailer.bytes().size());

    if (failed || std::fflush(file) != 0 ||
        io::checkFault(io::Op::Flush, finalPath).any()) {
        return fail("write");
    }
    if (std::fclose(file) != 0 ||
        io::checkFault(io::Op::Close, finalPath).any()) {
        file = nullptr;
        return fail("close");
    }
    file = nullptr;
    io::Fault rf = io::checkFault(io::Op::Rename, finalPath);
    if (rf.torn) {
        // A crash between close and rename: the finished temporary
        // stays behind as stale litter for fsck to report.
        torn = true;
        errno = EIO;
        return fail("rename " + tmpPath + " to " + finalPath +
                    " from");
    }
    if (rf.fail || std::rename(tmpPath.c_str(), finalPath.c_str()) != 0)
        return fail("rename " + tmpPath + " to " + finalPath +
                    " from");
    return true;
}

void
PackedTraceWriter::abort()
{
    closed = true;
    failed = true;
    if (file) {
        std::fclose(file);
        file = nullptr;
    }
    std::remove(tmpPath.c_str());
}

// ---------------------------------------------------------------------
// PackedTraceReader

PackedTraceReader::~PackedTraceReader()
{
    if (file)
        std::fclose(file);
}

LoadResult
PackedTraceReader::failAt(u64 offset, std::string field,
                          std::string reason)
{
    state = LoadResult::fail(static_cast<std::size_t>(offset),
                             std::move(field), std::move(reason));
    return state;
}

LoadResult
PackedTraceReader::open(const std::string &path)
{
    errno = 0;
    file = std::fopen(path.c_str(), "rb");
    if (!file) {
        return failAt(0, "file",
                      "cannot open " + path + ": " +
                          std::strerror(errno ? errno : EIO));
    }
    std::fseek(file, 0, SEEK_END);
    long size = std::ftell(file);
    fileSize = size > 0 ? static_cast<u64>(size) : 0;

    constexpr u64 kMinFooterBody = 16; // magic + totalRecords + count
    if (fileSize <
        kPackedHeaderBytes + kMinFooterBody + kPackedTrailerBytes) {
        return failAt(0, "header",
                      "file too short for a packed trace (" +
                          std::to_string(fileSize) + " bytes)");
    }

    u8 hdr[kPackedHeaderBytes];
    std::fseek(file, 0, SEEK_SET);
    if (std::fread(hdr, 1, sizeof(hdr), file) != sizeof(hdr))
        return failAt(0, "header", "short read");
    u32 magic = readLe32(hdr);
    if (magic != kPackedMagic) {
        return failAt(0, "magic",
                      "expected " + hex32(kPackedMagic) +
                          " (packed trace), found " + hex32(magic));
    }
    u32 version = readLe32(hdr + 4);
    if (version != kPackedVersion) {
        return failAt(4, "version",
                      "unsupported packed trace version " +
                          std::to_string(version));
    }
    capacity = readLe32(hdr + 8);
    if (capacity == 0 || capacity > kPackedMaxBlockCapacity) {
        return failAt(8, "blockCapacity",
                      "implausible block capacity " +
                          std::to_string(capacity));
    }

    u8 trailer[kPackedTrailerBytes];
    u64 trailerAt = fileSize - kPackedTrailerBytes;
    std::fseek(file, static_cast<long>(trailerAt), SEEK_SET);
    if (std::fread(trailer, 1, sizeof(trailer), file) !=
        sizeof(trailer)) {
        return failAt(trailerAt, "footerTrailer", "short read");
    }
    u32 endMagic = readLe32(trailer + 16);
    if (endMagic != kPackedEndMagic) {
        return failAt(trailerAt + 16, "endMagic",
                      "expected " + hex32(kPackedEndMagic) +
                          ", found " + hex32(endMagic) +
                          " (truncated or not a packed trace)");
    }
    u64 bodyFnv = readLe64(trailer);
    u64 bodyLen = readLe64(trailer + 8);
    if (bodyLen < kMinFooterBody ||
        bodyLen > trailerAt - kPackedHeaderBytes) {
        return failAt(trailerAt + 8, "footerLen",
                      "footer length " + std::to_string(bodyLen) +
                          " does not fit the file");
    }
    footerStart = trailerAt - bodyLen;

    std::vector<u8> body(static_cast<std::size_t>(bodyLen));
    std::fseek(file, static_cast<long>(footerStart), SEEK_SET);
    if (std::fread(body.data(), 1, body.size(), file) != body.size())
        return failAt(footerStart, "footer", "short read");
    if (fnv64(body.data(), body.size()) != bodyFnv) {
        return failAt(trailerAt, "footerFnv",
                      "footer checksum mismatch (corrupt index)");
    }
    u32 footerMagic = readLe32(body.data());
    if (footerMagic != kPackedFooterMagic) {
        return failAt(footerStart, "footerMagic",
                      "expected " + hex32(kPackedFooterMagic) +
                          ", found " + hex32(footerMagic));
    }
    footerRecords = readLe64(body.data() + 4);
    u32 blocks = readLe32(body.data() + 12);
    if (bodyLen != kMinFooterBody + static_cast<u64>(blocks) * 12) {
        return failAt(footerStart + 12, "blockCount",
                      std::to_string(blocks) +
                          " blocks does not match the footer size");
    }

    index.clear();
    index.reserve(blocks);
    u64 prevOffset = 0;
    u64 sum = 0;
    for (u32 i = 0; i < blocks; ++i) {
        const u8 *p = body.data() + kMinFooterBody +
                      static_cast<std::size_t>(i) * 12;
        PackedBlockInfo e;
        e.fileOffset = readLe64(p);
        e.count = readLe32(p + 8);
        u64 fieldAt = footerStart + kMinFooterBody +
                      static_cast<u64>(i) * 12;
        if (e.count == 0 || e.count > capacity) {
            return failAt(fieldAt + 8, "blockIndex.count",
                          "block " + std::to_string(i) + " claims " +
                              std::to_string(e.count) + " records");
        }
        u64 expected = i == 0 ? kPackedHeaderBytes : prevOffset;
        if (e.fileOffset < expected ||
            e.fileOffset + kPackedBlockHeaderBytes > footerStart) {
            return failAt(fieldAt, "blockIndex.offset",
                          "block " + std::to_string(i) +
                              " offset out of bounds");
        }
        if (i == 0 && e.fileOffset != kPackedHeaderBytes) {
            return failAt(fieldAt, "blockIndex.offset",
                          "first block does not follow the header");
        }
        if (i > 0 && e.fileOffset <= prevOffset) {
            return failAt(fieldAt, "blockIndex.offset",
                          "block offsets not strictly increasing");
        }
        prevOffset = e.fileOffset;
        sum += e.count;
        index.push_back(e);
    }
    if (sum != footerRecords) {
        return failAt(footerStart + 4, "totalRecords",
                      "footer total " +
                          std::to_string(footerRecords) +
                          " != sum of block counts " +
                          std::to_string(sum));
    }
    if (blocks == 0 && footerStart != kPackedHeaderBytes) {
        return failAt(kPackedHeaderBytes, "blocks",
                      "unindexed bytes between header and footer");
    }

    pos = kPackedHeaderBytes;
    nextBlockIdx = 0;
    state = LoadResult();
    return state;
}

LoadResult
PackedTraceReader::seekBlock(u32 i)
{
    if (!state.ok())
        return state;
    if (i > index.size()) {
        return failAt(footerStart, "seek",
                      "block " + std::to_string(i) + " of " +
                          std::to_string(index.size()));
    }
    nextBlockIdx = i;
    pos = i < index.size() ? index[i].fileOffset : footerStart;
    return LoadResult();
}

bool
PackedTraceReader::nextBlock(std::vector<TraceRecord> &out)
{
    out.clear();
    if (!file || !state.ok())
        return false;
    if (nextBlockIdx >= index.size()) {
        if (pos != footerStart) {
            failAt(pos, "blocks",
                   "trailing bytes between the last block and the "
                   "footer");
        }
        return false;
    }
    const PackedBlockInfo &info = index[nextBlockIdx];
    if (pos != info.fileOffset) {
        failAt(pos, "blockIndex.offset",
               "stream position does not match the block index");
        return false;
    }

    u8 hdr[kPackedBlockHeaderBytes];
    std::fseek(file, static_cast<long>(pos), SEEK_SET);
    if (std::fread(hdr, 1, sizeof(hdr), file) != sizeof(hdr)) {
        failAt(pos, "blockHeader", "short read");
        return false;
    }
    u32 magic = readLe32(hdr);
    if (magic != kPackedBlockMagic) {
        failAt(pos, "blockMagic",
               "expected " + hex32(kPackedBlockMagic) + ", found " +
                   hex32(magic));
        return false;
    }
    u32 count = readLe32(hdr + 4);
    if (count != info.count) {
        failAt(pos + 4, "count",
               "block header claims " + std::to_string(count) +
                   " records, index says " +
                   std::to_string(info.count));
        return false;
    }
    u64 payloadLen = readLe64(hdr + 8);
    u64 payloadFnv = readLe64(hdr + 16);
    u64 payloadAt = pos + kPackedBlockHeaderBytes;
    if (payloadLen > footerStart - payloadAt ||
        payloadLen > maxPayloadBytes(count)) {
        failAt(pos + 8, "payloadLen",
               "implausible payload length " +
                   std::to_string(payloadLen) + " for " +
                   std::to_string(count) + " records");
        return false;
    }

    std::vector<u8> payload(static_cast<std::size_t>(payloadLen));
    if (std::fread(payload.data(), 1, payload.size(), file) !=
        payload.size()) {
        failAt(payloadAt, "payload", "short read");
        return false;
    }
    if (fnv64(payload.data(), payload.size()) != payloadFnv) {
        failAt(pos + 16, "payloadFnv",
               "block checksum mismatch (corrupt payload)");
        return false;
    }

    const u8 *p = payload.data();
    const u8 *end = p + payload.size();
    auto at = [&] {
        return payloadAt + static_cast<u64>(p - payload.data());
    };

    // 1. Meta tokens: varint(runLength << 3 | meta); runs must sum
    // exactly to the record count.
    std::vector<u8> metas;
    metas.reserve(count);
    u32 chainTotal[kChains] = {};
    while (metas.size() < count) {
        u64 tok;
        std::size_t n = getVarint(p, end, tok);
        if (!n) {
            failAt(at(), "metaToken", "truncated varint");
            return false;
        }
        p += n;
        u8 meta = static_cast<u8>(tok & 7);
        u64 run = tok >> 3;
        if ((meta & 3) > 2) {
            failAt(at(), "meta",
                   "invalid kind/class value " + std::to_string(meta));
            return false;
        }
        if (run == 0 || run > count - metas.size()) {
            failAt(at(), "metaRun",
                   "run of " + std::to_string(run) +
                       " overflows the block");
            return false;
        }
        chainTotal[meta] += static_cast<u32>(run);
        metas.insert(metas.end(), static_cast<std::size_t>(run),
                     meta);
    }

    // 2. Per-chain address streams, mirroring the encoder's state
    // machine (per-region last-address table, run-collapsed items).
    std::vector<Addr> chainAddrs[kChains];
    for (u8 m = 0; m < kChains; ++m) {
        u32 want = chainTotal[m];
        if (!want)
            continue;
        std::vector<Addr> &addrs = chainAddrs[m];
        addrs.reserve(want);
        u32 last[kRegions];
        for (unsigned r = 0; r < kRegions; ++r)
            last[r] = static_cast<u32>(r) << 28;
        u32 recent[kRecent] = {};
        unsigned ringPos = 0;
        u32 chainPrev = 0;
        auto push = [&](Addr addr) {
            last[addr >> 28] = addr;
            chainPrev = addr;
            recent[ringPos] = addr;
            ringPos = (ringPos + 1) & (kRecent - 1);
            addrs.push_back(addr);
        };
        while (addrs.size() < want) {
            u64 head;
            std::size_t n = getVarint(p, end, head);
            if (!n) {
                failAt(at(), "addrItem", "truncated varint");
                return false;
            }
            p += n;
            u64 body = head >> 1;
            if ((head & 1) && (body & 1)) {
                // Exact-match item: an index into the recency ring.
                u64 idx = head >> 2;
                if (idx >= kRecent) {
                    failAt(at(), "addrMatch",
                           "match index " + std::to_string(idx) +
                               " exceeds the recency ring");
                    return false;
                }
                push(recent[(ringPos - 1 -
                             static_cast<unsigned>(idx)) &
                            (kRecent - 1)]);
                continue;
            }
            s64 delta;
            u32 base;
            if (body & 1) { // region switch
                u32 reg = static_cast<u32>((body >> 1) & 0xF);
                delta = zigzagDecode(body >> 5);
                base = last[reg];
            } else {
                delta = zigzagDecode(body >> 1);
                base = chainPrev;
            }
            u64 extra = 0;
            if (head & 1) { // run-collapsed item
                n = getVarint(p, end, extra);
                if (!n) {
                    failAt(at(), "addrRun", "truncated varint");
                    return false;
                }
                p += n;
                if (extra > want - addrs.size() - 1) {
                    failAt(at(), "addrRun",
                           "run of " + std::to_string(extra + 1) +
                               " overflows the chain");
                    return false;
                }
            }
            s64 a = static_cast<s64>(base);
            for (u64 k = 0; k <= extra; ++k) {
                a += delta;
                if (a < 0 || a > 0xFFFFFFFFll) {
                    failAt(at(), "addrDelta",
                           "delta chain leaves the 32-bit address "
                           "space");
                    return false;
                }
                push(static_cast<Addr>(a));
            }
        }
    }
    if (p != end) {
        failAt(at(), "payload",
               std::to_string(end - p) +
                   " trailing bytes after the address streams");
        return false;
    }

    // 3. Reassemble arrival order by walking the meta sequence and
    // consuming each chain's addresses in turn.
    out.reserve(count);
    u32 cursor[kChains] = {};
    for (u32 i = 0; i < count; ++i) {
        u8 meta = metas[i];
        TraceRecord r;
        r.addr = chainAddrs[meta][cursor[meta]++];
        r.kind = static_cast<u8>(meta & 3);
        r.cls = static_cast<u8>(meta >> 2);
        out.push_back(r);
    }

    pos = payloadAt + payloadLen;
    ++nextBlockIdx;
    return true;
}

} // namespace pt::trace
