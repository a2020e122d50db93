/**
 * @file
 * Block-based packed memory-reference trace format ("PTPK").
 *
 * A raw encoding (trace::TraceBuffer) spends 6 bytes per record and
 * must materialize the whole trace in RAM; multi-hour sessions and
 * desktop traces (Figure 7) need a compact, streaming
 * representation. PTPK encodes references in fixed-capacity blocks:
 *
 *  - the kind/class bytes as run-length-encoded meta tokens that
 *    also select a per-(kind,class) delta chain for each address,
 *  - addresses as zigzag varints of the delta from that chain's
 *    history: each chain keeps a last-address-per-region table (top
 *    address nibble), so the interleaved fetch, stack and heap
 *    streams delta against their own locality, crossing regions
 *    costs a 4-bit switch instead of a full-width delta, and runs
 *    of identical deltas (sequential fetch, streaming data)
 *    collapse into a single run item,
 *  - all chain state restarts at every block boundary, so each
 *    block decodes independently,
 *  - every block framed with the PR 1 integrity scheme: an exact
 *    payload length plus an FNV-1a 64-bit checksum, so corruption is
 *    detected block-locally and memory use stays O(block),
 *  - a footer carrying the total record count and a seekable
 *    per-block index (file offset + record count), itself framed.
 *
 * Layout (all integers little-endian, varints LEB128 low-7-bits
 * first, signed values zigzag encoded):
 *
 *   File        := FileHeader Block* FooterBody FooterTrailer
 *   FileHeader  := magic "PTPK" (u32)  version (u32)
 *                  blockCapacity (u32)  reserved (u32)
 *   Block       := blockMagic "PTBK" (u32)  count (u32)
 *                  payloadLen (u64)  payloadFnv (u64)  payload
 *   payload     := metaTokens chainStream*
 *   metaTokens  := varint(runLen << 3 | meta) ... with
 *                  meta = kind | cls << 2, runs summing to count
 *   chainStream := address items of one meta value's chain, chains
 *                  emitted in ascending meta order (arrival order is
 *                  recovered from the meta sequence)
 *   item        := varint(body << 1 | rep) [varint(extraRuns) if rep]
 *   body        := zigzag(addr - chainPrev) << 1 | 0          (same
 *                  region as the chain's previous address), or
 *                  zigzag(addr - lastInRegion[addr >> 28]) << 5
 *                  | region << 1 | 1                  (region switch)
 *                  (rep items repeat the delta extraRuns more times;
 *                  a rep-flagged switch body — which the delta
 *                  encoder never produces — is an exact-match item
 *                  varint(index << 2 | 3), an index into the ring of
 *                  the chain's 64 most recent addresses)
 *   FooterBody  := footerMagic "PTFX" (u32)  totalRecords (u64)
 *                  blockCount (u32)
 *                  blockCount x { fileOffset (u64), count (u32) }
 *   FooterTrailer := bodyFnv (u64)  bodyLen (u64)
 *                    endMagic "PTPE" (u32)
 *
 * Per block and per chain, lastInRegion[r] starts at r << 28 and
 * chainPrev at 0. The trailer sits at a fixed distance from the end
 * of the file so a reader can locate and verify the footer without
 * scanning blocks, then stream or seek per the index.
 */

#ifndef PT_TRACE_PACKEDTRACE_H
#define PT_TRACE_PACKEDTRACE_H

#include <cstdio>
#include <string>
#include <vector>

#include "base/loaderror.h"
#include "base/types.h"
#include "trace/memtrace.h"

namespace pt::trace
{

/** PTPK file-level constants. */
inline constexpr u32 kPackedMagic = 0x4B505450;  // "PTPK"
inline constexpr u32 kPackedVersion = 1;
inline constexpr u32 kPackedBlockMagic = 0x4B425450;   // "PTBK"
inline constexpr u32 kPackedFooterMagic = 0x58465450;  // "PTFX"
inline constexpr u32 kPackedEndMagic = 0x45505450;     // "PTPE"

/** Default and maximum records per block. The cap bounds the memory
 *  a reader may allocate for one block regardless of header claims. */
inline constexpr u32 kPackedDefaultBlockCapacity = 4096;
inline constexpr u32 kPackedMaxBlockCapacity = 1u << 20;

/** Fixed sizes of the framing pieces (see the layout comment). */
inline constexpr std::size_t kPackedHeaderBytes = 16;
inline constexpr std::size_t kPackedBlockHeaderBytes = 24;
inline constexpr std::size_t kPackedTrailerBytes = 20;

/** Zigzag maps signed deltas onto small unsigned varints. */
inline u64
zigzagEncode(s64 v)
{
    return (static_cast<u64>(v) << 1) ^
           static_cast<u64>(v >> 63);
}

inline s64
zigzagDecode(u64 v)
{
    return static_cast<s64>(v >> 1) ^ -static_cast<s64>(v & 1);
}

/** Appends a LEB128 varint. */
inline void
putVarint(std::vector<u8> &out, u64 v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<u8>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<u8>(v));
}

/**
 * Reads a LEB128 varint from [p, end). @return bytes consumed, or 0
 * when the buffer ends mid-varint or the varint overflows 64 bits.
 */
inline std::size_t
getVarint(const u8 *p, const u8 *end, u64 &out)
{
    u64 v = 0;
    unsigned shift = 0;
    for (const u8 *q = p; q < end && shift < 64; ++q, shift += 7) {
        v |= static_cast<u64>(*q & 0x7F) << shift;
        if (!(*q & 0x80)) {
            out = v;
            return static_cast<std::size_t>(q - p) + 1;
        }
    }
    return 0;
}

/** One entry of the footer's seekable block index. */
struct PackedBlockInfo
{
    u64 fileOffset = 0; ///< offset of the block header in the file
    u32 count = 0;      ///< records in the block
};

/**
 * Streams classified references into a PTPK file with O(block)
 * memory. The file is written to a temporary sibling and renamed
 * into place by close(), so a crash mid-write never leaves a torn
 * trace behind (the PR 1 atomic-write discipline).
 */
class PackedTraceWriter
{
  public:
    explicit PackedTraceWriter(
        const std::string &path,
        u32 blockCapacity = kPackedDefaultBlockCapacity);
    ~PackedTraceWriter();

    PackedTraceWriter(const PackedTraceWriter &) = delete;
    PackedTraceWriter &operator=(const PackedTraceWriter &) = delete;

    /** False when the temporary file could not be opened or a write
     *  failed; check before trusting close(). */
    bool ok() const { return file != nullptr && !failed; }

    /** Appends one record (kind 0 fetch / 1 read / 2 write, cls 0
     *  ram / 1 flash; other values are clamped into range). */
    void add(Addr addr, u8 kind, u8 cls);

    void add(const TraceRecord &r) { add(r.addr, r.kind, r.cls); }

    /** Records appended so far. */
    u64 count() const { return total; }

    /** The normalized records-per-block capacity in effect. */
    u32 capacity() const { return blockCapacity; }

    /**
     * Flushes the final block and footer and renames the temporary
     * into place. @return success; on failure @p errOut (when given)
     * receives the failing step. The writer is unusable afterwards.
     */
    bool close(std::string *errOut = nullptr);

    /**
     * Abandons the file: closes and removes the temporary without
     * ever producing the final path. For cancelled work items — a
     * partially-streamed trace is structurally valid PTPK, so it
     * must never be renamed into place as if it were complete.
     */
    void abort();

    /** Bytes in the finished file; valid after a successful close. */
    u64 bytesWritten() const { return written; }

  private:
    void flushBlock();
    void write(const void *data, std::size_t len);

    std::string finalPath;
    std::string tmpPath;
    std::FILE *file = nullptr;
    u32 blockCapacity;
    std::vector<TraceRecord> pending;
    std::vector<u8> scratch; ///< per-block encode buffer
    std::vector<PackedBlockInfo> index;
    u64 total = 0;
    u64 written = 0;
    bool failed = false;
    bool closed = false;
    bool torn = false; ///< injected crash: leave the tmp behind
};

/**
 * Streams a PTPK file block by block with O(block) memory. open()
 * validates the header and the footer frame (and the block index
 * against file bounds); nextBlock() verifies each block's checksum
 * and structure before handing out decoded records. Any corruption
 * surfaces as a structured LoadError via status(), never as a crash
 * or an unbounded allocation.
 */
class PackedTraceReader
{
  public:
    PackedTraceReader() = default;
    ~PackedTraceReader();

    PackedTraceReader(const PackedTraceReader &) = delete;
    PackedTraceReader &operator=(const PackedTraceReader &) = delete;

    /** Opens and validates header + footer. */
    LoadResult open(const std::string &path);

    /** Totals from the verified footer. */
    u64 totalRecords() const { return footerRecords; }
    u32 blockCount() const
    {
        return static_cast<u32>(index.size());
    }
    u32 blockCapacity() const { return capacity; }
    u64 fileBytes() const { return fileSize; }
    const std::vector<PackedBlockInfo> &blockIndex() const
    {
        return index;
    }

    /**
     * Decodes the next block into @p out (replacing its contents).
     * @return true when a block was produced; false at end of stream
     * or on error — check status() to tell the two apart.
     */
    bool nextBlock(std::vector<TraceRecord> &out);

    /** Repositions streaming at block @p i (random access). */
    LoadResult seekBlock(u32 i);

    /** Ok while the stream is healthy; the first corruption sticks. */
    const LoadResult &status() const { return state; }

  private:
    LoadResult failAt(u64 offset, std::string field,
                      std::string reason);

    std::FILE *file = nullptr;
    std::vector<PackedBlockInfo> index;
    u64 fileSize = 0;
    u64 footerStart = 0; ///< offset of FooterBody (blocks end here)
    u64 footerRecords = 0;
    u32 capacity = 0;
    u32 nextBlockIdx = 0;
    u64 pos = 0; ///< next block header offset
    LoadResult state;
};

/**
 * MemRefSink adapter: tees the replayed reference stream into a
 * packed trace file (`palmtrace replay --pack-out`). Non-RAM/flash
 * references are skipped, mirroring TraceBuffer.
 */
class PackedWriterSink : public device::MemRefSink
{
  public:
    explicit PackedWriterSink(PackedTraceWriter &w)
        : writer(w)
    {}

    void
    onRef(Addr addr, m68k::AccessKind kind,
          device::RefClass cls) override
    {
        if (cls != device::RefClass::Ram &&
            cls != device::RefClass::Flash) {
            return;
        }
        writer.add(addr, static_cast<u8>(kind),
                   cls == device::RefClass::Flash ? 1 : 0);
    }

  private:
    PackedTraceWriter &writer;
};

} // namespace pt::trace

#endif // PT_TRACE_PACKEDTRACE_H
