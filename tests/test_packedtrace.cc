/**
 * @file
 * Packed trace (PTPK) tests: round-trips across block shapes and
 * record mixes, corruption/truncation robustness for every frame
 * field (structured LoadErrors, bounded allocation, no crashes),
 * hardened Dinero parsing, the differential proof that a
 * packed-fed sweep is bit-identical to the in-memory sweep at jobs
 * in {1, 8}, and the encoder oracle: every block payload the writer
 * produces equals the one the original per-chain, ring-scanning
 * encoder produces, on seeded random blocks and on a replayed
 * session.
 */

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "core/palmsim.h"
#include "trace/dinero.h"
#include "trace/memtrace.h"
#include "trace/packedtrace.h"
#include "workload/desktoptrace.h"
#include "workload/tracefeed.h"

namespace pt
{
namespace
{

using trace::PackedTraceReader;
using trace::PackedTraceWriter;
using trace::TraceRecord;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.addr == b.addr && a.kind == b.kind && a.cls == b.cls;
}

/** Writes @p recs into a packed file at @p path. */
void
writePacked(const std::string &path,
            const std::vector<TraceRecord> &recs,
            u32 blockCapacity = trace::kPackedDefaultBlockCapacity)
{
    PackedTraceWriter w(path, blockCapacity);
    ASSERT_TRUE(w.ok());
    for (const auto &r : recs)
        w.add(r);
    std::string err;
    ASSERT_TRUE(w.close(&err)) << err;
}

/** Streams a packed file fully; returns the final status. */
LoadResult
decodeAll(const std::string &path, std::vector<TraceRecord> &out)
{
    out.clear();
    PackedTraceReader r;
    if (auto res = r.open(path); !res)
        return res;
    std::vector<TraceRecord> block;
    while (r.nextBlock(block))
        out.insert(out.end(), block.begin(), block.end());
    return r.status();
}

void
expectRoundTrip(const std::vector<TraceRecord> &recs,
                u32 blockCapacity, const char *name)
{
    std::string path = tmpPath(name);
    writePacked(path, recs, blockCapacity);
    std::vector<TraceRecord> back;
    LoadResult res = decodeAll(path, back);
    ASSERT_TRUE(res.ok()) << res.message();
    ASSERT_EQ(back.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(sameRecord(back[i], recs[i]))
            << "record " << i << " addr 0x" << std::hex
            << recs[i].addr;
    }
    std::remove(path.c_str());
}

std::vector<u8>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<u8>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::vector<u8> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** The Fig 7 synthetic desktop trace as records (RAM class). */
std::vector<TraceRecord>
syntheticRecords(u64 refs, u64 seed = 7)
{
    workload::DesktopTraceConfig cfg;
    cfg.refs = refs;
    cfg.seed = seed;
    workload::DesktopTraceGen gen(cfg);
    std::vector<TraceRecord> recs;
    recs.reserve(refs);
    gen.generate([&](Addr a, u8 kind) {
        recs.push_back({a, kind, 0});
    });
    return recs;
}

// ---------------------------------------------------------------------
// The reference encoder: the block encoder and the varint writer it
// used, as they were before the writer's one-pass rewrite, kept
// verbatim (one pass per chain, a linear scan of the recency ring per
// item). The writer must produce exactly its bytes.

namespace reference
{

using trace::zigzagEncode;

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

/** kind/class nibble: the chain selector. */
u8
metaOf(const TraceRecord &r)
{
    return static_cast<u8>((r.kind & 3) | ((r.cls & 1) << 2));
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

/** Encoded size of a varint. */
std::size_t
varintLen(u64 v)
{
    std::size_t n = 1;
    while (v >= 0x80) {
        v >>= 7;
        ++n;
    }
    return n;
}

/** Encodes one block's payload (meta tokens + chain streams),
 *  replacing @p scratch. All chain state restarts per block. */
void
encodePackedBlockPayload(const TraceRecord *recs, std::size_t n,
                         std::vector<u8> &scratch)
{
    scratch.clear();

    // 1. Meta tokens: varint(runLength << 3 | meta). A single-record
    // run costs one byte, so interleaved kinds degrade gracefully
    // while uniform stretches collapse.
    std::size_t i = 0;
    while (i < n) {
        u8 meta = metaOf(recs[i]);
        std::size_t j = i + 1;
        while (j < n && metaOf(recs[j]) == meta)
            ++j;
        putVarint(scratch,
                  (static_cast<u64>(j - i) << 3) | meta);
        i = j;
    }

    // 2. Per-chain address streams, one chain per meta value. Each
    // chain deltas against its own history so the interleaved fetch,
    // stack and heap streams do not thrash one another's locality,
    // and each chain keeps a last-address-per-region table (top
    // nibble) so alternation between distant regions costs a 4-bit
    // region switch instead of a full-width delta. Runs of identical
    // same-region deltas (sequential fetch, streaming data) collapse
    // into one item.
    struct ChainItem
    {
        u64 body;
        bool match;
    };
    std::vector<ChainItem> items;
    for (u8 m = 0; m < kChains; ++m) {
        items.clear();
        u32 last[kRegions];
        for (unsigned r = 0; r < kRegions; ++r)
            last[r] = static_cast<u32>(r) << 28;
        u32 recent[kRecent] = {};
        unsigned ringPos = 0;
        u32 prevRegion = kRegions; // invalid: first item switches
        u32 chainPrev = 0;
        for (std::size_t r = 0; r < n; ++r) {
            const TraceRecord &rec = recs[r];
            if (metaOf(rec) != m)
                continue;
            u32 reg = rec.addr >> 28;
            u64 body;
            if (reg == prevRegion) {
                body = zigzagEncode(static_cast<s64>(rec.addr) -
                                    static_cast<s64>(chainPrev))
                       << 1;
            } else {
                body = (zigzagEncode(static_cast<s64>(rec.addr) -
                                     static_cast<s64>(last[reg]))
                        << 5) |
                       (static_cast<u64>(reg) << 1) | 1;
            }
            // Exact matches against the recency ring beat wide
            // deltas (temporal reuse repeats addresses verbatim) —
            // but never break a delta run in progress.
            bool useMatch = false;
            u64 matchIdx = kRecent; // no hit
            bool continuesRun = !(body & 1) && !items.empty() &&
                                !items.back().match &&
                                items.back().body == body;
            if (!continuesRun) {
                for (unsigned j = 1; j <= kRecent; ++j) {
                    if (recent[(ringPos - j) & (kRecent - 1)] ==
                        rec.addr) {
                        matchIdx = j - 1;
                        break;
                    }
                }
                if (matchIdx < kRecent) {
                    std::size_t matchCost = matchIdx < 32 ? 1 : 2;
                    useMatch = matchCost < varintLen(body << 1);
                }
            }
            items.push_back(useMatch ? ChainItem{matchIdx, true}
                                     : ChainItem{body, false});
            last[reg] = rec.addr;
            chainPrev = rec.addr;
            prevRegion = reg;
            recent[ringPos] = rec.addr;
            ringPos = (ringPos + 1) & (kRecent - 1);
        }
        std::size_t k = 0;
        while (k < items.size()) {
            if (items[k].match) {
                // Wire form (index << 2 | 3): a rep-flagged
                // switch-type item, a combination the delta encoder
                // never produces.
                putVarint(scratch, (items[k].body << 2) | 3);
                ++k;
                continue;
            }
            u64 body = items[k].body;
            std::size_t e = k + 1;
            if (!(body & 1)) { // same-region items may run-collapse
                while (e < items.size() && !items[e].match &&
                       items[e].body == body) {
                    ++e;
                }
            }
            u64 extra = e - k - 1;
            if (extra) {
                putVarint(scratch, (body << 1) | 1);
                putVarint(scratch, extra);
            } else {
                putVarint(scratch, body << 1);
            }
            k = e;
        }
    }
}

} // namespace reference

/** One block of a packed file: its record count and raw payload. */
struct RawBlock
{
    u32 count = 0;
    std::vector<u8> payload;
};

/** The payload bytes of every block of the PTPK file at @p path, as
 *  written, located through the verified footer index. */
std::vector<RawBlock>
rawBlocks(const std::string &path)
{
    PackedTraceReader r;
    LoadResult res = r.open(path);
    EXPECT_TRUE(res.ok()) << res.message();
    const std::vector<u8> file = readFileBytes(path);
    std::vector<RawBlock> out;
    for (const trace::PackedBlockInfo &b : r.blockIndex()) {
        const u8 *hdr = file.data() + b.fileOffset;
        u64 len = 0;
        for (int i = 7; i >= 0; --i)
            len = (len << 8) | hdr[8 + i];
        const u64 at = b.fileOffset + trace::kPackedBlockHeaderBytes;
        if (len > file.size() - at) {
            ADD_FAILURE() << "block at " << b.fileOffset
                          << " overruns the file";
            break;
        }
        out.push_back({b.count, std::vector<u8>(file.data() + at,
                                                file.data() + at + len)});
    }
    return out;
}

/** Checks every block payload of the PTPK file at @p path against
 *  the reference encoder's payload for the same slice of @p recs. */
void
expectReferencePayloads(const std::string &path,
                        const std::vector<TraceRecord> &recs)
{
    const std::vector<RawBlock> blocks = rawBlocks(path);
    std::vector<u8> want;
    std::size_t at = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        ASSERT_LE(blocks[b].count, recs.size() - at);
        reference::encodePackedBlockPayload(recs.data() + at,
                                            blocks[b].count, want);
        ASSERT_EQ(blocks[b].payload, want)
            << "block " << b << " of " << blocks.size();
        at += blocks[b].count;
    }
    EXPECT_EQ(at, recs.size());
}

/** Writes @p recs at @p capacity and checks every block payload
 *  against the reference encoder's. */
void
expectReferenceBytes(const std::vector<TraceRecord> &recs, u32 capacity,
                     const std::string &name)
{
    const std::string path = tmpPath(name);
    writePacked(path, recs, capacity);
    expectReferencePayloads(path, recs);
    std::remove(path.c_str());
}

/**
 * Seeded random records built to stress the encoder's corners: a
 * small address alphabet (heavy reuse, index-slot collisions, reuse
 * distances either side of the 64-entry ring), addresses in every
 * region, address 0, delta runs of every stride, and all kind/class
 * values, each meta drawn with its own weight.
 */
std::vector<TraceRecord>
randomRecords(std::size_t n, u64 seed)
{
    std::mt19937_64 rng(seed);
    auto below = [&](u64 k) { return rng() % k; };
    // One alphabet per block; sizes from 1 (every record a repeat)
    // to 600 (most reuse beyond the ring).
    static constexpr std::size_t kAlphabets[] = {1, 2, 3, 7, 31, 63,
                                                 64, 65, 97, 200, 600};
    std::vector<Addr> alphabet(
        kAlphabets[below(std::size(kAlphabets))]);
    const u64 regions = 1 + below(16);
    for (Addr &a : alphabet) {
        const u64 r = below(4) ? below(regions) : below(16);
        a = static_cast<Addr>((r << 28) | (below(4) ? below(4096) * 2
                                                    : below(1u << 28)));
    }
    if (below(2))
        alphabet[below(alphabet.size())] = 0;
    u64 metaWeight[8];
    for (u64 &w : metaWeight)
        w = below(3) ? below(8) : 0;
    metaWeight[below(8)] += 1; // at least one meta drawn
    u64 metaTotal = 0;
    for (u64 w : metaWeight)
        metaTotal += w;
    const u64 stickiness = below(16); // meta repeats: 0 .. 15 in 16
    const u64 reusePct = below(101);

    std::vector<TraceRecord> recs;
    recs.reserve(n);
    Addr chainLast[8] = {};
    u8 meta = 0;
    s64 stride = 2;
    for (std::size_t i = 0; i < n; ++i) {
        if (i == 0 || below(16) >= stickiness) {
            u64 pick = below(metaTotal);
            meta = 0;
            while (pick >= metaWeight[meta])
                pick -= metaWeight[meta++];
        }
        Addr a;
        const u64 mode = below(100);
        if (i < 70 && below(8) == 0) {
            a = 0; // address 0 near the chain starts
        } else if (mode < reusePct) {
            a = alphabet[below(alphabet.size())];
        } else if (mode % 3 == 0) {
            if (below(8) == 0)
                stride = static_cast<s64>(below(64)) - 32;
            a = static_cast<Addr>(chainLast[meta] + stride);
        } else if (mode % 3 == 1) {
            a = static_cast<Addr>((below(16) << 28) | below(1u << 28));
        } else {
            a = static_cast<Addr>(chainLast[meta] + below(1u << 16) -
                                  (1u << 15));
        }
        chainLast[meta] = a;
        // Kind 3 (meta 3 and 7) reaches the writer, which clamps it
        // to a write; the reference sees the clamped record.
        const u8 kind = (meta & 3) == 3 ? 2 : meta & 3;
        recs.push_back({a, kind, static_cast<u8>(meta >> 2)});
    }
    return recs;
}

TEST(PackedTraceEncoder, MatchesReferenceOnRandomBlocks)
{
    // 2400 blocks at the small edges of the ring and the default
    // capacity, each file of several blocks so chain state must
    // restart per block.
    static constexpr u32 kCapacities[] = {1, 63, 64, 65, 4096};
    u64 blocks = 0;
    for (u64 seed = 1; blocks < 2400; ++seed) {
        const u32 capacity = kCapacities[seed % std::size(kCapacities)];
        const std::size_t n =
            capacity == 4096 ? 3 * capacity + seed % 777 : 60 * capacity;
        const std::vector<TraceRecord> recs = randomRecords(n, seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", capacity " +
                     std::to_string(capacity));
        expectReferenceBytes(recs, capacity, "enc_random.ptpk");
        if (HasFatalFailure())
            return;
        blocks += (n + capacity - 1) / capacity;
    }
}

TEST(PackedTraceEncoder, MatchesReferenceOnOneMaximalBlock)
{
    std::vector<TraceRecord> recs;
    for (u64 seed = 100; recs.size() < trace::kPackedMaxBlockCapacity;
         ++seed) {
        std::vector<TraceRecord> part = randomRecords(4096, seed);
        recs.insert(recs.end(), part.begin(), part.end());
    }
    recs.resize(trace::kPackedMaxBlockCapacity);
    expectReferenceBytes(recs, trace::kPackedMaxBlockCapacity,
                         "enc_max.ptpk");
}

TEST(PackedTraceEncoder, AddressZeroMatchesTheZeroFilledRing)
{
    // With no real copy of 0 in the ring, the zero fill matches at
    // index s (the chain's length so far); a real copy wins.
    std::vector<TraceRecord> recs;
    for (u32 s = 0; s < 70; ++s) {
        recs.clear();
        for (u32 i = 0; i < s; ++i)
            recs.push_back({0x10000000u + i * 0x01000000u, 1, 0});
        recs.push_back({0, 1, 0});
        recs.push_back({0x2000, 0, 1}); // another chain in between
        recs.push_back({0, 1, 0});
        expectReferenceBytes(recs, 4096, "enc_zero.ptpk");
    }
}

/** Records what a PackedWriterSink would write while passing every
 *  reference on to it. */
class TeeSink : public device::MemRefSink
{
  public:
    explicit TeeSink(trace::PackedWriterSink &next)
        : next(next)
    {}

    void
    onRef(Addr addr, m68k::AccessKind kind,
          device::RefClass cls) override
    {
        if (cls == device::RefClass::Ram ||
            cls == device::RefClass::Flash) {
            recs.push_back({addr, static_cast<u8>(kind),
                            cls == device::RefClass::Flash ? u8{1}
                                                           : u8{0}});
        }
        next.onRef(addr, kind, cls);
    }

    std::vector<TraceRecord> recs;

  private:
    trace::PackedWriterSink &next;
};

TEST(PackedTraceEncoder, MatchesReferenceOnSessionTrace)
{
    workload::UserModelConfig uc;
    uc.seed = 5;
    uc.interactions = 2;
    const core::Session sess = core::PalmSimulator::collect(uc);
    const std::string path = tmpPath("enc_session.ptpk");
    PackedTraceWriter writer(path);
    ASSERT_TRUE(writer.ok());
    trace::PackedWriterSink sink(writer);
    TeeSink tee(sink);
    core::ReplayConfig cfg;
    cfg.extraRefSink = &tee;
    core::PalmSimulator::replaySession(sess, cfg);
    ASSERT_TRUE(writer.close());
    ASSERT_GT(tee.recs.size(), 100000u);
    expectReferencePayloads(path, tee.recs);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Round trips.

TEST(PackedTrace, EmptyRoundTrip)
{
    std::string path = tmpPath("pt_packed_empty.ptpk");
    writePacked(path, {});
    PackedTraceReader r;
    ASSERT_TRUE(r.open(path).ok()) << r.status().message();
    EXPECT_EQ(r.totalRecords(), 0u);
    EXPECT_EQ(r.blockCount(), 0u);
    std::vector<TraceRecord> block;
    EXPECT_FALSE(r.nextBlock(block));
    EXPECT_TRUE(r.status().ok()) << r.status().message();
    std::remove(path.c_str());
}

TEST(PackedTrace, OneBlockRoundTrip)
{
    std::vector<TraceRecord> recs = {
        {0x1000, 0, 0},     {0x1004, 0, 0},     {0x1008, 0, 0},
        {0x7FFF0000, 1, 0}, {0x7FFEFFF0, 2, 0}, {0x10C00010, 0, 1},
        {0x10C00014, 1, 1}, {0x1000, 2, 0},
    };
    expectRoundTrip(recs, 4096, "pt_packed_one.ptpk");
}

TEST(PackedTrace, MultiBlockRoundTrip)
{
    // A tiny block capacity forces many blocks and exercises the
    // per-block chain restarts.
    std::vector<TraceRecord> recs;
    for (u32 i = 0; i < 1000; ++i) {
        recs.push_back({0x00400000 + i * 4, 0, 0});
        if (i % 3 == 0)
            recs.push_back({0x7FFF0000 - (i % 64) * 4, 1, 0});
        if (i % 5 == 0)
            recs.push_back({0x10C00000 + (i % 128) * 2, 2, 1});
    }
    expectRoundTrip(recs, 8, "pt_packed_multi.ptpk");
}

TEST(PackedTrace, AllKindsClassesAndExtremes)
{
    std::vector<TraceRecord> recs;
    for (u8 kind = 0; kind <= 2; ++kind)
        for (u8 cls = 0; cls <= 1; ++cls)
            recs.push_back({0x2000u + kind * 16u + cls, kind, cls});
    // Address extremes, descending runs, exact repeats, region hops.
    recs.push_back({0x00000000, 0, 0});
    recs.push_back({0xFFFFFFFF, 2, 1});
    recs.push_back({0x00000000, 1, 0});
    for (u32 i = 0; i < 40; ++i)
        recs.push_back({0xFFFFFF00u - i * 8, 1, 0});
    for (u32 i = 0; i < 40; ++i)
        recs.push_back({(i % 8) << 28, 0, 0});
    for (u32 i = 0; i < 10; ++i)
        recs.push_back({0x5555AAAA, 2, 0});
    expectRoundTrip(recs, 16, "pt_packed_kinds.ptpk");
}

TEST(PackedTrace, WriterClampsOutOfRangeKinds)
{
    std::string path = tmpPath("pt_packed_clamp.ptpk");
    {
        PackedTraceWriter w(path);
        ASSERT_TRUE(w.ok());
        w.add(0x100, 7, 9); // clamped to kind 2, cls 1
        std::string err;
        ASSERT_TRUE(w.close(&err)) << err;
    }
    std::vector<TraceRecord> back;
    ASSERT_TRUE(decodeAll(path, back).ok());
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].kind, 2);
    EXPECT_EQ(back[0].cls, 1);
    std::remove(path.c_str());
}

TEST(PackedTrace, SeekBlockRandomAccess)
{
    std::vector<TraceRecord> recs = syntheticRecords(1000);
    std::string path = tmpPath("pt_packed_seek.ptpk");
    writePacked(path, recs, 64);

    PackedTraceReader r;
    ASSERT_TRUE(r.open(path).ok());
    ASSERT_GT(r.blockCount(), 3u);
    // Records before block 2 per the index.
    u64 skip = r.blockIndex()[0].count + r.blockIndex()[1].count;
    ASSERT_TRUE(r.seekBlock(2).ok());
    std::vector<TraceRecord> block;
    ASSERT_TRUE(r.nextBlock(block));
    ASSERT_FALSE(block.empty());
    for (std::size_t i = 0; i < block.size(); ++i) {
        ASSERT_TRUE(sameRecord(
            block[i], recs[static_cast<std::size_t>(skip) + i]));
    }
    // Seeking to blockCount positions the stream at the footer.
    ASSERT_TRUE(r.seekBlock(r.blockCount()).ok());
    EXPECT_FALSE(r.nextBlock(block));
    EXPECT_TRUE(r.status().ok()) << r.status().message();
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Size: the packed format must beat the raw 6 B/ref encoding (the
// retired PTTR layout) by >= 3x on the Fig 7 synthetic desktop trace
// (acceptance criterion).

TEST(PackedTrace, CompressesFig7SyntheticTraceThreeFold)
{
    std::vector<TraceRecord> recs = syntheticRecords(200'000);
    std::string packed = tmpPath("pt_packed_fig7.ptpk");
    writePacked(packed, recs);
    u64 packedBytes = readFileBytes(packed).size();
    u64 rawBytes = 8 + 6 * recs.size(); // PTTR header + records
    double ratio = static_cast<double>(rawBytes) /
                   static_cast<double>(packedBytes);
    EXPECT_GE(ratio, 3.0) << packedBytes << " packed bytes vs "
                          << rawBytes << " raw";
    std::remove(packed.c_str());
}

// ---------------------------------------------------------------------
// Corruption and truncation: every damaged input must surface a
// structured LoadError — never a crash, hang, or unbounded
// allocation (run under ASan in CI).

/** A small reference file whose every byte gets attacked below. */
std::vector<u8>
corpusBytes(std::string &path)
{
    path = tmpPath("pt_packed_corpus.ptpk");
    std::vector<TraceRecord> recs = syntheticRecords(200);
    writePacked(path, recs, 32);
    return readFileBytes(path);
}

TEST(PackedTraceCorruption, EveryTruncationFailsCleanly)
{
    std::string path;
    std::vector<u8> good = corpusBytes(path);
    std::vector<TraceRecord> expect;
    ASSERT_TRUE(decodeAll(path, expect).ok());

    std::string cut = tmpPath("pt_packed_cut.ptpk");
    for (std::size_t len = 0; len < good.size(); ++len) {
        writeFileBytes(
            cut, std::vector<u8>(good.begin(),
                                 good.begin() +
                                     static_cast<std::ptrdiff_t>(len)));
        std::vector<TraceRecord> out;
        LoadResult res = decodeAll(cut, out);
        EXPECT_FALSE(res.ok())
            << "truncation to " << len << " bytes decoded "
            << out.size() << " records";
    }
    std::remove(cut.c_str());
    std::remove(path.c_str());
}

TEST(PackedTraceCorruption, EveryByteFlipFailsOrDecodesIdentically)
{
    std::string path;
    std::vector<u8> good = corpusBytes(path);
    std::vector<TraceRecord> expect;
    ASSERT_TRUE(decodeAll(path, expect).ok());

    // Flipping any single byte must either produce a structured
    // error or (if some checksum ever collided) the identical
    // records; silent wrong data is the one unacceptable outcome.
    std::string bad = tmpPath("pt_packed_flip.ptpk");
    for (std::size_t i = 0; i < good.size(); ++i) {
        std::vector<u8> mut = good;
        mut[i] ^= 0x5A;
        writeFileBytes(bad, mut);
        std::vector<TraceRecord> out;
        LoadResult res = decodeAll(bad, out);
        if (res.ok()) {
            ASSERT_EQ(out.size(), expect.size()) << "flip at " << i;
            for (std::size_t j = 0; j < out.size(); ++j) {
                ASSERT_TRUE(sameRecord(out[j], expect[j]))
                    << "flip at byte " << i;
            }
        }
    }
    std::remove(bad.c_str());
    std::remove(path.c_str());
}

TEST(PackedTraceCorruption, HugeBlockCapacityRejectedAtOpen)
{
    std::string path;
    std::vector<u8> good = corpusBytes(path);
    // FileHeader.blockCapacity lives at offset 8.
    good[8] = 0xFF;
    good[9] = 0xFF;
    good[10] = 0xFF;
    good[11] = 0x7F;
    std::string bad = tmpPath("pt_packed_cap.ptpk");
    writeFileBytes(bad, good);
    PackedTraceReader r;
    LoadResult res = r.open(bad);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().field, "blockCapacity");
    std::remove(bad.c_str());
    std::remove(path.c_str());
}

TEST(PackedTraceCorruption, PayloadLengthBombRejected)
{
    std::string path;
    std::vector<u8> good = corpusBytes(path);
    // First block header at offset 16; payloadLen is its u64 at +8.
    // Claim a multi-GB payload: the reader must reject it from the
    // footer bounds before allocating anything.
    for (int b = 0; b < 8; ++b)
        good[16 + 8 + b] = b < 5 ? 0xFF : 0;
    std::string bad = tmpPath("pt_packed_bomb.ptpk");
    writeFileBytes(bad, good);
    std::vector<TraceRecord> out;
    LoadResult res = decodeAll(bad, out);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().field, "payloadLen");
    std::remove(bad.c_str());
    std::remove(path.c_str());
}

TEST(PackedTraceCorruption, NotATraceFile)
{
    std::string bad = tmpPath("pt_packed_garbage.ptpk");
    writeFileBytes(bad, std::vector<u8>(200, 0x42));
    PackedTraceReader r;
    LoadResult res = r.open(bad);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().field, "magic");
    std::remove(bad.c_str());
}

TEST(PackedTraceCorruption, MissingFile)
{
    PackedTraceReader r;
    EXPECT_FALSE(r.open("/nonexistent/trace.ptpk").ok());
}

// ---------------------------------------------------------------------
// Dinero hardening: overlong lines must not shed spurious
// references, malformed lines are counted.

TEST(DineroHardening, OverlongCommentTailIsNotParsed)
{
    // A comment far longer than the 256-byte read buffer whose tail,
    // if re-parsed as a fresh line, would look like a valid
    // reference.
    std::string text = "# ";
    text.append(400, 'x');
    text += "\n2 400100\n";
    // Insert a decoy "1 beef" where the buffer split lands.
    text.insert(250, " 1 beef ");
    std::string path = tmpPath("pt_din_longcomment.din");
    {
        std::ofstream out(path);
        out << text;
    }
    std::vector<std::pair<Addr, u8>> refs;
    trace::DineroStats st;
    s64 n = trace::readDineroFile(
        path, [&](Addr a, u8 l) { refs.push_back({a, l}); }, &st);
    EXPECT_EQ(n, 1);
    ASSERT_EQ(refs.size(), 1u);
    EXPECT_EQ(refs[0].first, 0x400100u);
    EXPECT_EQ(st.overlong, 1u);
    EXPECT_EQ(st.malformed, 0u);
    std::remove(path.c_str());
}

TEST(DineroHardening, OverlongRefLineKeepsHeadDropsTail)
{
    // The reference itself fits in the head fragment; the overlong
    // trailing junk must not become extra references.
    std::string line = "2 400104 ";
    line.append(300, 'z');
    std::string path = tmpPath("pt_din_longref.din");
    {
        std::ofstream out(path);
        out << line << "\n0 10ab4\n";
    }
    std::vector<Addr> addrs;
    trace::DineroStats st;
    s64 n = trace::readDineroFile(
        path, [&](Addr a, u8) { addrs.push_back(a); }, &st);
    EXPECT_EQ(n, 2);
    EXPECT_EQ(addrs, (std::vector<Addr>{0x400104, 0x10AB4}));
    EXPECT_EQ(st.overlong, 1u);
    std::remove(path.c_str());
}

TEST(DineroHardening, MalformedLinesCountedNotEmitted)
{
    const char *text = "bogus\n"
                       "7 1234\n"     // label out of range
                       "2\n"          // missing address
                       "2 zz\n"       // bad hex
                       "1 100000000\n" // address overflows 32 bits
                       "212 400100\n" // label glued to address? no:
                                      // 212 > 2, rejected
                       "2 400100\n";
    trace::DineroStats st;
    std::vector<Addr> addrs;
    s64 n = trace::readDineroText(
        text, [&](Addr a, u8) { addrs.push_back(a); }, &st);
    EXPECT_EQ(n, 1);
    EXPECT_EQ(addrs, (std::vector<Addr>{0x400100}));
    EXPECT_EQ(st.malformed, 6u);
    EXPECT_EQ(st.overlong, 0u);
}

// ---------------------------------------------------------------------
// Determinism: feeding the sweep from a packed file must be
// bit-identical to feeding the same records from memory, at any job
// count (§9 determinism contract extended to streamed traces).

bool
sameStats(const cache::CacheStats &a, const cache::CacheStats &b)
{
    return a.accesses == b.accesses && a.misses == b.misses &&
           a.evictions == b.evictions &&
           a.ramAccesses == b.ramAccesses &&
           a.ramMisses == b.ramMisses &&
           a.flashAccesses == b.flashAccesses &&
           a.flashMisses == b.flashMisses;
}

TEST(PackedSweepDifferential, BitIdenticalToInMemoryAtJobs1And8)
{
    std::vector<TraceRecord> recs = syntheticRecords(60'000);
    // Mark a slice as flash so both backing-store paths are live.
    for (std::size_t i = 0; i < recs.size(); i += 7)
        recs[i].cls = 1;
    std::string path = tmpPath("pt_packed_diff.ptpk");
    writePacked(path, recs, 512);

    auto configs = cache::CacheSweep::paper56();
    for (unsigned jobs : {1u, 8u}) {
        cache::CacheSweep mem(configs, jobs);
        for (const auto &r : recs)
            mem.feed(r.addr, r.cls == 1);
        mem.finish();

        workload::PackedSweepResult packed =
            workload::sweepPackedFile(path, configs, jobs);
        ASSERT_TRUE(packed.status.ok()) << packed.status.message();
        EXPECT_EQ(packed.refs, recs.size());
        ASSERT_EQ(packed.caches.size(), mem.caches().size());
        for (std::size_t i = 0; i < packed.caches.size(); ++i) {
            EXPECT_TRUE(sameStats(packed.caches[i].stats(),
                                  mem.caches()[i].stats()))
                << "config "
                << packed.caches[i].config().name()
                << " at jobs=" << jobs;
        }
    }
    std::remove(path.c_str());
}

TEST(PackedSweepDifferential, MidStreamCorruptionSurfacesAsError)
{
    std::vector<TraceRecord> recs = syntheticRecords(5'000);
    std::string path = tmpPath("pt_packed_midcorrupt.ptpk");
    writePacked(path, recs, 256);
    std::vector<u8> bytes = readFileBytes(path);
    // Damage a payload byte in the middle of the file (inside some
    // block, far from header and footer).
    bytes[bytes.size() / 2] ^= 0xFF;
    writeFileBytes(path, bytes);

    workload::PackedSweepResult res = workload::sweepPackedFile(
        path, cache::CacheSweep::paper56(), 1);
    EXPECT_FALSE(res.status.ok());
    EXPECT_TRUE(res.caches.empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace pt
