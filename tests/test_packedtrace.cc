/**
 * @file
 * Packed trace (PTPK) tests: round-trips across block shapes and
 * record mixes, corruption/truncation robustness for every frame
 * field (structured LoadErrors, bounded allocation, no crashes),
 * hardened Dinero parsing, and the differential proof that a
 * packed-fed sweep is bit-identical to the in-memory sweep at jobs
 * in {1, 8}.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.h"
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
