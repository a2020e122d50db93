/**
 * @file
 * Trace-module tests: Dinero format round-trips and parsing edge
 * cases, trace buffers, tee sinks, reference counters, and the opcode
 * histogram/grouping.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "m68k/codebuilder.h"
#include "trace/dinero.h"
#include "trace/energy.h"
#include "trace/memtrace.h"
#include "trace/packedtrace.h"
#include "trace/tracediff.h"

namespace pt
{
namespace
{

using trace::DinLabel;
using trace::OpcodeHistogram;
using trace::RefCounter;
using trace::TeeSink;
using trace::TraceBuffer;

TEST(Dinero, ParsesClassicFormat)
{
    const char *text =
        "# a comment\n"
        "2 400100\n"
        "0 10aB4\n"
        "1 7fff0000\n"
        "\n"
        "bogus line\n"
        "2 400104\n";
    std::vector<std::pair<Addr, u8>> out;
    s64 n = trace::readDineroText(
        text, [&](Addr a, u8 l) { out.push_back({a, l}); });
    ASSERT_EQ(n, 4);
    EXPECT_EQ(out[0], (std::pair<Addr, u8>{0x400100, DinLabel::Fetch}));
    EXPECT_EQ(out[1], (std::pair<Addr, u8>{0x10AB4, DinLabel::Read}));
    EXPECT_EQ(out[2],
              (std::pair<Addr, u8>{0x7FFF0000, DinLabel::Write}));
    EXPECT_EQ(out[3], (std::pair<Addr, u8>{0x400104, DinLabel::Fetch}));
}

TEST(Dinero, RejectsBadLabels)
{
    s64 n = trace::readDineroText("7 1234\n-1 10\n",
                                  [](Addr, u8) { FAIL(); });
    EXPECT_EQ(n, 0);
}

TEST(Dinero, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/pt_din_test.din";
    {
        trace::DineroWriter w(path);
        ASSERT_TRUE(w.ok());
        w.emit(0x1000, DinLabel::Fetch);
        w.emit(0x2004, DinLabel::Read);
        w.emit(0x3008, DinLabel::Write);
        EXPECT_EQ(w.count(), 3u);
    }
    std::vector<Addr> addrs;
    s64 n = trace::readDineroFile(
        path, [&](Addr a, u8) { addrs.push_back(a); });
    EXPECT_EQ(n, 3);
    EXPECT_EQ(addrs, (std::vector<Addr>{0x1000, 0x2004, 0x3008}));
    std::remove(path.c_str());
}

TEST(Dinero, MissingFileReturnsError)
{
    s64 n = trace::readDineroFile("/nonexistent/trace.din",
                                  [](Addr, u8) {});
    EXPECT_EQ(n, -1);
}

TEST(RefCounterTest, SplitsByClassAndKind)
{
    RefCounter c;
    c.onRef(0x100, m68k::AccessKind::Fetch, device::RefClass::Ram);
    c.onRef(0x100, m68k::AccessKind::Write, device::RefClass::Ram);
    c.onRef(0x10C00000, m68k::AccessKind::Fetch,
            device::RefClass::Flash);
    c.onRef(0x10C00000, m68k::AccessKind::Read,
            device::RefClass::Flash);
    c.onRef(0xFFFFF000, m68k::AccessKind::Read,
            device::RefClass::Mmio); // not counted
    EXPECT_EQ(c.ramRefs(), 2u);
    EXPECT_EQ(c.flashRefs(), 2u);
    EXPECT_EQ(c.totalRefs(), 4u);
    EXPECT_EQ(c.ramFetch, 1u);
    EXPECT_EQ(c.ramWrite, 1u);
    EXPECT_EQ(c.flashFetch, 1u);
    EXPECT_EQ(c.flashRead, 1u);
    EXPECT_DOUBLE_EQ(c.flashFraction(), 0.5);
    EXPECT_DOUBLE_EQ(c.avgMemCycles(), 2.0); // (1+3)/2
}

TEST(TraceBufferTest, CapacityBoundsAndDropCount)
{
    TraceBuffer buf(3);
    for (int i = 0; i < 5; ++i)
        buf.onRef(static_cast<Addr>(i), m68k::AccessKind::Read,
                  device::RefClass::Ram);
    EXPECT_EQ(buf.records().size(), 3u);
    EXPECT_EQ(buf.droppedCount(), 2u);
}

TEST(TeeSinkTest, FansOut)
{
    RefCounter a, b;
    TeeSink tee;
    tee.add(&a);
    tee.add(&b);
    tee.onRef(0x100, m68k::AccessKind::Read, device::RefClass::Ram);
    EXPECT_EQ(a.ramRefs(), 1u);
    EXPECT_EQ(b.ramRefs(), 1u);
}

TEST(OpcodeHistogramTest, CountsAndGroups)
{
    OpcodeHistogram h;
    h.onOpcode(0x4E71, 0); // nop
    h.onOpcode(0x4E71, 2);
    h.onOpcode(0x2040, 4); // movea.l d0,a0
    EXPECT_EQ(h.totalOpcodes(), 3u);
    EXPECT_EQ(h.count(0x4E71), 2u);
    auto groups = h.byGroup();
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].first, "nop");
    EXPECT_EQ(groups[0].second, 2u);
    EXPECT_EQ(groups[1].first, "movea");
}

TEST(OpcodeGroupTest, ClassifiesRepresentativeOpcodes)
{
    EXPECT_EQ(trace::opcodeGroup(0x4E75), "rts");
    EXPECT_EQ(trace::opcodeGroup(0x4E40), "trap");
    EXPECT_EQ(trace::opcodeGroup(0x6000), "bra");
    EXPECT_EQ(trace::opcodeGroup(0x6100), "bsr");
    EXPECT_EQ(trace::opcodeGroup(0x6700), "bcc");
    EXPECT_EQ(trace::opcodeGroup(0x7001), "moveq");
    EXPECT_EQ(trace::opcodeGroup(0xD081), "add");
    EXPECT_EQ(trace::opcodeGroup(0x9081), "sub");
    EXPECT_EQ(trace::opcodeGroup(0xC0C1), "mul");
    EXPECT_EQ(trace::opcodeGroup(0x80C1), "div");
    EXPECT_EQ(trace::opcodeGroup(0xE348), "shift");
    EXPECT_EQ(trace::opcodeGroup(0x51C8), "dbcc");
    EXPECT_EQ(trace::opcodeGroup(0x5280), "addq");
    EXPECT_EQ(trace::opcodeGroup(0x0C40), "cmpi");
}

TEST(InstrEnergy, ClassifiesRepresentativeOpcodes)
{
    using trace::classifyOpcode;
    using trace::InstrClass;
    EXPECT_EQ(classifyOpcode(0x2040), InstrClass::Move);   // movea
    EXPECT_EQ(classifyOpcode(0x7001), InstrClass::Move);   // moveq
    EXPECT_EQ(classifyOpcode(0xD081), InstrClass::Alu);    // add.l
    EXPECT_EQ(classifyOpcode(0x0640), InstrClass::Alu);    // addi.w
    EXPECT_EQ(classifyOpcode(0xC0C1), InstrClass::MulDiv); // mulu
    EXPECT_EQ(classifyOpcode(0x80C1), InstrClass::MulDiv); // divu
    EXPECT_EQ(classifyOpcode(0xE348), InstrClass::Shift);  // lsl
    EXPECT_EQ(classifyOpcode(0x6700), InstrClass::Branch); // beq
    EXPECT_EQ(classifyOpcode(0x51C8), InstrClass::Branch); // dbf
    EXPECT_EQ(classifyOpcode(0x4E75), InstrClass::Control);// rts
    EXPECT_EQ(classifyOpcode(0x4E4F), InstrClass::Control);// trap
    EXPECT_EQ(classifyOpcode(0x41C0), InstrClass::Move);   // lea
    EXPECT_EQ(classifyOpcode(0x4E71), InstrClass::Misc);   // nop
}

TEST(InstrEnergy, ChargesPerClass)
{
    trace::InstructionEnergyModel m;
    for (int i = 0; i < 1000; ++i)
        m.onOpcode(0xD081, 0); // alu: 1.0 nJ each
    m.onOpcode(0x80C1, 0);     // one divu: 9.0 nJ
    EXPECT_EQ(m.totalInstructions(), 1001u);
    EXPECT_NEAR(m.totalMj(), (1000 * 1.0 + 9.0) * 1e-6, 1e-12);
    auto rows = m.breakdown();
    double shareSum = 0;
    for (const auto &r : rows)
        shareSum += r.share;
    EXPECT_NEAR(shareSum, 1.0, 1e-9);
}

TEST(InstrEnergy, ClassEnergyOverride)
{
    trace::InstructionEnergyModel m;
    m.setClassEnergy(trace::InstrClass::Alu, 5.0);
    m.onOpcode(0xD081, 0);
    EXPECT_NEAR(m.totalMj(), 5.0e-6, 1e-15);
}

// ---------------------------------------------------------------------
// diffTraces: the three-outcome contract the CI exit codes map onto

namespace diffutil
{

std::string
diffTmp(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

/** Writes @p recs as Dinero text (din keeps no RAM/flash class). */
std::string
writeDin(const std::string &name,
         const std::vector<trace::TraceRecord> &recs)
{
    std::string path = diffTmp(name);
    trace::DineroWriter w(path);
    EXPECT_TRUE(w.ok());
    for (const auto &r : recs)
        w.emit(r.addr, trace::kindToDinLabel(r.kind));
    return path;
}

std::string
writePacked(const std::string &name,
            const std::vector<trace::TraceRecord> &recs, u32 capacity)
{
    std::string path = diffTmp(name);
    trace::PackedTraceWriter w(path, capacity);
    for (const auto &r : recs)
        w.add(r);
    EXPECT_TRUE(w.close());
    return path;
}

std::string
writeBytes(const std::string &name, const std::string &bytes)
{
    std::string path = diffTmp(name);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (f) {
        EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }
    return path;
}

/** @p n records cycling the three kinds; @p classes 2 alternates
 *  RAM and flash, 1 keeps every record RAM (din's only class). */
std::vector<trace::TraceRecord>
sampleRecords(std::size_t n, unsigned classes = 2)
{
    std::vector<trace::TraceRecord> recs;
    for (std::size_t i = 0; i < n; ++i) {
        recs.push_back({static_cast<Addr>(0x1000 + i * 4),
                        static_cast<u8>(i % 3),
                        static_cast<u8>(i % classes)});
    }
    return recs;
}

} // namespace diffutil

TEST(TraceDiff, IdenticalAcrossFormats)
{
    auto recs = diffutil::sampleRecords(300, 1);
    std::string din = diffutil::writeDin("diff_a.din", recs);
    std::string packed = diffutil::writePacked("diff_a.ptpk", recs, 64);

    auto same = trace::diffTraces(packed, packed);
    EXPECT_EQ(same.outcome, trace::DiffOutcome::Identical);
    EXPECT_EQ(same.records, 300u);

    // Same record sequence in different containers is identical: the
    // diff compares records, not bytes.
    auto cross = trace::diffTraces(din, packed);
    EXPECT_EQ(cross.outcome, trace::DiffOutcome::Identical);
    EXPECT_EQ(cross.records, 300u);
}

TEST(TraceDiff, DivergenceAndLengthMismatchDiffer)
{
    auto recs = diffutil::sampleRecords(100);
    std::string a = diffutil::writePacked("diff_b1.ptpk", recs, 16);
    recs[57].addr ^= 4;
    std::string b = diffutil::writePacked("diff_b2.ptpk", recs, 16);

    auto res = trace::diffTraces(a, b);
    EXPECT_EQ(res.outcome, trace::DiffOutcome::Differ);
    EXPECT_EQ(res.records, 57u) << "stops at the first divergence";
    EXPECT_FALSE(res.detail.empty());

    // A strict prefix differs too (trailing records are a divergence).
    auto shorter = diffutil::sampleRecords(100);
    shorter.resize(80);
    std::string c = diffutil::writePacked("diff_b3.ptpk", shorter, 16);
    auto pre = trace::diffTraces(a, c);
    EXPECT_EQ(pre.outcome, trace::DiffOutcome::Differ);
    EXPECT_EQ(pre.records, 80u);
}

TEST(TraceDiff, UnreadableAndCorruptAreErrors)
{
    auto recs = diffutil::sampleRecords(20);
    std::string good = diffutil::writePacked("diff_c.ptpk", recs, 8);

    // Missing file.
    auto missing =
        trace::diffTraces(good, diffutil::diffTmp("diff_missing.ptpk"));
    EXPECT_EQ(missing.outcome, trace::DiffOutcome::Error);
    EXPECT_FALSE(missing.detail.empty());

    // Truncated PTPK: the footer index is cut off.
    std::string bad = diffutil::diffTmp("diff_trunc.ptpk");
    {
        std::FILE *src = std::fopen(good.c_str(), "rb");
        ASSERT_NE(src, nullptr);
        std::vector<unsigned char> bytes(4096);
        std::size_t n = std::fread(bytes.data(), 1, bytes.size(), src);
        std::fclose(src);
        ASSERT_GT(n, 8u);
        std::FILE *dst = std::fopen(bad.c_str(), "wb");
        ASSERT_NE(dst, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, n - 3, dst), n - 3);
        std::fclose(dst);
    }
    auto corrupt = trace::diffTraces(good, bad);
    EXPECT_EQ(corrupt.outcome, trace::DiffOutcome::Error);

    // Error wins over Differ: comparing two unreadable files is an
    // error, not a difference.
    auto both = trace::diffTraces(bad, bad);
    EXPECT_EQ(both.outcome, trace::DiffOutcome::Error);
}

TEST(TraceDiff, NonTraceFilesAreErrorsNotEmptyTraces)
{
    // A file with no trace magic is read as din, so it must parse as
    // din: a session log or snapshot is not "an empty trace".
    std::string good = diffutil::writeDin(
        "diff_d.din", diffutil::sampleRecords(10, 1));
    std::string binary = diffutil::writeBytes(
        "diff_d.snap", std::string("PTSN\x02\0\0\0\xff\x10\n\x01", 12));
    std::string text =
        diffutil::writeBytes("diff_d.txt", "2 400100\nnot a trace\n");
    std::string overlong = diffutil::writeBytes(
        "diff_d_long.din", "2 400100\n0 " + std::string(300, 'a') + "\n");

    for (const std::string &junk : {binary, text, overlong}) {
        auto self = trace::diffTraces(junk, junk);
        EXPECT_EQ(self.outcome, trace::DiffOutcome::Error) << junk;
        EXPECT_NE(self.detail.find("not a din trace"), std::string::npos)
            << self.detail;
        EXPECT_EQ(trace::diffTraces(good, junk).outcome,
                  trace::DiffOutcome::Error)
            << junk;
    }
}

TEST(TraceDiff, RetiredPttrIsRefusedByName)
{
    // A raw PTTR file (magic, count, one 6-byte record) is neither
    // read nor mistaken for din text: diff and `trace info` refuse it
    // naming the retirement.
    std::string pttr = diffutil::writeBytes(
        "diff_e.pttr",
        std::string("RTTP\x01\0\0\0\x34\x12\0\0\x00\x00", 14));
    std::string good = diffutil::writePacked(
        "diff_e.ptpk", diffutil::sampleRecords(1), 8);

    EXPECT_EQ(trace::sniffTraceFormat(pttr),
              trace::TraceFormat::RetiredPttr);
    EXPECT_NE(trace::retiredPttrError().message().find("retired"),
              std::string::npos);
    auto res = trace::diffTraces(good, pttr);
    EXPECT_EQ(res.outcome, trace::DiffOutcome::Error);
    EXPECT_NE(res.detail.find("PTTR raw traces were retired"),
              std::string::npos)
        << res.detail;
}

} // namespace
} // namespace pt
