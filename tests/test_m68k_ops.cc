/**
 * @file
 * Extended MC68000 instruction coverage: condition-code sweeps for
 * Scc/Bcc (parameterized), shifts and rotates with flag semantics,
 * extended arithmetic (ADDX/SUBX/CMPM), BCD, MOVEP, EXG, TAS, CHK,
 * and division overflow.
 */

#include <type_traits>

#include <gtest/gtest.h>

#include "m68k/codebuilder.h"
#include "m68k/cpu.h"
#include "testutil.h"

namespace pt
{
namespace
{

using m68k::CodeBuilder;
using m68k::Cond;
using m68k::Size;
using m68k::Sr;
using test::CpuHarness;
using namespace m68k::ops;

/** Runs a snippet and returns D0 afterwards. */
u32
runForD0(const std::function<void(CodeBuilder &)> &emit)
{
    CpuHarness h;
    auto b = test::codeAt();
    emit(b);
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_FALSE(h.cpu.halted());
    return h.cpu.d(0);
}

// --- conditions ------------------------------------------------------

// gtest names each case by the raw bytes of its parameter, so the
// padding is spelled out and zeroed: implicit padding would carry stack
// garbage and give the same case a different name on every run.
struct CondCase
{
    CondCase(Cond c, u32 l, u32 r, bool t, const char *n)
        : cond(c), lhs(l), rhs(r), expectTrue(t), name(n)
    {
    }

    Cond cond;
    u8 pad0[3] = {};
    u32 lhs, rhs;  // CMP.L #rhs,lhs-in-d1 evaluates d1 - rhs
    bool expectTrue;
    u8 pad1[3] = {};
    const char *name;
};
static_assert(std::has_unique_object_representations_v<CondCase>,
              "CondCase must have no implicit padding");

class CondSweep : public testing::TestWithParam<CondCase>
{
};

TEST_P(CondSweep, SccMatchesComparisonSemantics)
{
    const auto &p = GetParam();
    u32 d0 = runForD0([&](CodeBuilder &b) {
        b.moveq(0, 0); // before the compare: MOVEQ clobbers flags
        b.move(Size::L, imm(p.lhs), dr(1));
        b.cmpi(Size::L, p.rhs, dr(1));
        b.scc(p.cond, dr(0)); // 0xFF when true
    });
    EXPECT_EQ((d0 & 0xFF) == 0xFF, p.expectTrue) << p.name;
}

TEST_P(CondSweep, BccMatchesComparisonSemantics)
{
    const auto &p = GetParam();
    u32 d0 = runForD0([&](CodeBuilder &b) {
        auto taken = b.newLabel();
        auto done = b.newLabel();
        b.move(Size::L, imm(p.lhs), dr(1));
        b.cmpi(Size::L, p.rhs, dr(1));
        b.bcc(p.cond, taken);
        b.moveq(0, 0);
        b.bra(done);
        b.bind(taken);
        b.moveq(1, 0);
        b.bind(done);
    });
    EXPECT_EQ(d0 == 1, p.expectTrue) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    Comparisons, CondSweep,
    testing::Values(
        CondCase{Cond::EQ, 5, 5, true, "eq-equal"},
        CondCase{Cond::EQ, 5, 6, false, "eq-diff"},
        CondCase{Cond::NE, 5, 6, true, "ne-diff"},
        CondCase{Cond::NE, 5, 5, false, "ne-equal"},
        CondCase{Cond::HI, 6, 5, true, "hi-above"},
        CondCase{Cond::HI, 5, 5, false, "hi-equal"},
        CondCase{Cond::LS, 5, 5, true, "ls-equal"},
        CondCase{Cond::LS, 6, 5, false, "ls-above"},
        CondCase{Cond::CC, 6, 5, true, "cc-nocarry"},
        CondCase{Cond::CS, 5, 6, true, "cs-borrow"},
        CondCase{Cond::GT, 6, 5, true, "gt-above"},
        CondCase{Cond::GT, 5, 0xFFFFFFFF, true, "gt-vs-neg"},
        CondCase{Cond::LT, 0xFFFFFFFF, 5, true, "lt-neg"},
        CondCase{Cond::GE, 5, 5, true, "ge-equal"},
        CondCase{Cond::LE, 0xFFFFFFFE, 0xFFFFFFFF, true, "le-neg"},
        CondCase{Cond::MI, 0x80000000, 0, true, "mi-negresult"},
        CondCase{Cond::PL, 5, 3, true, "pl-positive"},
        CondCase{Cond::VS, 0x80000000, 1, true, "vs-overflow"},
        CondCase{Cond::VC, 5, 1, true, "vc-clean"}),
    [](const testing::TestParamInfo<CondCase> &info) {
        std::string n = info.param.name;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// --- shifts and rotates ------------------------------------------------

TEST(CpuShift, LslShiftsOutIntoCarryAndX)
{
    CpuHarness h;
    auto b = test::codeAt();
    b.move(Size::L, imm(0x80000001), dr(0));
    b.lsl(Size::L, 1, 0);
    b.moveFromSr(absl(0xF00));
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_EQ(h.cpu.d(0), 2u);
    u16 ccr = h.bus.peek16(0xF00);
    EXPECT_TRUE(ccr & Sr::C);
    EXPECT_TRUE(ccr & Sr::X);
}

TEST(CpuShift, AsrPreservesSign)
{
    u32 d0 = runForD0([](CodeBuilder &b) {
        b.move(Size::L, imm(0x80000000), dr(0));
        b.asr(Size::L, 4, 0);
    });
    EXPECT_EQ(d0, 0xF8000000u);
}

TEST(CpuShift, LsrIsLogical)
{
    u32 d0 = runForD0([](CodeBuilder &b) {
        b.move(Size::L, imm(0x80000000), dr(0));
        b.lsr(Size::L, 4, 0);
    });
    EXPECT_EQ(d0, 0x08000000u);
}

TEST(CpuShift, AslSetsOverflowWhenSignChanges)
{
    CpuHarness h;
    auto b = test::codeAt();
    b.move(Size::L, imm(0x40000000), dr(0));
    b.asl(Size::L, 1, 0); // sign flips 0 -> 1
    b.moveFromSr(absl(0xF00));
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_TRUE(h.bus.peek16(0xF00) & Sr::V);
}

TEST(CpuShift, RotateWrapsBits)
{
    u32 d0 = runForD0([](CodeBuilder &b) {
        b.move(Size::L, imm(0x80000001), dr(0));
        b.rol(Size::L, 1, 0);
    });
    EXPECT_EQ(d0, 0x00000003u);
    u32 d0r = runForD0([](CodeBuilder &b) {
        b.move(Size::L, imm(0x80000001), dr(0));
        b.ror(Size::L, 1, 0);
    });
    EXPECT_EQ(d0r, 0xC0000000u);
}

TEST(CpuShift, CountFromRegisterModulo64)
{
    u32 d0 = runForD0([](CodeBuilder &b) {
        b.move(Size::L, imm(0xFF), dr(0));
        b.move(Size::L, imm(68), dr(1)); // 68 % 64 = 4
        b.lslr(Size::L, 1, 0, true);
    });
    EXPECT_EQ(d0, 0xFF0u);
}

TEST(CpuShift, WordShiftOnlyTouchesLowWord)
{
    u32 d0 = runForD0([](CodeBuilder &b) {
        b.move(Size::L, imm(0xAAAA1111), dr(0));
        b.lsl(Size::W, 4, 0);
    });
    EXPECT_EQ(d0, 0xAAAA1110u);
}

// --- extended arithmetic ------------------------------------------------

TEST(CpuExtended, AddxPropagatesCarryAcrossWords)
{
    // 64-bit add: 0x00000001_FFFFFFFF + 0x00000000_00000001.
    CpuHarness h;
    auto b = test::codeAt();
    b.move(Size::L, imm(0xFFFFFFFF), dr(0)); // low a
    b.move(Size::L, imm(1), dr(1));          // high a
    b.move(Size::L, imm(1), dr(2));          // low b
    b.move(Size::L, imm(0), dr(3));          // high b
    b.add(Size::L, dr(2), dr(0));            // low: sets X
    // ADDX.L D3,D1
    b.dcw(0xD383);
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_EQ(h.cpu.d(0), 0u);
    EXPECT_EQ(h.cpu.d(1), 2u);
}

TEST(CpuExtended, SubxBorrowsAcrossWords)
{
    CpuHarness h;
    auto b = test::codeAt();
    b.move(Size::L, imm(0), dr(0));  // low a
    b.move(Size::L, imm(2), dr(1));  // high a
    b.move(Size::L, imm(1), dr(2));  // low b
    b.move(Size::L, imm(0), dr(3));  // high b
    b.sub(Size::L, dr(2), dr(0));    // low: borrow, X set
    // SUBX.L D3,D1
    b.dcw(0x9383);
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_EQ(h.cpu.d(0), 0xFFFFFFFFu);
    EXPECT_EQ(h.cpu.d(1), 1u);
}

TEST(CpuExtended, CmpmComparesPostincrement)
{
    CpuHarness h;
    h.bus.poke32(0x2000, 0x11112222);
    h.bus.poke32(0x3000, 0x11112222);
    auto b = test::codeAt();
    b.movea(Size::L, imm(0x2000), 0);
    b.movea(Size::L, imm(0x3000), 1);
    // CMPM.L (A0)+,(A1)+
    b.dcw(0xB388);
    b.moveFromSr(absl(0xF00));
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_TRUE(h.bus.peek16(0xF00) & Sr::Z);
    EXPECT_EQ(h.cpu.a(0), 0x2004u);
    EXPECT_EQ(h.cpu.a(1), 0x3004u);
}

TEST(CpuExtended, DivuOverflowSetsVAndLeavesOperand)
{
    CpuHarness h;
    auto b = test::codeAt();
    b.move(Size::L, imm(0x00FF0000), dr(0));
    b.move(Size::L, imm(1), dr(1));
    b.divu(dr(1), 0); // quotient 0xFF0000 > 0xFFFF: overflow
    b.moveFromSr(absl(0xF00));
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_EQ(h.cpu.d(0), 0x00FF0000u); // unchanged
    EXPECT_TRUE(h.bus.peek16(0xF00) & Sr::V);
}

TEST(CpuExtended, MulsIsSigned)
{
    u32 d0 = runForD0([](CodeBuilder &b) {
        b.move(Size::L, imm(0xFFFF), dr(0)); // -1 as word
        b.move(Size::L, imm(5), dr(1));
        // MULS.W D1,D0
        b.dcw(0xC1C1);
    });
    EXPECT_EQ(d0, 0xFFFFFFFBu); // -5
}

// --- BCD -----------------------------------------------------------------

TEST(CpuBcd, AbcdAddsPackedDecimal)
{
    u32 d0 = runForD0([](CodeBuilder &b) {
        b.move(Size::L, imm(0x19), dr(0)); // 19
        b.move(Size::L, imm(0x23), dr(1)); // 23
        b.andiToSr(static_cast<u16>(~Sr::X & 0xFFFF)); // clear X
        // ABCD D1,D0
        b.dcw(0xC101);
    });
    EXPECT_EQ(d0 & 0xFF, 0x42u);
}

TEST(CpuBcd, SbcdSubtractsPackedDecimal)
{
    u32 d0 = runForD0([](CodeBuilder &b) {
        b.move(Size::L, imm(0x42), dr(0));
        b.move(Size::L, imm(0x17), dr(1));
        b.andiToSr(static_cast<u16>(~Sr::X & 0xFFFF));
        // SBCD D1,D0
        b.dcw(0x8101);
    });
    EXPECT_EQ(d0 & 0xFF, 0x25u);
}

TEST(CpuBcd, AbcdCarryChains)
{
    // 99 + 01 = 00 carry 1.
    CpuHarness h;
    auto b = test::codeAt();
    b.move(Size::L, imm(0x99), dr(0));
    b.move(Size::L, imm(0x01), dr(1));
    b.andiToSr(static_cast<u16>(~Sr::X & 0xFFFF));
    b.dcw(0xC101); // ABCD D1,D0
    b.moveFromSr(absl(0xF00));
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_EQ(h.cpu.d(0) & 0xFF, 0x00u);
    EXPECT_TRUE(h.bus.peek16(0xF00) & Sr::C);
    EXPECT_TRUE(h.bus.peek16(0xF00) & Sr::X);
}

// --- misc ------------------------------------------------------------------

TEST(CpuMisc, ExgSwapsRegisters)
{
    CpuHarness h;
    auto b = test::codeAt();
    b.move(Size::L, imm(0x11), dr(2));
    b.move(Size::L, imm(0x22), dr(3));
    b.exg(dr(2), dr(3));
    b.movea(Size::L, imm(0x1000), 2);
    b.movea(Size::L, imm(0x2000), 3);
    b.exg(ar(2), ar(3));
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_EQ(h.cpu.d(2), 0x22u);
    EXPECT_EQ(h.cpu.d(3), 0x11u);
    EXPECT_EQ(h.cpu.a(2), 0x2000u);
    EXPECT_EQ(h.cpu.a(3), 0x1000u);
}

TEST(CpuMisc, MovepTransfersAlternateBytes)
{
    CpuHarness h;
    auto b = test::codeAt();
    b.movea(Size::L, imm(0x2000), 0);
    b.move(Size::L, imm(0x12345678), dr(1));
    // MOVEP.L D1,0(A0)
    b.dcw(0x03C8);
    b.dcw(0x0000);
    // MOVEP.L 0(A0),D2
    b.dcw(0x0548);
    b.dcw(0x0000);
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_EQ(h.bus.peek8(0x2000), 0x12);
    EXPECT_EQ(h.bus.peek8(0x2002), 0x34);
    EXPECT_EQ(h.bus.peek8(0x2004), 0x56);
    EXPECT_EQ(h.bus.peek8(0x2006), 0x78);
    EXPECT_EQ(h.cpu.d(2), 0x12345678u);
}

TEST(CpuMisc, TasSetsHighBitAtomically)
{
    CpuHarness h;
    h.bus.poke8(0x2000, 0x01);
    auto b = test::codeAt();
    // TAS $2000
    b.dcw(0x4AF9);
    b.dcl(0x2000);
    b.moveFromSr(absl(0xF00));
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_EQ(h.bus.peek8(0x2000), 0x81);
    EXPECT_FALSE(h.bus.peek16(0xF00) & Sr::N); // tested value 0x01
    EXPECT_FALSE(h.bus.peek16(0xF00) & Sr::Z);
}

TEST(CpuMisc, ChkTrapsWhenOutOfBounds)
{
    CpuHarness h;
    auto b = test::codeAt();
    auto handler = b.newLabel();
    auto main = b.newLabel();
    b.bra(main);
    b.bind(handler);
    b.moveq(66, 7);
    b.stop(0x2700);
    b.bind(main);
    b.move(Size::L, imm(50), dr(1)); // bound
    b.move(Size::L, imm(10), dr(0)); // within: no trap
    // CHK.W D1,D0
    b.dcw(0x4181);
    b.move(Size::L, imm(99), dr(0)); // out of bounds
    b.dcw(0x4181);
    b.stop(0x2700);
    h.load(b);
    h.bus.poke32(6 * 4, b.labelAddr(handler));
    h.run();
    EXPECT_EQ(h.cpu.d(7), 66u);
}

TEST(CpuMisc, NbcdNegatesDecimal)
{
    u32 d0 = runForD0([](CodeBuilder &b) {
        b.move(Size::L, imm(0x25), dr(0));
        b.andiToSr(static_cast<u16>(~Sr::X & 0xFFFF));
        // NBCD D0 (0 - 25 = 75 borrow)
        b.dcw(0x4800);
    });
    EXPECT_EQ(d0 & 0xFF, 0x75u);
}

TEST(CpuMisc, BitOpsOnMemoryAreByteWide)
{
    CpuHarness h;
    h.bus.poke8(0x2000, 0x00);
    auto b = test::codeAt();
    b.bset(3, absl(0x2000));
    b.bset(6, absl(0x2000));
    b.bclr(3, absl(0x2000));
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_EQ(h.bus.peek8(0x2000), 0x40);
}

TEST(CpuMisc, DynamicBitOpUsesRegisterModulo32)
{
    u32 d0 = runForD0([](CodeBuilder &b) {
        b.moveq(0, 0);
        b.move(Size::L, imm(35), dr(1)); // 35 % 32 = 3
        // BSET D1,D0
        b.dcw(0x03C0);
    });
    EXPECT_EQ(d0, 8u);
}

} // namespace
} // namespace pt
