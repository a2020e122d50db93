/**
 * @file
 * Device-model tests: bus routing and reference classification, tick
 * and RTC timekeeping, doze fast-forward, digitizer sampling, button
 * edges, and snapshot round-trips.
 */

#include <gtest/gtest.h>

#include "device/device.h"
#include "device/snapshot.h"
#include "m68k/codebuilder.h"

namespace pt
{
namespace
{

using device::Btn;
using device::Device;
using device::Irq;
using device::kMmioBase;
using device::kRomBase;
using device::Reg;
using device::RefClass;
using device::Snapshot;
using m68k::CodeBuilder;
using m68k::Cond;
using m68k::Size;
using namespace m68k::ops;

constexpr Addr kMmioTick = kMmioBase + Reg::TickCount;
constexpr Addr kMmioRtc = kMmioBase + Reg::RtcSeconds;
constexpr Addr kMmioTimerCmp = kMmioBase + Reg::TimerCmp;
constexpr Addr kMmioIntAck = kMmioBase + Reg::IntAck;
constexpr Addr kMmioPenX = kMmioBase + Reg::PenX;
constexpr Addr kMmioBtn = kMmioBase + Reg::BtnState;

/** Builds a minimal ROM: vectors + code assembled by @p body. */
template <typename F>
void
loadRom(Device &dev, F body)
{
    CodeBuilder b(kRomBase);
    auto entry = b.newLabel();
    b.dcl(0x00008000);  // initial SSP
    b.dclbl(entry);     // initial PC
    b.bind(entry);
    body(b);
    dev.bus().loadRom(b.finalize());
    dev.reset();
}

TEST(DeviceBus, ClassifiesReferences)
{
    Device dev;
    auto &bus = dev.bus();
    bus.resetRefCounts();
    bus.read16(0x1000, m68k::AccessKind::Read);           // RAM
    bus.read16(kRomBase + 0x10, m68k::AccessKind::Fetch); // flash
    bus.read16(kMmioTick, m68k::AccessKind::Read);        // MMIO
    EXPECT_EQ(bus.ramRefs(), 1u);
    EXPECT_EQ(bus.flashRefs(), 1u);
    EXPECT_EQ(bus.mmioRefs(), 1u);
    EXPECT_EQ(bus.totalRefs(), 3u);
}

TEST(DeviceBus, RomWritesIgnored)
{
    Device dev;
    dev.bus().poke8(kRomBase, 0x5A);
    dev.bus().write8(kRomBase, 0x77); // guest write: ignored
    EXPECT_EQ(dev.bus().peek8(kRomBase), 0x5A);
}

TEST(DeviceBus, PeeksDoNotCount)
{
    Device dev;
    dev.bus().resetRefCounts();
    dev.bus().peek32(0x100);
    dev.bus().poke32(0x100, 5);
    EXPECT_EQ(dev.bus().totalRefs(), 0u);
}

class CountingSink : public device::MemRefSink
{
  public:
    void
    onRef(Addr, m68k::AccessKind, RefClass cls) override
    {
        if (cls == RefClass::Ram)
            ++ram;
        else if (cls == RefClass::Flash)
            ++flash;
    }
    u64 ram = 0;
    u64 flash = 0;
};

TEST(DeviceBus, SinkOnlySeesTracedRefs)
{
    Device dev;
    CountingSink sink;
    dev.bus().setRefSink(&sink);
    dev.bus().read16(0x1000, m68k::AccessKind::Read);
    EXPECT_EQ(sink.ram, 0u); // tracing off
    dev.bus().setTraceEnabled(true);
    dev.bus().read16(0x1000, m68k::AccessKind::Read);
    dev.bus().read16(kRomBase, m68k::AccessKind::Fetch);
    EXPECT_EQ(sink.ram, 1u);
    EXPECT_EQ(sink.flash, 1u);
}

TEST(DeviceRun, GuestReadsTickCounter)
{
    Device dev;
    loadRom(dev, [](CodeBuilder &b) {
        b.move(Size::L, absl(kMmioTick), dr(0));
        b.move(Size::L, dr(0), absl(0x2000));
        b.stop(0x2700);
    });
    dev.runUntilTick(5);
    // Ticks at the time of the read were < 1 (a few instructions in).
    EXPECT_EQ(dev.bus().peek32(0x2000), 0u);
    EXPECT_GE(dev.ticks(), 5u);
}

TEST(DeviceRun, DozeFastForwardsToTimer)
{
    Device dev;
    loadRom(dev, [](CodeBuilder &b) {
        auto isr = b.newLabel();
        auto main = b.newLabel();
        b.bra(main);
        b.bind(isr);
        // Acknowledge the timer interrupt and record the tick.
        b.move(Size::W, imm(Irq::Timer), absl(kMmioIntAck));
        b.move(Size::L, imm(device::kTimerDisarmed),
               absl(kMmioTimerCmp));
        b.move(Size::L, absl(kMmioTick), absl(0x2000));
        b.rte();
        b.bind(main);
        // Install level-6 autovector, arm timer at tick 100, doze.
        b.move(Size::L, immlbl(isr), absl((24 + 6) * 4));
        b.move(Size::L, imm(100), absl(kMmioTimerCmp));
        b.stop(0x2000);
        b.move(Size::L, imm(0xAA55), absl(0x2010));
        b.stop(0x2700);
    });
    dev.runUntilTick(500);
    EXPECT_EQ(dev.bus().peek32(0x2000), 100u);       // woke at tick 100
    EXPECT_EQ(dev.bus().peek32(0x2010), 0xAA55u);    // resumed after STOP
    // Doze means almost no instructions executed across 5 seconds.
    EXPECT_LT(dev.instructionsRetired(), 200u);
}

TEST(DeviceRun, PenSamplesAtFiftyHz)
{
    Device dev;
    loadRom(dev, [](CodeBuilder &b) {
        auto isr = b.newLabel();
        auto main = b.newLabel();
        b.bra(main);
        b.bind(isr);
        b.move(Size::W, imm(Irq::Pen), absl(kMmioIntAck));
        b.addq(Size::L, 1, absl(0x2000)); // count samples
        b.move(Size::W, absl(kMmioPenX), absl(0x2004));
        b.rte();
        b.bind(main);
        b.move(Size::L, immlbl(isr), absl((24 + 5) * 4));
        auto loop = b.hereLabel();
        b.stop(0x2000);
        b.bra(loop);
    });
    dev.runUntilTick(2); // settle into doze
    dev.io().penTouch(80, 120);
    dev.runUntilTick(202); // 2 seconds: expect ~100 samples
    dev.io().penRelease();
    dev.runUntilTick(210);
    u32 samples = dev.bus().peek32(0x2000);
    EXPECT_GE(samples, 99u);
    EXPECT_LE(samples, 102u);
    EXPECT_EQ(dev.bus().peek16(0x2004), 80u);
}

TEST(DeviceRun, ButtonEdgeRaisesInterrupt)
{
    Device dev;
    loadRom(dev, [](CodeBuilder &b) {
        auto isr = b.newLabel();
        auto main = b.newLabel();
        b.bra(main);
        b.bind(isr);
        b.move(Size::W, imm(Irq::Button), absl(kMmioIntAck));
        b.move(Size::W, absl(kMmioBtn), absl(0x2000));
        b.rte();
        b.bind(main);
        b.move(Size::L, immlbl(isr), absl((24 + 4) * 4));
        auto loop = b.hereLabel();
        b.stop(0x2000);
        b.bra(loop);
    });
    dev.runUntilTick(2);
    dev.io().buttonsSet(Btn::App1);
    dev.runUntilTick(4);
    EXPECT_EQ(dev.bus().peek16(0x2000), Btn::App1);
}

TEST(DeviceRun, RtcAdvancesWithSeconds)
{
    Device dev;
    dev.io().setRtcBase(3'000'000'000u); // seconds since 1904
    loadRom(dev, [](CodeBuilder &b) { b.stop(0x2700); });
    dev.runUntilTick(300); // 3 seconds
    EXPECT_EQ(dev.io().nowRtc(), 3'000'000'003u);
}

TEST(DeviceSnapshot, CaptureRestoreRoundTrip)
{
    Device dev;
    loadRom(dev, [](CodeBuilder &b) {
        b.move(Size::L, imm(0x12345678), absl(0x4000));
        b.stop(0x2700);
    });
    dev.io().setRtcBase(1000);
    dev.runUntilTick(1);
    Snapshot snap = Snapshot::capture(dev);

    Device dev2;
    snap.restore(dev2);
    EXPECT_EQ(dev2.bus().peek32(0x4000), 0x12345678u);
    EXPECT_EQ(dev2.io().rtcBaseValue(), 1000u);
    EXPECT_EQ(dev2.ticks(), 0u); // soft reset rewound time
    EXPECT_EQ(Snapshot::capture(dev2).fingerprint(),
              snap.fingerprint());
}

TEST(DeviceSnapshot, SerializeRoundTrip)
{
    Device dev;
    loadRom(dev, [](CodeBuilder &b) {
        b.move(Size::L, imm(0xDEADBEEF), absl(0x5000));
        b.stop(0x2700);
    });
    dev.runUntilTick(1);
    Snapshot snap = Snapshot::capture(dev);
    auto bytes = snap.serialize();
    // Mostly-zero RAM should compress massively below 20 MB.
    EXPECT_LT(bytes.size(), 6u * 1024 * 1024);

    Snapshot back;
    ASSERT_TRUE(Snapshot::deserialize(bytes, back));
    EXPECT_EQ(back.fingerprint(), snap.fingerprint());
}

TEST(DeviceSnapshot, FileRoundTrip)
{
    Device dev;
    loadRom(dev, [](CodeBuilder &b) { b.stop(0x2700); });
    Snapshot snap = Snapshot::capture(dev);
    std::string path = testing::TempDir() + "/pt_snap_test.bin";
    ASSERT_TRUE(snap.save(path));
    Snapshot back;
    ASSERT_TRUE(Snapshot::load(path, back));
    EXPECT_EQ(back.fingerprint(), snap.fingerprint());
    std::remove(path.c_str());
}

TEST(DeviceRun, DeterministicAcrossRuns)
{
    auto runOnce = [] {
        Device dev;
        loadRom(dev, [](CodeBuilder &b) {
            auto isr = b.newLabel();
            auto main = b.newLabel();
            b.bra(main);
            b.bind(isr);
            b.move(Size::W, imm(Irq::Pen), absl(kMmioIntAck));
            b.addq(Size::L, 1, absl(0x2000));
            b.rte();
            b.bind(main);
            b.move(Size::L, immlbl(isr), absl((24 + 5) * 4));
            auto loop = b.hereLabel();
            b.stop(0x2000);
            b.bra(loop);
        });
        dev.runUntilTick(2);
        dev.io().penTouch(10, 20);
        dev.runUntilTick(52);
        dev.io().penRelease();
        dev.runUntilTick(60);
        return Snapshot::capture(dev).fingerprint();
    };
    EXPECT_EQ(runOnce(), runOnce());
}

// ---------------------------------------------------------------------
// Region-edge boundary contract: a 16-bit access whose two bytes land
// in different regions is a bus error (returns 0 / write ignored),
// never a one-byte-past-the-end host access. These addresses are
// exactly where the old range classifier indexed ram[kRamSize].
// ---------------------------------------------------------------------

TEST(BusBoundary, RamEdgeWordAccesses)
{
    device::Device dev;
    device::Bus &bus = dev.bus();
    bus.poke8(device::kRamSize - 2, 0xCD);
    bus.poke8(device::kRamSize - 1, 0xAB);

    u64 ram0 = bus.ramRefs();
    EXPECT_EQ(bus.read16(device::kRamSize - 2, m68k::AccessKind::Read),
              0xCDABu);
    EXPECT_EQ(bus.ramRefs(), ram0 + 1);

    // The last byte of RAM cannot start a word access: bus error.
    u64 total0 = bus.totalRefs();
    EXPECT_EQ(bus.read16(device::kRamSize - 1, m68k::AccessKind::Read),
              0u);
    EXPECT_EQ(bus.totalRefs(), total0);

    // The straddling write is ignored entirely — the old classifier
    // committed its high byte to ram[kRamSize - 1] and wrote the low
    // byte out of bounds.
    bus.write16(device::kRamSize - 1, 0xBEEF);
    EXPECT_EQ(bus.peek8(device::kRamSize - 1), 0xAB);
    EXPECT_EQ(bus.totalRefs(), total0);

    // Byte accesses to the last RAM byte remain valid.
    EXPECT_EQ(bus.read8(device::kRamSize - 1, m68k::AccessKind::Read),
              0xAB);
}

TEST(BusBoundary, RomEdgeWordAccesses)
{
    device::Device dev;
    device::Bus &bus = dev.bus();
    const Addr last = device::kRomBase + device::kRomSize - 1;
    bus.poke8(last - 1, 0x12);
    bus.poke8(last, 0x34);

    u64 flash0 = bus.flashRefs();
    EXPECT_EQ(bus.read16(last - 1, m68k::AccessKind::Read), 0x1234u);
    EXPECT_EQ(bus.flashRefs(), flash0 + 1);

    u64 total0 = bus.totalRefs();
    EXPECT_EQ(bus.read16(last, m68k::AccessKind::Read), 0u);
    EXPECT_EQ(bus.totalRefs(), total0);
    EXPECT_EQ(bus.read8(last, m68k::AccessKind::Read), 0x34);
}

TEST(BusBoundary, UnmappedHolesAndMmio)
{
    device::Device dev;
    device::Bus &bus = dev.bus();

    // First byte past RAM, last byte before ROM: both unmapped.
    u64 total0 = bus.totalRefs();
    EXPECT_EQ(bus.read8(device::kRamSize, m68k::AccessKind::Read), 0u);
    EXPECT_EQ(bus.read8(device::kRomBase - 1, m68k::AccessKind::Read),
              0u);
    // The hole just below the MMIO window in the mixed top page.
    EXPECT_EQ(bus.read16(0xFFFFEFFEu, m68k::AccessKind::Read), 0u);
    EXPECT_EQ(bus.totalRefs(), total0);

    // MMIO still decodes, including the very top register word.
    u64 mmio0 = bus.mmioRefs();
    bus.read16(device::kMmioBase + device::Reg::IntStat,
               m68k::AccessKind::Read);
    bus.read16(0xFFFFFFFEu, m68k::AccessKind::Read);
    EXPECT_EQ(bus.mmioRefs(), mmio0 + 2);
}

TEST(BusBoundary, OddInteriorWordAccessesPreserved)
{
    // Interior odd word accesses (not at a region edge) keep their
    // historical byte-pair semantics.
    device::Device dev;
    device::Bus &bus = dev.bus();
    bus.poke8(0x2001, 0x11);
    bus.poke8(0x2002, 0x22);
    EXPECT_EQ(bus.read16(0x2001, m68k::AccessKind::Read), 0x1122u);
    bus.write16(0x3001, 0xA55A);
    EXPECT_EQ(bus.peek8(0x3001), 0xA5);
    EXPECT_EQ(bus.peek8(0x3002), 0x5A);
}

} // namespace
} // namespace pt
