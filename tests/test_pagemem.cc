/**
 * @file
 * Page-block memory tests (DESIGN.md §16): singleton page sharing,
 * copy-on-write isolation between sibling images and sibling devices,
 * the page-hash fingerprint against a flat recompute, dirty-aware
 * clearRam, and concurrent page sharing across fleet-style workers
 * (a TSan target).
 */

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/fnv.h"
#include "device/device.h"
#include "device/map.h"
#include "device/pagemem.h"
#include "device/snapshot.h"
#include "m68k/busif.h"
#include "os/pilotos.h"

namespace pt
{
namespace
{

using device::kMemPageSize;
using device::PagedImage;

/** Recomputes PagedImage::fingerprint() from flat bytes alone — the
 *  definition the cached page hashes must never drift from. */
u64
flatFingerprint(const std::vector<u8> &flat)
{
    Fnv64 f;
    f.updateValue(static_cast<u64>(flat.size()));
    u8 buf[kMemPageSize];
    for (std::size_t off = 0; off < flat.size(); off += kMemPageSize) {
        const std::size_t take =
            std::min<std::size_t>(kMemPageSize, flat.size() - off);
        std::memset(buf, 0, sizeof(buf)); // tail-padding invariant
        std::memcpy(buf, flat.data() + off, take);
        f.updateValue(fnv64(buf, kMemPageSize));
    }
    return f.value();
}

TEST(PageMem, SingletonPagesAreProcessWide)
{
    EXPECT_EQ(device::zeroPage(), device::zeroPage());
    EXPECT_EQ(device::erasedPage(), device::erasedPage());
    for (std::size_t i = 0; i < kMemPageSize; ++i) {
        ASSERT_EQ(device::zeroPage()->bytes[i], 0x00);
        ASSERT_EQ(device::erasedPage()->bytes[i], 0xFF);
    }
}

TEST(PageMem, FromBytesSharesZeroChunks)
{
    std::vector<u8> flat(3 * kMemPageSize, 0);
    flat[kMemPageSize + 5] = 0xAB; // only the middle page is dirty
    PagedImage img = PagedImage::fromBytes(flat);
    ASSERT_EQ(img.pageCount(), 3u);
    EXPECT_TRUE(img.pageIsZero(0));
    EXPECT_FALSE(img.pageIsZero(1));
    EXPECT_TRUE(img.pageIsZero(2));
    EXPECT_EQ(img.bytes(), flat);
}

TEST(PageMem, AssignSharesOneTemplatePage)
{
    PagedImage img;
    img.assign(4 * kMemPageSize, 0x5A);
    ASSERT_EQ(img.pageCount(), 4u);
    EXPECT_EQ(img.page(0), img.page(1)); // one template, shared
    EXPECT_EQ(img.page(0), img.page(3));
    EXPECT_EQ(img[3 * kMemPageSize + 7], 0x5A);

    img.assign(2 * kMemPageSize, 0);
    EXPECT_TRUE(img.pageIsZero(0));
    EXPECT_TRUE(img.pageIsZero(1));
}

TEST(PageMem, TailBeyondSizeIsZeroPadded)
{
    std::vector<u8> flat(kMemPageSize + 1, 0xAA);
    PagedImage img = PagedImage::fromBytes(flat);
    ASSERT_EQ(img.pageCount(), 2u);
    for (std::size_t i = 1; i < kMemPageSize; ++i)
        ASSERT_EQ(img.page(1)->bytes[i], 0x00);
    // Padding makes equality well defined page by page.
    PagedImage other;
    other.assign(flat.size(), 0);
    for (std::size_t i = 0; i < flat.size(); ++i)
        other[i] = 0xAA;
    EXPECT_EQ(img, other);
}

TEST(PageMem, CopyOnWriteIsolatesSiblingImages)
{
    std::vector<u8> flat(4 * kMemPageSize, 0);
    flat[10] = 0x11;
    PagedImage a = PagedImage::fromBytes(flat);
    PagedImage b = a; // shares every page

    b[kMemPageSize + 3] = 0x42;
    EXPECT_EQ(b[kMemPageSize + 3], 0x42);
    EXPECT_EQ(a[kMemPageSize + 3], 0x00); // no leak into the sibling
    // Only the written page diverged; the rest still share storage.
    EXPECT_EQ(a.page(0), b.page(0));
    EXPECT_NE(a.page(1), b.page(1));
    EXPECT_EQ(a.page(2), b.page(2));
    EXPECT_EQ(a.page(3), b.page(3));
}

TEST(PageMem, IdenticalStoresKeepPagesShared)
{
    PagedImage img;
    img.assign(2 * kMemPageSize, 0);
    img.setByte(5, 0x00); // stores the value already there
    EXPECT_TRUE(img.pageIsZero(0));

    std::vector<u8> zeros(kMemPageSize, 0);
    img.write(kMemPageSize, zeros.data(), zeros.size());
    EXPECT_TRUE(img.pageIsZero(1)); // memcmp-skip kept the share
}

TEST(PageMem, EqualityComparesSharedAndPrivatePages)
{
    std::vector<u8> flat(2 * kMemPageSize, 0);
    flat[100] = 0x77;
    PagedImage a = PagedImage::fromBytes(flat);
    PagedImage b = PagedImage::fromBytes(flat); // private twin pages
    EXPECT_EQ(a, b);
    b[100] = 0x78;
    EXPECT_NE(a, b);
    b[100] = 0x77;
    EXPECT_EQ(a, b);
}

TEST(PageMem, FingerprintMatchesFlatRecompute)
{
    std::vector<u8> flat(5 * kMemPageSize + 123, 0);
    flat[0] = 0x01;
    flat[2 * kMemPageSize + 9] = 0xEE;
    flat[flat.size() - 1] = 0x99;
    PagedImage img = PagedImage::fromBytes(flat);
    EXPECT_EQ(img.fingerprint(), flatFingerprint(flat));
    // A second call hits the cached page hashes — same value.
    EXPECT_EQ(img.fingerprint(), flatFingerprint(flat));

    // Mutating a page resets its cached hash: the fingerprint tracks
    // the new bytes, again matching the flat recompute.
    img[3] = 0xB2;
    flat[3] = 0xB2;
    EXPECT_EQ(img.fingerprint(), flatFingerprint(flat));
}

TEST(CowIsolation, SiblingDevicesDivergeOnlyInWrittenPages)
{
    device::Device a;
    os::setupDevice(a);
    a.runUntilIdle();
    device::Snapshot snap = device::Snapshot::capture(a);

    device::Device b, c;
    snap.restore(b);
    snap.restore(c);
    EXPECT_EQ(b.bus().dirtyPages(), 0u); // restore shares, not copies
    EXPECT_EQ(c.bus().dirtyPages(), 0u);

    const Addr addr = 0x00123456;
    const u8 before = b.bus().peek8(addr);
    b.bus().write8(addr, static_cast<u8>(before ^ 0x5A));

    EXPECT_EQ(b.bus().peek8(addr), static_cast<u8>(before ^ 0x5A));
    EXPECT_EQ(c.bus().peek8(addr), before); // sibling untouched
    EXPECT_EQ(snap.ram[addr], before);      // snapshot untouched
    EXPECT_EQ(b.bus().dirtyPages(), 1u);    // exactly one private page
    EXPECT_EQ(c.bus().dirtyPages(), 0u);
}

TEST(CowIsolation, CaptureFreezesWriteOwnership)
{
    device::Device dev;
    device::Bus &bus = dev.bus();
    bus.write8(0x1000, 0x11);
    PagedImage before = bus.captureRam();
    // The capture dropped write ownership: this store must shadow the
    // page, not mutate the captured image.
    bus.write8(0x1000, 0x22);
    EXPECT_EQ(before[0x1000], 0x11);
    EXPECT_EQ(bus.peek8(0x1000), 0x22);
    EXPECT_EQ(bus.captureRam()[0x1000], 0x22);
}

TEST(CowIsolation, ClearRamIsDirtyAwareAndExact)
{
    device::Device dev;
    device::Bus &bus = dev.bus();
    // Dirty a handful of scattered pages.
    for (Addr a : {Addr(0x100), Addr(0x40000), Addr(0xF00000)})
        bus.write8(a, 0x77);
    EXPECT_EQ(bus.dirtyPages(), 3u);

    bus.clearRam();
    EXPECT_EQ(bus.dirtyPages(), 0u); // every page back to the singleton

    // The cleared image is bit-identical to pristine zero RAM, and its
    // page-hash fingerprint matches a full flat scan of 16 MB zeros.
    PagedImage cleared = bus.captureRam();
    PagedImage pristine;
    pristine.assign(device::kRamSize, 0);
    EXPECT_EQ(cleared, pristine);
    EXPECT_EQ(cleared.fingerprint(),
              flatFingerprint(std::vector<u8>(device::kRamSize, 0)));
}

TEST(CowIsolation, SnapshotFingerprintMatchesFullScan)
{
    device::Device dev;
    os::setupDevice(dev);
    dev.io().buttonsSet(device::Btn::App1);
    dev.runUntilIdle();
    dev.io().buttonsSet(0);
    dev.runUntilIdle();
    device::Snapshot snap = device::Snapshot::capture(dev);

    // The cached page hashes must reproduce exactly the fingerprint a
    // flat scan of the full 16 MB + 4 MB images computes.
    EXPECT_EQ(snap.ram.fingerprint(), flatFingerprint(snap.ram.bytes()));
    EXPECT_EQ(snap.rom.fingerprint(), flatFingerprint(snap.rom.bytes()));
}

TEST(CowIsolation, SharedRomPokeDoesNotLeakToSibling)
{
    device::Device a, b;
    os::setupDevice(a);
    os::setupDevice(b); // both share the process ROM pages
    // Stay inside the built ROM image so the shared PagedImage can be
    // indexed for the leak check below.
    const Addr addr = device::kRomBase + 0x123;
    ASSERT_LT(0x123u, os::builtRomPaged().size());
    const u8 orig = a.bus().peek8(addr);

    a.bus().poke8(addr, static_cast<u8>(orig + 1));
    EXPECT_EQ(a.bus().peek8(addr), static_cast<u8>(orig + 1));
    EXPECT_EQ(b.bus().peek8(addr), orig);
    EXPECT_EQ(os::builtRomPaged()[addr - device::kRomBase], orig);
}

TEST(CowIsolation, OversizedImageLoadClampsInsteadOfAborting)
{
    device::Device dev;
    device::Bus &bus = dev.bus();
    PagedImage big;
    big.assign(device::kRamSize + kMemPageSize, 0x3C);
    bus.loadRam(big); // must clamp with a warning, not die
    EXPECT_EQ(bus.peek8(device::kRamSize - 1), 0x3C);

    PagedImage bigRom;
    bigRom.assign(device::kRomSize + kMemPageSize, 0xD4);
    bus.loadRom(bigRom);
    EXPECT_EQ(bus.peek8(device::kRomBase + device::kRomSize - 1), 0xD4);
}

TEST(CowIsolation, ConcurrentFleetWorkersShareSafely)
{
    // Fleet shape: one shared snapshot, N workers each restoring it
    // into a private device, diverging, and fingerprinting — all
    // touching the same shared pages (and their cachedHash atomics)
    // concurrently. Run under TSan this is the page-store race check.
    device::Device seedDev;
    os::setupDevice(seedDev);
    seedDev.runUntilIdle();
    device::Snapshot snap = device::Snapshot::capture(seedDev);
    const u64 baseFp = snap.fingerprint();

    constexpr int kWorkers = 4;
    std::vector<u64> fps(kWorkers, 0);
    std::vector<std::thread> threads;
    threads.reserve(kWorkers);
    for (int t = 0; t < kWorkers; ++t) {
        threads.emplace_back([&, t] {
            device::Device dev;
            snap.restore(dev);
            // Hash the shared pages from every worker at once.
            fps[static_cast<std::size_t>(t)] =
                device::Snapshot::capture(dev).fingerprint();
            // Then diverge: private writes must stay private.
            dev.bus().write8(0x2000 + static_cast<Addr>(t), 0xA0);
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kWorkers; ++t)
        EXPECT_EQ(fps[static_cast<std::size_t>(t)], baseFp);
    EXPECT_EQ(snap.fingerprint(), baseFp); // snapshot never mutated
}

} // namespace
} // namespace pt
