/**
 * @file
 * The device bus: routes CPU accesses to RAM, flash ROM, or the
 * peripheral registers, and surfaces every bus transaction to an
 * optional memory-reference sink.
 *
 * This reference stream is the paper's raw material: each 16-bit (or
 * 8-bit) transaction is classified as a RAM or flash reference, the
 * split that drives the no-cache average-access-time numbers in
 * Table 1 and feeds the cache simulator for Figures 5 and 6.
 *
 * Dispatch is a flat page table (DESIGN.md §15): the address space is
 * covered by 64 KB dispatch pages whose kind — RAM, ROM, mixed, or
 * unmapped — is one table load, so the hot load/store path never
 * walks the range-classification chain. RAM and ROM pages resolve to
 * direct base-pointer accesses; the mixed top page (MMIO + the
 * unmapped hole beneath it) and unmapped pages take the slow path.
 *
 * Memory itself is held as shared copy-on-write page blocks
 * (DESIGN.md §16, device/pagemem.h): a fresh bus references the
 * process-wide zero/erased pages, loads share a snapshot's pages,
 * and the first write into a page allocates this device's private
 * copy.
 */

#ifndef PT_DEVICE_BUS_H
#define PT_DEVICE_BUS_H

#include <vector>

#include "base/types.h"
#include "device/io.h"
#include "device/map.h"
#include "device/pagemem.h"
#include "m68k/busif.h"

namespace pt::device
{

/** Classification of one bus transaction by target region. */
enum class RefClass : u8 { Ram, Flash, Mmio, Unmapped };

/** Receives every traced bus transaction. */
class MemRefSink
{
  public:
    virtual ~MemRefSink() = default;
    virtual void onRef(Addr addr, m68k::AccessKind kind,
                       RefClass cls) = 0;
};

/** The m515 system bus. */
class Bus : public m68k::BusIf
{
  public:
    explicit Bus(DragonballIo &io);

    // --- m68k::BusIf ---
    u8 read8(Addr a, m68k::AccessKind k) override;
    u16 read16(Addr a, m68k::AccessKind k) override;
    void write8(Addr a, u8 v) override;
    void write16(Addr a, u16 v) override;
    u8 peek8(Addr a) const override;
    void poke8(Addr a, u8 v) override;

    /** Installs (or clears, with nullptr) the reference sink. */
    void setRefSink(MemRefSink *sink) { refSink = sink; }

    /**
     * Enables per-transaction tracing. This is POSE's "Profiling"
     * switch: the reference counters below always run, but the sink is
     * only invoked while tracing is on.
     */
    void setTraceEnabled(bool on) { traceOn = on; }
    bool traceEnabled() const { return traceOn; }

    /**
     * Replaces the flash image, sharing the snapshot's pages
     * (O(pages), no byte copy). Flash beyond the image reads erased
     * (0xFF). Oversized images are clamped with a warning — the
     * structured rejection happens at deserialization time.
     */
    void loadRom(const PagedImage &image);
    /** Replaces the RAM image, sharing pages; RAM beyond the image
     *  reads zero. Oversized images are clamped with a warning. */
    void loadRam(const PagedImage &image);

    /** Flat-byte conveniences (ROM builders, tests). */
    void loadRom(std::vector<u8> image);
    void loadRam(std::vector<u8> image);

    /**
     * Shares the current RAM pages out as an image (O(pages), no
     * byte copy) and freezes this bus's write ownership: the next
     * guest write to any page shadows it, so the captured image is
     * immutable. Logically const — the guest-visible bytes do not
     * change.
     */
    PagedImage captureRam() const;
    /** Likewise for the flash image. */
    PagedImage captureRom() const;

    /**
     * Host-side bulk RAM store (state import). Copy-on-write like
     * any write; chunks that match the current page contents are
     * skipped so an import over cleared RAM stays O(dirty).
     */
    void writeRam(Addr off, const void *src, std::size_t len);

    /** Zeroes RAM (cold boot): every page drops back to the shared
     *  zero page — O(pages), regardless of how much was dirty. */
    void clearRam();

    /** Private (copied-on-write) pages currently held, RAM + ROM —
     *  the per-device dirty footprint in 4 KB units. */
    u32 dirtyPages() const;

    // Cumulative reference counters (always on, trace or not).
    u64 ramRefs() const { return nRam; }
    u64 flashRefs() const { return nFlash; }
    u64 mmioRefs() const { return nMmio; }
    u64 totalRefs() const { return nRam + nFlash + nMmio; }
    void resetRefCounts() { nRam = nFlash = nMmio = 0; }

  private:
    /** One 64 KB dispatch page's kind. */
    enum class PageKind : u8 { Unmapped, Ram, Rom, Mixed };

    static constexpr u32 kRamPages = kRamSize >> kMemPageShift;
    static constexpr u32 kRomPages = kRomSize >> kMemPageShift;

    RefClass classify(Addr a) const;
    /** Classifies a 16-bit transaction: both bytes must land in the
     *  same RAM/ROM region, else the access is a bus error
     *  (Unmapped) — the region-edge off-by-one fix. */
    RefClass classify16(Addr a) const;
    void note(Addr a, m68k::AccessKind k, RefClass cls);

    u8 readSlow8(Addr a, m68k::AccessKind k);
    u16 readSlow16(Addr a, m68k::AccessKind k);
    void writeSlow8(Addr a, u8 v);
    void writeSlow16(Addr a, u16 v);

    /** @return byte @p a of RAM (a must be in RAM). */
    u8
    ramByte(Addr a) const
    {
        return ramRd[a >> kMemPageShift][a & kMemPageMask];
    }
    /** @return byte @p a of flash (a must be in ROM). */
    u8
    romByte(Addr a) const
    {
        const u32 off = a - kRomBase;
        return romRd[off >> kMemPageShift][off & kMemPageMask];
    }

    /** Copies RAM page @p pg for private writing (first write after a
     *  share). */
    u8 *materializeRam(u32 pg);
    /** Likewise for flash page @p pg (ROM shadowing / host pokes). */
    u8 *materializeRom(u32 pg);

    /** @return a writable pointer to RAM byte @p a. */
    u8 *
    ramWritable(Addr a)
    {
        const u32 pg = a >> kMemPageShift;
        u8 *w = ramWr[pg];
        if (!w)
            w = materializeRam(pg);
        return w + (a & kMemPageMask);
    }

    DragonballIo &io;
    std::vector<PageRef> ramPages;  ///< shared page blocks
    std::vector<PageRef> romPages;
    std::vector<const u8 *> ramRd;  ///< hot-path read pointers
    std::vector<const u8 *> romRd;
    /** Non-null while the page is privately writable; cleared by a
     *  capture (freeze) or an image load. Mutable because capture is
     *  logically const (bytes unchanged, ownership dropped). */
    mutable std::vector<u8 *> ramWr;
    mutable std::vector<u8 *> romWr;
    std::vector<u8> pageKinds;      ///< 65536 entries, one per 64 KB
    MemRefSink *refSink = nullptr;
    bool traceOn = false;
    bool warnedRomWrite = false;
    bool warnedUnmapped = false;
    u64 nRam = 0;
    u64 nFlash = 0;
    u64 nMmio = 0;
};

} // namespace pt::device

#endif // PT_DEVICE_BUS_H
