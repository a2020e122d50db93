#include "bus.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"

namespace pt::device
{

Bus::Bus(DragonballIo &io)
    : io(io), ramPages(kRamPages, zeroPage()),
      romPages(kRomPages, erasedPage()), ramRd(kRamPages),
      romRd(kRomPages), ramWr(kRamPages, nullptr),
      romWr(kRomPages, nullptr),
      pageKinds(1u << 16, static_cast<u8>(PageKind::Unmapped))
{
    for (u32 pg = 0; pg < kRamPages; ++pg)
        ramRd[pg] = ramPages[pg]->bytes;
    for (u32 pg = 0; pg < kRomPages; ++pg)
        romRd[pg] = romPages[pg]->bytes;
    for (Addr p = kRamBase >> 16; p < (kRamBase + kRamSize) >> 16; ++p)
        pageKinds[p] = static_cast<u8>(PageKind::Ram);
    for (Addr p = kRomBase >> 16; p < (kRomBase + kRomSize) >> 16; ++p)
        pageKinds[p] = static_cast<u8>(PageKind::Rom);
    // The top page holds the MMIO window above an unmapped hole.
    pageKinds[kMmioBase >> 16] = static_cast<u8>(PageKind::Mixed);
}

RefClass
Bus::classify(Addr a) const
{
    if (inRam(a))
        return RefClass::Ram;
    if (inRom(a))
        return RefClass::Flash;
    if (inMmio(a))
        return RefClass::Mmio;
    return RefClass::Unmapped;
}

RefClass
Bus::classify16(Addr a) const
{
    RefClass c = classify(a);
    // A 16-bit transaction touches bytes a and a+1. MMIO sits at the
    // top of the address space (its own register decode handles the
    // offset); RAM/ROM transactions must keep both bytes inside the
    // region — the last byte of a region cannot start a word access.
    if (c == RefClass::Ram || c == RefClass::Flash)
        if (classify(a + 1) != c)
            return RefClass::Unmapped;
    return c;
}

void
Bus::note(Addr a, m68k::AccessKind k, RefClass cls)
{
    switch (cls) {
      case RefClass::Ram: ++nRam; break;
      case RefClass::Flash: ++nFlash; break;
      case RefClass::Mmio: ++nMmio; break;
      default: break;
    }
    if (traceOn && refSink)
        refSink->onRef(a, k, cls);
}

u8 *
Bus::materializeRam(u32 pg)
{
    PageRef fresh = copyPage(*ramPages[pg]);
    u8 *w = fresh->bytes;
    ramPages[pg] = std::move(fresh);
    ramRd[pg] = w;
    ramWr[pg] = w;
    return w;
}

u8 *
Bus::materializeRom(u32 pg)
{
    PageRef fresh = copyPage(*romPages[pg]);
    u8 *w = fresh->bytes;
    romPages[pg] = std::move(fresh);
    romRd[pg] = w;
    romWr[pg] = w;
    return w;
}

u8
Bus::read8(Addr a, m68k::AccessKind k)
{
    switch (static_cast<PageKind>(pageKinds[a >> 16])) {
      case PageKind::Ram:
        ++nRam;
        if (traceOn && refSink)
            refSink->onRef(a, k, RefClass::Ram);
        return ramByte(a);
      case PageKind::Rom:
        ++nFlash;
        if (traceOn && refSink)
            refSink->onRef(a, k, RefClass::Flash);
        return romByte(a);
      default:
        return readSlow8(a, k);
    }
}

u16
Bus::read16(Addr a, m68k::AccessKind k)
{
    // Even addresses cannot straddle a region edge (regions are
    // 64 KB-page aligned and sized) or a 4 KB page (even offsets stop
    // at 4094), so the page kind decides alone and one read pointer
    // serves both bytes.
    if (!(a & 1)) {
        switch (static_cast<PageKind>(pageKinds[a >> 16])) {
          case PageKind::Ram: {
            ++nRam;
            if (traceOn && refSink)
                refSink->onRef(a, k, RefClass::Ram);
            const u8 *p = ramRd[a >> kMemPageShift] + (a & kMemPageMask);
            return static_cast<u16>((p[0] << 8) | p[1]);
          }
          case PageKind::Rom: {
            ++nFlash;
            if (traceOn && refSink)
                refSink->onRef(a, k, RefClass::Flash);
            u32 off = a - kRomBase;
            const u8 *p =
                romRd[off >> kMemPageShift] + (off & kMemPageMask);
            return static_cast<u16>((p[0] << 8) | p[1]);
          }
          default:
            break;
        }
    }
    return readSlow16(a, k);
}

void
Bus::write8(Addr a, u8 v)
{
    if (static_cast<PageKind>(pageKinds[a >> 16]) == PageKind::Ram) {
        ++nRam;
        if (traceOn && refSink)
            refSink->onRef(a, m68k::AccessKind::Write, RefClass::Ram);
        *ramWritable(a) = v;
        return;
    }
    writeSlow8(a, v);
}

void
Bus::write16(Addr a, u16 v)
{
    if (!(a & 1) &&
        static_cast<PageKind>(pageKinds[a >> 16]) == PageKind::Ram) {
        ++nRam;
        if (traceOn && refSink)
            refSink->onRef(a, m68k::AccessKind::Write, RefClass::Ram);
        u8 *p = ramWritable(a); // even a: both bytes, one page
        p[0] = static_cast<u8>(v >> 8);
        p[1] = static_cast<u8>(v);
        return;
    }
    writeSlow16(a, v);
}

u8
Bus::readSlow8(Addr a, m68k::AccessKind k)
{
    RefClass cls = classify(a);
    note(a, k, cls);
    switch (cls) {
      case RefClass::Ram:
        return ramByte(a);
      case RefClass::Flash:
        return romByte(a);
      case RefClass::Mmio: {
        u16 w = io.readReg((a - kMmioBase) & ~1u);
        return (a & 1) ? static_cast<u8>(w) : static_cast<u8>(w >> 8);
      }
      default:
        if (!warnedUnmapped) {
            warnedUnmapped = true;
            warn("bus: read from unmapped address ", a);
        }
        return 0;
    }
}

u16
Bus::readSlow16(Addr a, m68k::AccessKind k)
{
    RefClass cls = classify16(a);
    note(a, k, cls);
    switch (cls) {
      case RefClass::Ram:
        // Odd addresses may straddle a page boundary: two byte reads.
        return static_cast<u16>((ramByte(a) << 8) | ramByte(a + 1));
      case RefClass::Flash:
        return static_cast<u16>((romByte(a) << 8) | romByte(a + 1));
      case RefClass::Mmio:
        return io.readReg(a - kMmioBase);
      default:
        if (!warnedUnmapped) {
            warnedUnmapped = true;
            warn("bus: read from unmapped address ", a);
        }
        return 0;
    }
}

void
Bus::writeSlow8(Addr a, u8 v)
{
    RefClass cls = classify(a);
    note(a, m68k::AccessKind::Write, cls);
    switch (cls) {
      case RefClass::Ram:
        *ramWritable(a) = v;
        return;
      case RefClass::Flash:
        if (!warnedRomWrite) {
            warnedRomWrite = true;
            warn("bus: write to flash ROM ignored at ", a);
        }
        return;
      case RefClass::Mmio: {
        // Byte writes merge with the latched register word.
        u32 off = (a - kMmioBase) & ~1u;
        u16 cur = io.readReg(off);
        u16 w = (a & 1)
            ? static_cast<u16>((cur & 0xFF00) | v)
            : static_cast<u16>((cur & 0x00FF) | (v << 8));
        io.writeReg(off, w);
        return;
      }
      default:
        return;
    }
}

void
Bus::writeSlow16(Addr a, u16 v)
{
    RefClass cls = classify16(a);
    note(a, m68k::AccessKind::Write, cls);
    switch (cls) {
      case RefClass::Ram:
        // Odd addresses may straddle a page boundary.
        *ramWritable(a) = static_cast<u8>(v >> 8);
        *ramWritable(a + 1) = static_cast<u8>(v);
        return;
      case RefClass::Flash:
        if (!warnedRomWrite) {
            warnedRomWrite = true;
            warn("bus: write to flash ROM ignored at ", a);
        }
        return;
      case RefClass::Mmio:
        io.writeReg(a - kMmioBase, v);
        return;
      default:
        return;
    }
}

u8
Bus::peek8(Addr a) const
{
    switch (classify(a)) {
      case RefClass::Ram:
        return ramByte(a);
      case RefClass::Flash:
        return romByte(a);
      default:
        return 0; // peeks never touch MMIO state
    }
}

void
Bus::poke8(Addr a, u8 v)
{
    switch (classify(a)) {
      case RefClass::Ram:
        *ramWritable(a) = v;
        return;
      case RefClass::Flash: {
        // Host-side ROM patching shadows the shared flash page with a
        // private copy — siblings sharing the original are unaffected.
        const u32 off = a - kRomBase;
        const u32 pg = off >> kMemPageShift;
        u8 *w = romWr[pg];
        if (!w)
            w = materializeRom(pg);
        w[off & kMemPageMask] = v;
        return;
      }
      default:
        return;
    }
}

void
Bus::loadRom(const PagedImage &image)
{
    std::size_t n = image.size();
    if (n > kRomSize) {
        warn("bus: ROM image of ", n, " bytes clamped to ", kRomSize);
        n = kRomSize;
    }
    const std::size_t fullPages = n >> kMemPageShift;
    for (u32 pg = 0; pg < kRomPages; ++pg) {
        if (pg < fullPages) {
            romPages[pg] = image.page(pg);
        } else if ((static_cast<std::size_t>(pg) << kMemPageShift) <
                   n) {
            // Partial tail page: image bytes, then erased fill. The
            // image pads with zero, flash pads with 0xFF, so this one
            // page cannot be shared.
            PageRef t = copyPage(*image.page(pg));
            const std::size_t tail = n & kMemPageMask;
            std::memset(t->bytes + tail, 0xFF, kMemPageSize - tail);
            romPages[pg] = std::move(t);
        } else {
            romPages[pg] = erasedPage();
        }
        romRd[pg] = romPages[pg]->bytes;
        romWr[pg] = nullptr;
    }
}

void
Bus::loadRam(const PagedImage &image)
{
    std::size_t n = image.size();
    if (n > kRamSize) {
        warn("bus: RAM image of ", n, " bytes clamped to ", kRamSize);
        n = kRamSize;
    }
    const std::size_t pages = (n + kMemPageSize - 1) >> kMemPageShift;
    for (u32 pg = 0; pg < kRamPages; ++pg) {
        // RAM and PagedImage both pad with zero, so even a partial
        // tail page shares directly.
        ramPages[pg] = pg < pages ? image.page(pg) : zeroPage();
        ramRd[pg] = ramPages[pg]->bytes;
        ramWr[pg] = nullptr;
    }
}

void
Bus::loadRom(std::vector<u8> image)
{
    loadRom(PagedImage::fromBytes(image));
}

void
Bus::loadRam(std::vector<u8> image)
{
    loadRam(PagedImage::fromBytes(image));
}

PagedImage
Bus::captureRam() const
{
    // Freeze: drop write ownership so a future guest write shadows
    // the page instead of mutating the image being returned.
    std::fill(ramWr.begin(), ramWr.end(), nullptr);
    return PagedImage::fromPages(ramPages, kRamSize);
}

PagedImage
Bus::captureRom() const
{
    std::fill(romWr.begin(), romWr.end(), nullptr);
    return PagedImage::fromPages(romPages, kRomSize);
}

void
Bus::writeRam(Addr off, const void *src, std::size_t len)
{
    PT_ASSERT(static_cast<u64>(off) + len <= kRamSize,
              "writeRam out of range");
    const u8 *s = static_cast<const u8 *>(src);
    while (len) {
        const u32 pg = off >> kMemPageShift;
        const u32 at = off & kMemPageMask;
        const std::size_t take =
            std::min<std::size_t>(kMemPageSize - at, len);
        // Skip chunks that already match (typically zero runs over
        // the shared zero page): the import stays O(dirty).
        if (std::memcmp(ramRd[pg] + at, s, take) != 0) {
            u8 *w = ramWr[pg];
            if (!w)
                w = materializeRam(pg);
            std::memcpy(w + at, s, take);
        }
        off += static_cast<Addr>(take);
        s += take;
        len -= take;
    }
}

void
Bus::clearRam()
{
    const PageRef &zero = zeroPage();
    for (u32 pg = 0; pg < kRamPages; ++pg) {
        if (ramPages[pg] == zero)
            continue; // already blank: no pointer churn
        ramPages[pg] = zero;
        ramRd[pg] = zero->bytes;
        ramWr[pg] = nullptr;
    }
}

u32
Bus::dirtyPages() const
{
    u32 n = 0;
    for (u32 pg = 0; pg < kRamPages; ++pg)
        n += ramWr[pg] != nullptr;
    for (u32 pg = 0; pg < kRomPages; ++pg)
        n += romWr[pg] != nullptr;
    return n;
}

} // namespace pt::device
