/**
 * @file
 * Memory-reference and opcode instrumentation, the simulator-side
 * collection described in §2.4.2: "we further modified POSE to track
 * and output statistical execution information such as opcodes and
 * memory references".
 */

#ifndef PT_TRACE_MEMTRACE_H
#define PT_TRACE_MEMTRACE_H

#include <array>
#include <string>
#include <vector>

#include "base/types.h"
#include "device/bus.h"
#include "m68k/cpu.h"

namespace pt::trace
{

/** Splits reference counts by region and access kind. */
class RefCounter : public device::MemRefSink
{
  public:
    void
    onRef(Addr, m68k::AccessKind kind, device::RefClass cls) override
    {
        if (cls == device::RefClass::Ram) {
            ++ram;
            bump(kind, ramFetch, ramRead, ramWrite);
        } else if (cls == device::RefClass::Flash) {
            ++flash;
            bump(kind, flashFetch, flashRead, flashWrite);
        }
    }

    u64 ramRefs() const { return ram; }
    u64 flashRefs() const { return flash; }
    u64 totalRefs() const { return ram + flash; }

    /** Fraction of references that hit the flash (paper: ~2/3). */
    double
    flashFraction() const
    {
        u64 t = totalRefs();
        return t ? static_cast<double>(flash) / static_cast<double>(t)
                 : 0.0;
    }

    /**
     * Average effective memory access time without a cache, Eq 3:
     * T_eff = (REF_ram * T_ram + REF_flash * T_flash) / REF_total,
     * with T_ram = 1 and T_flash = 3 cycles on the MC68VZ328.
     */
    double avgMemCycles() const;

    u64 ramFetch = 0, ramRead = 0, ramWrite = 0;
    u64 flashFetch = 0, flashRead = 0, flashWrite = 0;

    void
    reset()
    {
        *this = RefCounter();
    }

  private:
    static void
    bump(m68k::AccessKind k, u64 &f, u64 &r, u64 &w)
    {
        switch (k) {
          case m68k::AccessKind::Fetch: ++f; break;
          case m68k::AccessKind::Read: ++r; break;
          default: ++w; break;
        }
    }

    u64 ram = 0;
    u64 flash = 0;
};

/** RAM/flash access latencies of the Dragonball MC68VZ328 (§4.3). */
inline constexpr double kRamCycles = 1.0;
inline constexpr double kFlashCycles = 3.0;

/** Magic of the retired raw PTTR trace file (6 B/ref). Nothing reads
 *  or writes PTTR any more; the magic stays so such a file is refused
 *  by name instead of being read as Dinero text. */
inline constexpr u32 kTraceMagic = 0x50545452; // "PTTR"

/** One trace record: classified reference. */
struct TraceRecord
{
    Addr addr;
    u8 kind;  ///< 0 fetch, 1 read, 2 write
    u8 cls;   ///< 0 ram, 1 flash
};

/**
 * Buffers classified references in memory (optionally bounded), for
 * feeding the cache simulator offline. On disk, traces are PTPK
 * (trace/packedtrace.h) or Dinero din (trace/dinero.h).
 */
class TraceBuffer : public device::MemRefSink
{
  public:
    explicit TraceBuffer(std::size_t capacity = 0)
        : capacity(capacity)
    {}

    void
    onRef(Addr addr, m68k::AccessKind kind,
          device::RefClass cls) override
    {
        if (cls != device::RefClass::Ram &&
            cls != device::RefClass::Flash) {
            return;
        }
        if (capacity && recs.size() >= capacity) {
            ++dropped;
            return;
        }
        recs.push_back({addr,
                        static_cast<u8>(kind),
                        static_cast<u8>(
                            cls == device::RefClass::Flash ? 1 : 0)});
    }

    const std::vector<TraceRecord> &records() const { return recs; }
    u64 droppedCount() const { return dropped; }
    void clear() { recs.clear(); dropped = 0; }

  private:
    std::size_t capacity;
    std::vector<TraceRecord> recs;
    u64 dropped = 0;
};

/** Fans one reference stream out to several sinks. */
class TeeSink : public device::MemRefSink
{
  public:
    void add(device::MemRefSink *s) { sinks.push_back(s); }

    void
    onRef(Addr addr, m68k::AccessKind kind,
          device::RefClass cls) override
    {
        for (auto *s : sinks)
            s->onRef(addr, kind, cls);
    }

  private:
    std::vector<device::MemRefSink *> sinks;
};

/**
 * Executed-opcode histogram: "we treated each executed opcode as an
 * index into an array, and incremented the respective array element".
 */
class OpcodeHistogram : public m68k::OpcodeSink
{
  public:
    OpcodeHistogram()
        : counts(65536, 0)
    {}

    void
    onOpcode(u16 opcode, u32) override
    {
        ++counts[opcode];
        ++total;
    }

    u64 count(u16 opcode) const { return counts[opcode]; }
    u64 totalOpcodes() const { return total; }

    /** Aggregated counts per mnemonic group, sorted descending. */
    std::vector<std::pair<std::string, u64>> byGroup() const;

  private:
    std::vector<u64> counts;
    u64 total = 0;
};

/** @return a coarse mnemonic group name for an opcode word. */
std::string opcodeGroup(u16 opcode);

} // namespace pt::trace

#endif // PT_TRACE_MEMTRACE_H
