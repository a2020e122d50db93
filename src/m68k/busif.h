/**
 * @file
 * The CPU-side bus interface.
 *
 * The MC68VZ328 has a 16-bit external data bus; every 16-bit transfer
 * is one bus transaction, and 32-bit operations are performed as two
 * transactions. palmtrace counts memory references at this granularity
 * (the same stream the paper's cache case study consumes).
 *
 * Big-endian byte order, as on the 68000: read16(a) returns
 * (mem[a] << 8) | mem[a + 1].
 *
 * peek/poke accessors are side-effect free: they do not count as
 * references, do not touch MMIO device state, and are used only by
 * host-side tooling (inspectors, the replay engine, snapshots).
 */

#ifndef PT_M68K_BUSIF_H
#define PT_M68K_BUSIF_H

#include "base/types.h"

namespace pt::m68k
{

/** What a bus read is for; writes are always data writes. */
enum class AccessKind : u8
{
    Fetch, ///< instruction stream fetch
    Read,  ///< operand read
    Write, ///< operand write (used in trace records only)
};

/** Abstract CPU bus. Implemented by device::Bus. */
class BusIf
{
  public:
    virtual ~BusIf() = default;

    virtual u8 read8(Addr addr, AccessKind kind) = 0;
    virtual u16 read16(Addr addr, AccessKind kind) = 0;
    virtual void write8(Addr addr, u8 value) = 0;
    virtual void write16(Addr addr, u16 value) = 0;

    /** Side-effect-free host read (no trace, no MMIO effects). */
    virtual u8 peek8(Addr addr) const = 0;
    /** Side-effect-free host write. */
    virtual void poke8(Addr addr, u8 value) = 0;

    u32
    read32(Addr addr, AccessKind kind)
    {
        u32 hi = read16(addr, kind);
        u32 lo = read16(addr + 2, kind);
        return (hi << 16) | lo;
    }

    void
    write32(Addr addr, u32 value)
    {
        write16(addr, static_cast<u16>(value >> 16));
        write16(addr + 2, static_cast<u16>(value));
    }

    u16
    peek16(Addr addr) const
    {
        return static_cast<u16>((peek8(addr) << 8) | peek8(addr + 1));
    }

    u32
    peek32(Addr addr) const
    {
        return (static_cast<u32>(peek16(addr)) << 16) | peek16(addr + 2);
    }

    void
    poke16(Addr addr, u16 value)
    {
        poke8(addr, static_cast<u8>(value >> 8));
        poke8(addr + 1, static_cast<u8>(value));
    }

    void
    poke32(Addr addr, u32 value)
    {
        poke16(addr, static_cast<u16>(value >> 16));
        poke16(addr + 2, static_cast<u16>(value));
    }
};

} // namespace pt::m68k

#endif // PT_M68K_BUSIF_H
