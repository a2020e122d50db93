/**
 * @file
 * Shared test fixtures: a flat big-endian test bus and a harness that
 * assembles code with CodeBuilder, loads it, and runs the CPU.
 */

#ifndef PT_TESTS_TESTUTIL_H
#define PT_TESTS_TESTUTIL_H

#include <vector>

#include "base/types.h"
#include "m68k/busif.h"
#include "m68k/codebuilder.h"
#include "m68k/cpu.h"

namespace pt::test
{

/** A flat RAM covering the low address space; wraps at its size. */
class FlatBus : public m68k::BusIf
{
  public:
    explicit FlatBus(std::size_t size = 1u << 20)
        : mem(size, 0)
    {}

    u8
    read8(Addr a, m68k::AccessKind) override
    {
        return mem[a % mem.size()];
    }

    u16
    read16(Addr a, m68k::AccessKind k) override
    {
        return static_cast<u16>((read8(a, k) << 8) | read8(a + 1, k));
    }

    void
    write8(Addr a, u8 v) override
    {
        mem[a % mem.size()] = v;
    }

    void
    write16(Addr a, u16 v) override
    {
        write8(a, static_cast<u8>(v >> 8));
        write8(a + 1, static_cast<u8>(v));
    }

    u8 peek8(Addr a) const override { return mem[a % mem.size()]; }
    void poke8(Addr a, u8 v) override { mem[a % mem.size()] = v; }

    void
    load(Addr at, const std::vector<u8> &bytes)
    {
        for (std::size_t i = 0; i < bytes.size(); ++i)
            poke8(at + static_cast<Addr>(i), bytes[i]);
    }

  private:
    std::vector<u8> mem;
};

/** Assembles, loads and steps short code sequences. */
class CpuHarness
{
  public:
    static constexpr Addr kCodeBase = 0x1000;
    static constexpr Addr kStackTop = 0x8000;

    CpuHarness()
        : cpu(bus)
    {
        // Reset vectors: SSP then PC, both at address 0.
        bus.poke32(0, kStackTop);
        bus.poke32(4, kCodeBase);
    }

    /** Loads assembled code at the code base and resets the CPU. */
    void
    load(m68k::CodeBuilder &b)
    {
        bus.load(kCodeBase, b.finalize());
        cpu.reset();
    }

    /** Steps until the CPU halts/stops or maxSteps is hit. */
    u64
    run(u64 maxSteps = 100000)
    {
        u64 steps = 0;
        while (steps < maxSteps && !cpu.stopped() && !cpu.halted()) {
            cpu.step();
            ++steps;
        }
        return steps;
    }

    FlatBus bus;
    m68k::Cpu cpu;
};

/** @return a builder rooted at the harness code base. */
inline m68k::CodeBuilder
codeAt(Addr base = CpuHarness::kCodeBase)
{
    return m68k::CodeBuilder(base);
}

} // namespace pt::test

#endif // PT_TESTS_TESTUTIL_H
