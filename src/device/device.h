/**
 * @file
 * The Palm m515 device model: CPU + bus + Dragonball peripherals with
 * a doze-aware run loop.
 *
 * Real Palm devices spend almost all wall-clock time asleep between
 * user inputs; Palm OS executes STOP when the event queue is empty and
 * an interrupt (pen, button, or timer) wakes it. The run loop honours
 * that: while the CPU is stopped and no interrupt is pending, emulated
 * time fast-forwards to the next hardware event without executing
 * instructions. That is how a 24-hour paper session (Table 1) replays
 * in seconds while keeping tick/RTC timestamps faithful.
 */

#ifndef PT_DEVICE_DEVICE_H
#define PT_DEVICE_DEVICE_H

#include "base/types.h"
#include "device/bus.h"
#include "device/io.h"
#include "m68k/cpu.h"

namespace pt::device
{

/** The complete emulated handheld. */
class Device : public TimeSource
{
  public:
    Device();

    m68k::Cpu &cpu() { return cpuCore; }
    const m68k::Cpu &cpu() const { return cpuCore; }
    Bus &bus() { return sysBus; }
    const Bus &bus() const { return sysBus; }
    DragonballIo &io() { return ioBlock; }
    const DragonballIo &io() const { return ioBlock; }

    /**
     * Soft reset, as performed at the start of every collected session
     * (§2.2): peripherals cleared, emulated time rewound to zero, CPU
     * reset with vectors fetched from the flash base. RAM contents are
     * preserved — Palm storage RAM survives soft resets.
     */
    void reset();

    u64 nowCycles() const override { return cycleCount; }
    Ticks ticks() const
    {
        return static_cast<Ticks>(cycleCount / kCyclesPerTick);
    }

    /** Runs (or dozes) until the cycle counter reaches @p target. */
    void runUntilCycle(u64 target);

    /** Runs until the tick counter reaches @p t. */
    void
    runUntilTick(Ticks t)
    {
        runUntilCycle(static_cast<u64>(t) * kCyclesPerTick);
    }

    /** Runs for @p n more cycles. */
    void runCycles(u64 n) { runUntilCycle(cycleCount + n); }

    /**
     * Runs until the CPU dozes (STOP with no pending interrupt) or
     * @p maxCycles elapse. Used to let the guest finish processing a
     * stimulus before the next one is applied.
     */
    void runUntilIdle(u64 maxCycles = 400'000'000);

    bool halted() const { return cpuCore.halted(); }
    bool idle() const;

    /** Instructions the guest has actually executed. */
    u64 instructionsRetired() const
    {
        return cpuCore.instructionsRetired();
    }

    // --- checkpointing support (see device/checkpoint.h) ---
    /** @return the next digitizer sample grid point (cycles). */
    u64 penSampleAt() const { return nextPenSample; }

    /** Restores the emulated clock (checkpoint thaw). */
    void
    setClockState(u64 cycles, u64 penSample)
    {
        cycleCount = cycles;
        nextPenSample = penSample;
    }

  private:
    /** Propagates the interrupt controller state to the CPU. */
    void syncIrq();
    /** Next cycle at which hardware will do something on its own. */
    u64 nextHardwareEvent(u64 target) const;
    /** Fires due digitizer samples and timer compares. */
    void serviceHardware();

    DragonballIo ioBlock;
    Bus sysBus;
    m68k::Cpu cpuCore;
    u64 cycleCount = 0;
    u64 nextPenSample = kCyclesPerPenSample;
};

} // namespace pt::device

#endif // PT_DEVICE_DEVICE_H
