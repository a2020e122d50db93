#include "device.h"

namespace pt::device
{

Device::Device()
    : ioBlock(*this), sysBus(ioBlock), cpuCore(sysBus)
{
    cpuCore.setResetVectorBase(kRomBase);
}

void
Device::reset()
{
    ioBlock.reset();
    cycleCount = 0;
    nextPenSample = kCyclesPerPenSample;
    cpuCore.reset();
}

bool
Device::idle() const
{
    return cpuCore.stopped() && ioBlock.irqLevel() == 0;
}

void
Device::syncIrq()
{
    cpuCore.setIrqLevel(ioBlock.irqLevel());
}

u64
Device::nextHardwareEvent(u64 target) const
{
    // The digitizer sampling clock runs on a fixed grid whether or
    // not the pen is down, so collection and replay observe the same
    // sample phases; dozing therefore wakes (cheaply) at every grid
    // point rather than skipping ahead.
    u64 next = target;
    if (nextPenSample < next)
        next = nextPenSample;
    u32 cmp = ioBlock.timerCompare();
    if (cmp != kTimerDisarmed) {
        u64 cmpCycle = static_cast<u64>(cmp) * kCyclesPerTick;
        if (cmpCycle > cycleCount && cmpCycle < next)
            next = cmpCycle;
    }
    return next;
}

void
Device::serviceHardware()
{
    while (cycleCount >= nextPenSample) {
        ioBlock.samplePen();
        nextPenSample += kCyclesPerPenSample;
    }
    ioBlock.tickAdvanced(ticks());
    syncIrq();
}

void
Device::runUntilCycle(u64 target)
{
    while (cycleCount < target && !cpuCore.halted()) {
        serviceHardware();

        if (cpuCore.stopped() && ioBlock.irqLevel() == 0) {
            // Doze: jump to the next hardware event (or the target).
            u64 next = nextHardwareEvent(target);
            cycleCount = next > cycleCount ? next : target;
            continue;
        }
        cycleCount += cpuCore.step();
    }

    // Surface hardware events that land exactly on the boundary so a
    // caller that injects a stimulus at tick T sees consistent state.
    ioBlock.tickAdvanced(ticks());
    syncIrq();
}

void
Device::runUntilIdle(u64 maxCycles)
{
    u64 limit = cycleCount + maxCycles;
    while (cycleCount < limit && !cpuCore.halted() && !idle()) {
        serviceHardware();
        if (idle())
            break;
        cycleCount += cpuCore.step();
    }
}

} // namespace pt::device
