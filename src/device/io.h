/**
 * @file
 * The Dragonball MC68VZ328 peripheral block: tick timer, real-time
 * clock, digitizer (pen), hardware buttons, and interrupt controller.
 *
 * The peripherals read the current time from a TimeSource so that the
 * device can fast-forward through doze periods without executing
 * instructions — exactly how a real Palm spends most of its life.
 */

#ifndef PT_DEVICE_IO_H
#define PT_DEVICE_IO_H

#include <deque>
#include <functional>
#include <vector>

#include "base/types.h"
#include "device/map.h"

namespace pt::device
{

/** A complete, copyable peripheral state (checkpointing). */
struct IoState
{
    u32 rtcBase = 0;
    u16 intStat = 0;
    u16 intMask = 0;
    u32 timerCmp = kTimerDisarmed;
    bool penIsDown = false;
    u16 penXNow = 0;
    u16 penYNow = 0;
    bool lastSampleDown = false;
    u16 penXLatch = 0;
    u16 penYLatch = 0;
    u16 penDownLatch = 0;
    u16 btnState = 0;
    std::vector<u8> serialFifo;
};

/** Supplies the current emulated cycle count to the peripherals. */
class TimeSource
{
  public:
    virtual ~TimeSource() = default;
    /** @return cycles elapsed since reset (including doze). */
    virtual u64 nowCycles() const = 0;
};

/**
 * The peripheral register file.
 *
 * Guest access goes through readReg/writeReg (word-granular). The host
 * drives the physical inputs through penTouch/penRelease/buttonsSet,
 * and the device model calls samplePen() at each 50 Hz boundary.
 */
class DragonballIo
{
  public:
    explicit DragonballIo(const TimeSource &time)
        : time(time)
    {}

    // --- guest access (16-bit registers; 32-bit via two words) ---
    u16 readReg(u32 offset);
    void writeReg(u32 offset, u16 value);

    // --- host: physical inputs ---
    /** Puts the stylus on the screen at (x, y). */
    void
    penTouch(u16 x, u16 y)
    {
        penIsDown = true;
        penXNow = x;
        penYNow = y;
    }

    /** Moves the stylus while it stays down. */
    void
    penMoveTo(u16 x, u16 y)
    {
        penXNow = x;
        penYNow = y;
    }

    /** Lifts the stylus. */
    void penRelease() { penIsDown = false; }

    bool penIsTouching() const { return penIsDown; }

    /** Sets the raw hardware button bitfield; edges raise Irq::Button. */
    void buttonsSet(u16 state);

    /**
     * Delivers one received serial/IrDA byte (extension of the
     * paper's §5.1 future work). The byte enters the UART receive
     * FIFO and raises Irq::Serial until the guest drains it.
     */
    void
    serialInject(u8 byte)
    {
        serialFifo.push_back(byte);
        raiseIrq(Irq::Serial);
    }

    /** @return bytes waiting in the receive FIFO. */
    std::size_t serialPending() const { return serialFifo.size(); }

    /**
     * Overrides the button bitfield without raising an interrupt. The
     * replay engine uses this to feed logged KeyCurrentState samples
     * back to the guest (§2.4.2: the emulator "looks up the
     * appropriate key bit field to return").
     */
    void buttonsForce(u16 state) { btnState = state; }

    u16 buttonsNow() const { return btnState; }

    /**
     * Latches a digitizer sample. Raises Irq::Pen when the pen is down
     * or has just been released (the final pen-up sample). @return true
     * when an interrupt was raised.
     */
    bool samplePen();

    /** @return true if a pen sample would raise an interrupt now. */
    bool
    penSamplePending() const
    {
        return penIsDown || lastSampleDown;
    }

    // --- interrupt controller ---
    /** @return pending-and-unmasked sources. */
    u16 activeIrqs() const { return intStat & ~intMask; }

    /** @return the 68k interrupt priority level to assert (0-6). */
    int irqLevel() const;

    /** Raises an interrupt source (hardware side). */
    void raiseIrq(u16 bits) { intStat |= bits; }

    // --- timer ---
    u32 timerCompare() const { return timerCmp; }

    /** Called by the device when the tick counter advances. */
    void
    tickAdvanced(u32 nowTicks)
    {
        if (timerCmp != kTimerDisarmed && nowTicks >= timerCmp)
            raiseIrq(Irq::Timer);
    }

    /** Current tick count derived from the time source. */
    u32
    nowTicks() const
    {
        return static_cast<u32>(time.nowCycles() / kCyclesPerTick);
    }

    /** RTC seconds since the 1904 epoch. */
    u32
    nowRtc() const
    {
        return rtcBase + static_cast<u32>(time.nowCycles() / kCpuHz);
    }

    /** Sets the RTC base (seconds since 1904 at reset). */
    void setRtcBase(u32 seconds) { rtcBase = seconds; }
    u32 rtcBaseValue() const { return rtcBase; }

    /** Collects characters the guest writes to the debug port. */
    void
    setDebugSink(std::function<void(char)> sink)
    {
        debugSink = std::move(sink);
    }

    /** Resets all peripheral state (soft reset). */
    void reset();

    /** Captures the complete peripheral state (checkpointing). */
    IoState saveState() const;
    /** Restores a previously captured peripheral state. */
    void loadState(const IoState &state);

  private:
    const TimeSource &time;
    u32 rtcBase = 0;
    u16 intStat = 0;
    u16 intMask = 0;
    u32 timerCmp = kTimerDisarmed;
    // Live stylus state (host side).
    bool penIsDown = false;
    u16 penXNow = 0;
    u16 penYNow = 0;
    // Latched sample (guest-visible registers).
    bool lastSampleDown = false;
    u16 penXLatch = 0;
    u16 penYLatch = 0;
    u16 penDownLatch = 0;
    u16 btnState = 0;
    std::deque<u8> serialFifo;
    std::function<void(char)> debugSink;
};

} // namespace pt::device

#endif // PT_DEVICE_IO_H
