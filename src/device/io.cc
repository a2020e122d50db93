#include "io.h"

#include "base/logging.h"

namespace pt::device
{

u16
DragonballIo::readReg(u32 offset)
{
    switch (offset) {
      case Reg::TickCount:
        return static_cast<u16>(nowTicks() >> 16);
      case Reg::TickCount + 2:
        return static_cast<u16>(nowTicks());
      case Reg::RtcSeconds:
        return static_cast<u16>(nowRtc() >> 16);
      case Reg::RtcSeconds + 2:
        return static_cast<u16>(nowRtc());
      case Reg::PenX:
        return penXLatch;
      case Reg::PenY:
        return penYLatch;
      case Reg::PenDown:
        return penDownLatch;
      case Reg::BtnState:
        return btnState;
      case Reg::SerData: {
        if (serialFifo.empty())
            return 0;
        u16 v = static_cast<u16>(0x100 | serialFifo.front());
        serialFifo.pop_front();
        if (serialFifo.empty())
            intStat &= ~Irq::Serial; // FIFO drained
        return v;
      }
      case Reg::IntStat:
        return intStat;
      case Reg::IntMask:
        return intMask;
      case Reg::TimerCmp:
        return static_cast<u16>(timerCmp >> 16);
      case Reg::TimerCmp + 2:
        return static_cast<u16>(timerCmp);
      default:
        return 0;
    }
}

void
DragonballIo::writeReg(u32 offset, u16 value)
{
    switch (offset) {
      case Reg::IntMask:
        intMask = value;
        break;
      case Reg::IntAck:
        intStat &= ~value;
        break;
      case Reg::TimerCmp:
        timerCmp = (timerCmp & 0x0000FFFFu) |
                   (static_cast<u32>(value) << 16);
        break;
      case Reg::TimerCmp + 2:
        timerCmp = (timerCmp & 0xFFFF0000u) | value;
        break;
      case Reg::DbgPort:
        if (debugSink)
            debugSink(static_cast<char>(value & 0xFF));
        break;
      default:
        break; // writes to read-only registers are ignored
    }
}

void
DragonballIo::buttonsSet(u16 state)
{
    if (state != btnState) {
        btnState = state;
        raiseIrq(Irq::Button);
    }
}

bool
DragonballIo::samplePen()
{
    bool fire = penIsDown || lastSampleDown;
    penXLatch = penXNow;
    penYLatch = penYNow;
    penDownLatch = penIsDown ? 1 : 0;
    lastSampleDown = penIsDown;
    if (fire)
        raiseIrq(Irq::Pen);
    return fire;
}

int
DragonballIo::irqLevel() const
{
    u16 active = activeIrqs();
    if (active & Irq::Timer)
        return 6;
    if (active & Irq::Pen)
        return 5;
    if (active & Irq::Button)
        return 4;
    if (active & Irq::Serial)
        return 3;
    return 0;
}

IoState
DragonballIo::saveState() const
{
    IoState s;
    s.rtcBase = rtcBase;
    s.intStat = intStat;
    s.intMask = intMask;
    s.timerCmp = timerCmp;
    s.penIsDown = penIsDown;
    s.penXNow = penXNow;
    s.penYNow = penYNow;
    s.lastSampleDown = lastSampleDown;
    s.penXLatch = penXLatch;
    s.penYLatch = penYLatch;
    s.penDownLatch = penDownLatch;
    s.btnState = btnState;
    s.serialFifo.assign(serialFifo.begin(), serialFifo.end());
    return s;
}

void
DragonballIo::loadState(const IoState &s)
{
    rtcBase = s.rtcBase;
    intStat = s.intStat;
    intMask = s.intMask;
    timerCmp = s.timerCmp;
    penIsDown = s.penIsDown;
    penXNow = s.penXNow;
    penYNow = s.penYNow;
    lastSampleDown = s.lastSampleDown;
    penXLatch = s.penXLatch;
    penYLatch = s.penYLatch;
    penDownLatch = s.penDownLatch;
    btnState = s.btnState;
    serialFifo.assign(s.serialFifo.begin(), s.serialFifo.end());
}

void
DragonballIo::reset()
{
    intStat = 0;
    intMask = 0;
    timerCmp = kTimerDisarmed;
    penIsDown = false;
    lastSampleDown = false;
    penXLatch = penYLatch = penDownLatch = 0;
    btnState = 0;
    serialFifo.clear();
}

} // namespace pt::device
