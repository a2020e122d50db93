#include "cpu.h"

#include "base/logging.h"
#include "m68k/bits.h"

namespace pt::m68k
{

Cpu::Cpu(BusIf &bus)
    : busRef(bus)
{
}

void
Cpu::reset()
{
    srReg = 0x2700;
    stoppedFlag = false;
    haltedFlag = false;
    irqLevel = 0;
    otherSp = 0;
    areg[7] = busRef.peek32(resetVectorBase);
    pcReg = busRef.peek32(resetVectorBase + 4);
}

void
Cpu::setSr(u16 v)
{
    v &= Sr::Implemented;
    bool wasSuper = srReg & Sr::S;
    bool nowSuper = v & Sr::S;
    if (wasSuper != nowSuper) {
        u32 tmp = areg[7];
        areg[7] = otherSp;
        otherSp = tmp;
    }
    srReg = v;
}

u32
Cpu::usp() const
{
    return (srReg & Sr::S) ? otherSp : areg[7];
}

void
Cpu::setUsp(u32 v)
{
    if (srReg & Sr::S)
        otherSp = v;
    else
        areg[7] = v;
}

CpuState
Cpu::saveState() const
{
    CpuState s;
    for (int i = 0; i < 8; ++i) {
        s.d[i] = dreg[i];
        s.a[i] = areg[i];
    }
    s.otherSp = otherSp;
    s.pc = pcReg;
    s.sr = srReg;
    s.stopped = stoppedFlag;
    s.cycles = cycleCount;
    s.instructions = instret;
    return s;
}

void
Cpu::loadState(const CpuState &s)
{
    for (int i = 0; i < 8; ++i) {
        dreg[i] = s.d[i];
        areg[i] = s.a[i];
    }
    otherSp = s.otherSp;
    pcReg = s.pc;
    srReg = s.sr; // raw restore: areg[7]/otherSp already match sr.S
    stoppedFlag = s.stopped;
    haltedFlag = false;
    cycleCount = s.cycles;
    instret = s.instructions;
}

// --- bus helpers -----------------------------------------------------

u8
Cpu::busRead8(Addr a, AccessKind k)
{
    pendingCycles += 4;
    return busRef.read8(a, k);
}

u16
Cpu::busRead16(Addr a, AccessKind k)
{
    pendingCycles += 4;
    return busRef.read16(a & ~1u, k);
}

u32
Cpu::busRead32(Addr a, AccessKind k)
{
    u32 hi = busRead16(a, k);
    u32 lo = busRead16(a + 2, k);
    return (hi << 16) | lo;
}

void
Cpu::busWrite8(Addr a, u8 v)
{
    pendingCycles += 4;
    busRef.write8(a, v);
}

void
Cpu::busWrite16(Addr a, u16 v)
{
    pendingCycles += 4;
    busRef.write16(a & ~1u, v);
}

void
Cpu::busWrite32(Addr a, u32 v)
{
    busWrite16(a, static_cast<u16>(v >> 16));
    busWrite16(a + 2, static_cast<u16>(v));
}

u16
Cpu::fetch16()
{
    u16 v = busRead16(pcReg, AccessKind::Fetch);
    pcReg += 2;
    return v;
}

u32
Cpu::fetch32()
{
    u32 hi = fetch16();
    u32 lo = fetch16();
    return (hi << 16) | lo;
}

// --- stack -----------------------------------------------------------

void
Cpu::push16(u16 v)
{
    areg[7] -= 2;
    busWrite16(areg[7], v);
}

void
Cpu::push32(u32 v)
{
    areg[7] -= 4;
    busWrite32(areg[7], v);
}

u16
Cpu::pop16()
{
    u16 v = busRead16(areg[7], AccessKind::Read);
    areg[7] += 2;
    return v;
}

u32
Cpu::pop32()
{
    u32 v = busRead32(areg[7], AccessKind::Read);
    areg[7] += 4;
    return v;
}

// --- flags -----------------------------------------------------------

void
Cpu::setFlag(u16 bit, bool v)
{
    if (v)
        srReg |= bit;
    else
        srReg &= ~bit;
}

void
Cpu::setNZ(u32 value, Size sz)
{
    u16 s = srReg & ~(Sr::N | Sr::Z);
    if (msb(value, sz))
        s |= Sr::N;
    if (truncSz(value, sz) == 0)
        s |= Sr::Z;
    srReg = s;
}

void
Cpu::setLogicFlags(u32 value, Size sz)
{
    u16 s = srReg & ~(Sr::N | Sr::Z | Sr::V | Sr::C);
    if (msb(value, sz))
        s |= Sr::N;
    if (truncSz(value, sz) == 0)
        s |= Sr::Z;
    srReg = s;
}

u32
Cpu::addCommon(u32 dst, u32 src, Size sz, bool useX, bool isX)
{
    u32 x = (useX && flag(Sr::X)) ? 1 : 0;
    u64 wide = static_cast<u64>(truncSz(dst, sz)) +
               static_cast<u64>(truncSz(src, sz)) + x;
    u32 r = truncSz(static_cast<u32>(wide), sz);
    bool carry = wide >> (sizeBytes(sz) * 8);
    bool sd = msb(dst, sz), ss = msb(src, sz), sr = msb(r, sz);
    u16 s = srReg & ~(Sr::C | Sr::X | Sr::V | Sr::N);
    if (carry)
        s |= Sr::C | Sr::X;
    if ((sd == ss) && (sr != sd))
        s |= Sr::V;
    if (sr)
        s |= Sr::N;
    if (isX) {
        if (r != 0)
            s &= ~Sr::Z;
    } else {
        s &= ~Sr::Z;
        if (r == 0)
            s |= Sr::Z;
    }
    srReg = s;
    return r;
}

u32
Cpu::subCommon(u32 dst, u32 src, Size sz, bool useX, bool isX)
{
    u32 x = (useX && flag(Sr::X)) ? 1 : 0;
    u32 td = truncSz(dst, sz), ts = truncSz(src, sz);
    u64 wide = static_cast<u64>(td) - static_cast<u64>(ts) - x;
    u32 r = truncSz(static_cast<u32>(wide), sz);
    bool borrow = static_cast<u64>(ts) + x > static_cast<u64>(td);
    bool sd = msb(dst, sz), ss = msb(src, sz), sr = msb(r, sz);
    u16 s = srReg & ~(Sr::C | Sr::X | Sr::V | Sr::N);
    if (borrow)
        s |= Sr::C | Sr::X;
    if ((sd != ss) && (sr != sd))
        s |= Sr::V;
    if (sr)
        s |= Sr::N;
    if (isX) {
        if (r != 0)
            s &= ~Sr::Z;
    } else {
        s &= ~Sr::Z;
        if (r == 0)
            s |= Sr::Z;
    }
    srReg = s;
    return r;
}

void
Cpu::cmpCommon(u32 dst, u32 src, Size sz)
{
    u32 td = truncSz(dst, sz), ts = truncSz(src, sz);
    u32 r = truncSz(td - ts, sz);
    bool borrow = ts > td;
    bool sd = msb(dst, sz), ss = msb(src, sz), sr = msb(r, sz);
    u16 s = srReg & ~(Sr::C | Sr::V | Sr::N | Sr::Z);
    if (borrow)
        s |= Sr::C;
    if ((sd != ss) && (sr != sd))
        s |= Sr::V;
    if (sr)
        s |= Sr::N;
    if (r == 0)
        s |= Sr::Z;
    srReg = s;
}

bool
Cpu::testCond(int cond) const
{
    bool c = flag(Sr::C), v = flag(Sr::V);
    bool z = flag(Sr::Z), n = flag(Sr::N);
    switch (cond & 0xF) {
      case 0: return true;          // T
      case 1: return false;         // F
      case 2: return !c && !z;      // HI
      case 3: return c || z;        // LS
      case 4: return !c;            // CC
      case 5: return c;             // CS
      case 6: return !z;            // NE
      case 7: return z;             // EQ
      case 8: return !v;            // VC
      case 9: return v;             // VS
      case 10: return !n;           // PL
      case 11: return n;            // MI
      case 12: return n == v;       // GE
      case 13: return n != v;       // LT
      case 14: return !z && n == v; // GT
      default: return z || n != v;  // LE
    }
}

// --- effective addresses ---------------------------------------------

Cpu::Ea
Cpu::decodeEa(int mode, int reg, Size sz)
{
    Ea ea;
    u32 step = sizeBytes(sz);
    if (reg == 7 && sz == Size::B && (mode == 3 || mode == 4))
        step = 2; // stack pointer stays word-aligned for byte ops
    switch (mode) {
      case 0:
        ea.kind = Ea::Kind::DReg;
        ea.reg = reg;
        return ea;
      case 1:
        ea.kind = Ea::Kind::AReg;
        ea.reg = reg;
        return ea;
      case 2:
        ea.kind = Ea::Kind::Mem;
        ea.addr = areg[reg];
        return ea;
      case 3:
        ea.kind = Ea::Kind::Mem;
        ea.addr = areg[reg];
        areg[reg] += step;
        return ea;
      case 4:
        ea.kind = Ea::Kind::Mem;
        areg[reg] -= step;
        ea.addr = areg[reg];
        internalCycles(2);
        return ea;
      case 5:
        ea.kind = Ea::Kind::Mem;
        ea.addr = areg[reg] + signExt(fetch16(), Size::W);
        return ea;
      case 6: {
        u16 ext = fetch16();
        u32 idx = (ext & 0x8000) ? areg[(ext >> 12) & 7]
                                 : dreg[(ext >> 12) & 7];
        if (!(ext & 0x0800))
            idx = signExt(idx, Size::W);
        ea.kind = Ea::Kind::Mem;
        ea.addr = areg[reg] + idx + signExt(ext & 0xFF, Size::B);
        internalCycles(2);
        return ea;
      }
      default: // mode 7
        switch (reg) {
          case 0:
            ea.kind = Ea::Kind::Mem;
            ea.addr = signExt(fetch16(), Size::W);
            return ea;
          case 1:
            ea.kind = Ea::Kind::Mem;
            ea.addr = fetch32();
            return ea;
          case 2: {
            u32 base = pcReg;
            ea.kind = Ea::Kind::Mem;
            ea.addr = base + signExt(fetch16(), Size::W);
            return ea;
          }
          case 3: {
            u32 base = pcReg;
            u16 ext = fetch16();
            u32 idx = (ext & 0x8000) ? areg[(ext >> 12) & 7]
                                     : dreg[(ext >> 12) & 7];
            if (!(ext & 0x0800))
                idx = signExt(idx, Size::W);
            ea.kind = Ea::Kind::Mem;
            ea.addr = base + idx + signExt(ext & 0xFF, Size::B);
            internalCycles(2);
            return ea;
          }
          case 4:
            ea.kind = Ea::Kind::Imm;
            ea.imm = sz == Size::L ? fetch32() : fetch16();
            if (sz == Size::B)
                ea.imm &= 0xFF;
            return ea;
          default:
            illegal(0);
            ea.kind = Ea::Kind::Imm;
            ea.imm = 0;
            return ea;
        }
    }
}

u32
Cpu::readEa(const Ea &ea, Size sz)
{
    switch (ea.kind) {
      case Ea::Kind::DReg:
        return truncSz(dreg[ea.reg], sz);
      case Ea::Kind::AReg:
        return truncSz(areg[ea.reg], sz);
      case Ea::Kind::Imm:
        return truncSz(ea.imm, sz);
      default:
        switch (sz) {
          case Size::B: return busRead8(ea.addr, AccessKind::Read);
          case Size::W: return busRead16(ea.addr, AccessKind::Read);
          default: return busRead32(ea.addr, AccessKind::Read);
        }
    }
}

u32
Cpu::readEaAgain(const Ea &ea, Size sz)
{
    return readEa(ea, sz);
}

void
Cpu::writeEa(const Ea &ea, Size sz, u32 value)
{
    switch (ea.kind) {
      case Ea::Kind::DReg:
        switch (sz) {
          case Size::B:
            dreg[ea.reg] = (dreg[ea.reg] & 0xFFFFFF00u) | (value & 0xFF);
            break;
          case Size::W:
            dreg[ea.reg] = (dreg[ea.reg] & 0xFFFF0000u) |
                           (value & 0xFFFF);
            break;
          default:
            dreg[ea.reg] = value;
            break;
        }
        return;
      case Ea::Kind::AReg:
        // Writes to address registers always affect all 32 bits; word
        // operands are sign-extended (MOVEA/ADDA/SUBA semantics).
        areg[ea.reg] = sz == Size::W ? signExt(value, Size::W) : value;
        return;
      case Ea::Kind::Imm:
        PT_PANIC("write to immediate EA");
        return;
      default:
        switch (sz) {
          case Size::B:
            busWrite8(ea.addr, static_cast<u8>(value));
            break;
          case Size::W:
            busWrite16(ea.addr, static_cast<u16>(value));
            break;
          default:
            busWrite32(ea.addr, value);
            break;
        }
        return;
    }
}

Addr
Cpu::decodeControlEa(int mode, int reg)
{
    if (mode <= 1 || mode == 3 || mode == 4 ||
        (mode == 7 && reg == 4)) {
        illegal(0); // control addressing modes only
        return 0;
    }
    Ea ea = decodeEa(mode, reg, Size::W);
    return ea.addr;
}

// --- exceptions -------------------------------------------------------

void
Cpu::pushException(int vector)
{
    exceptionTaken = true;
    u16 oldSr = srReg;
    setSr(static_cast<u16>((srReg | Sr::S) & ~Sr::T));
    push32(pcReg);
    push16(oldSr);
    u32 handler = busRead32(static_cast<Addr>(vector) * 4,
                            AccessKind::Read);
    if (handler == 0) {
        // An unset vector means the guest image is broken; continuing
        // would execute from address 0 and loop forever.
        haltedFlag = true;
        warn("m68k: exception vector ", vector,
             " is null at pc=", lastPcReg, "; halting");
        return;
    }
    pcReg = handler;
}

Cycles
Cpu::enterInterrupt(int level)
{
    stoppedFlag = false;
    u16 oldSr = srReg;
    setSr(static_cast<u16>((srReg | Sr::S) & ~Sr::T));
    srReg = static_cast<u16>((srReg & ~Sr::IpmMask) |
                             (level << Sr::IpmShift));
    push32(pcReg);
    push16(oldSr);
    pcReg = busRead32(static_cast<Addr>(Vector::AutovectorBase + level)
                          * 4, AccessKind::Read);
    internalCycles(24); // 44 total with the three bus transactions
    if (pcReg == 0) {
        haltedFlag = true;
        warn("m68k: autovector ", level, " is null; halting");
    }
    return pendingCycles;
}

Cycles
Cpu::doTrap(int trapNum)
{
    ++trapCount;
    if (trapHook) {
        u16 selector = 0;
        if (trapNum == 15)
            selector = busRef.peek16(pcReg);
        trapHook(*this, trapNum, selector);
    }
    pushException(Vector::TrapBase + trapNum);
    internalCycles(18); // 34 total
    return pendingCycles;
}

void
Cpu::illegal(u16 op)
{
    (void)op;
    pcReg = lastPcReg; // the frame records the faulting instruction
    pushException(Vector::IllegalInstruction);
    internalCycles(18);
}

void
Cpu::privilegeViolation()
{
    pcReg = lastPcReg;
    pushException(Vector::PrivilegeViolation);
    internalCycles(18);
}

// --- main loop ---------------------------------------------------------

void
Cpu::dispatchOp(u16 op)
{
    switch (op >> 12) {
      case 0x0: execGroup0(op); break;
      case 0x1:
      case 0x2:
      case 0x3: execMove(op); break;
      case 0x4: execGroup4(op); break;
      case 0x5: execGroup5(op); break;
      case 0x6: execGroup6(op); break;
      case 0x7: execMoveq(op); break;
      case 0x8: execGroup8(op); break;
      case 0x9: execGroup9D(op, false); break;
      case 0xA:
        pcReg = lastPcReg;
        pushException(Vector::LineA);
        internalCycles(18);
        break;
      case 0xB: execGroupB(op); break;
      case 0xC: execGroupC(op); break;
      case 0xD: execGroup9D(op, true); break;
      case 0xE: execGroupE(op); break;
      default: // 0xF
        pcReg = lastPcReg;
        pushException(Vector::LineF);
        internalCycles(18);
        break;
    }
}

Cycles
Cpu::step()
{
    pendingCycles = 0;
    exceptionTaken = false;

    if (haltedFlag)
        return 4;

    int ipm = (srReg >> Sr::IpmShift) & 7;
    if (irqLevel > ipm) {
        lastPcReg = pcReg;
        Cycles c = enterInterrupt(irqLevel);
        cycleCount += c;
        return c;
    }

    if (stoppedFlag)
        return 4;

    lastPcReg = pcReg;
    u16 op = fetch16();
    ++instret;
    if (opcodeSink)
        opcodeSink->onOpcode(op, lastPcReg);

    dispatchOp(op);

    cycleCount += pendingCycles;
    return pendingCycles;
}

} // namespace pt::m68k
