/**
 * @file
 * A from-scratch MC68000 interpreter.
 *
 * This models the 68EC000 core inside the Dragonball MC68VZ328 found in
 * the Palm m515: the full 68000 user and supervisor instruction set,
 * exception processing, and auto-vectored interrupts. Timing follows
 * the bus-dominated 68000 model: four clock cycles per 16-bit bus
 * transaction plus documented internal cycles for long operations
 * (shifts, multiply, divide, exception processing).
 *
 * The interpreter executes every instruction a physical device would —
 * palmtrace's equivalent of POSE's "Profiling enabled" mode, in which
 * native-speed shortcuts are disabled so collected traces are valid.
 */

#ifndef PT_M68K_CPU_H
#define PT_M68K_CPU_H

#include <functional>

#include "base/types.h"
#include "m68k/busif.h"

namespace pt::m68k
{

/** Operand sizes. */
enum class Size : u8 { B, W, L };

/** @return the operand width in bytes. */
constexpr u32
sizeBytes(Size s)
{
    return s == Size::B ? 1 : s == Size::W ? 2 : 4;
}

/** Status register bit positions. */
struct Sr
{
    static constexpr u16 C = 1 << 0;
    static constexpr u16 V = 1 << 1;
    static constexpr u16 Z = 1 << 2;
    static constexpr u16 N = 1 << 3;
    static constexpr u16 X = 1 << 4;
    static constexpr u16 IpmShift = 8;
    static constexpr u16 IpmMask = 7 << IpmShift;
    static constexpr u16 S = 1 << 13;
    static constexpr u16 T = 1 << 15;
    /** Bits that physically exist on a 68000 SR. */
    static constexpr u16 Implemented = T | S | IpmMask | X | N | Z | V | C;
};

/** 68000 exception vector numbers used by palmtrace. */
struct Vector
{
    static constexpr int ResetSsp = 0;
    static constexpr int ResetPc = 1;
    static constexpr int BusError = 2;
    static constexpr int AddressError = 3;
    static constexpr int IllegalInstruction = 4;
    static constexpr int DivideByZero = 5;
    static constexpr int Chk = 6;
    static constexpr int TrapV = 7;
    static constexpr int PrivilegeViolation = 8;
    static constexpr int Trace = 9;
    static constexpr int LineA = 10;
    static constexpr int LineF = 11;
    static constexpr int AutovectorBase = 24; ///< + interrupt level
    static constexpr int TrapBase = 32;       ///< + TRAP number
};

/** A complete, copyable CPU register state (checkpointing). */
struct CpuState
{
    u32 d[8] = {};
    u32 a[8] = {};
    u32 otherSp = 0;
    u32 pc = 0;
    u16 sr = 0x2700;
    bool stopped = false;
    u64 cycles = 0;
    u64 instructions = 0;
};

/** Observes every executed opcode (POSE-style opcode statistics). */
class OpcodeSink
{
  public:
    virtual ~OpcodeSink() = default;
    virtual void onOpcode(u16 opcode, u32 pc) = 0;
};

/**
 * The 68000 CPU core.
 *
 * Usage: construct over a BusIf, call reset(), then step() in a loop.
 * step() executes exactly one instruction (or one exception entry) and
 * returns the cycles it consumed.
 */
class Cpu
{
  public:
    /**
     * Observes TRAP #n execution before exception processing begins.
     * For TRAP #15 (the Palm OS system-call trap) @p selector holds the
     * 16-bit dispatch number that follows the TRAP opcode; it is zero
     * for other trap numbers. The hook may mutate CPU and (via poke)
     * memory state — this is how the replay engine feeds queued
     * KeyCurrentState bit fields and SysRandom seeds back in.
     */
    using TrapHook = std::function<void(Cpu &cpu, int trapNum,
                                        u16 selector)>;

    explicit Cpu(BusIf &bus);

    /**
     * Performs the 68000 reset sequence: SR = supervisor, interrupts
     * masked, SSP and PC fetched from the reset vector base.
     */
    void reset();

    /**
     * Sets where the reset vectors are fetched from. Palm hardware maps
     * the flash ROM over low memory at reset; palmtrace models that by
     * pointing the reset fetch at the ROM base directly.
     */
    void setResetVectorBase(Addr base) { resetVectorBase = base; }

    /** Executes one instruction or exception entry. @return cycles. */
    Cycles step();

    /**
     * Asserts the encoded interrupt priority level (0 = none, 7 = NMI).
     * Level-sensitive: the device holds the level until acknowledged.
     */
    void setIrqLevel(int level) { irqLevel = level & 7; }

    /** Installs the TRAP observation hook (replay engine). */
    void setTrapHook(TrapHook hook) { trapHook = std::move(hook); }

    /** Installs (or clears) the executed-opcode sink. */
    void setOpcodeSink(OpcodeSink *sink) { opcodeSink = sink; }

    /** @return true after STOP until an interrupt is accepted. */
    bool stopped() const { return stoppedFlag; }

    /** Host-side: clears the STOP state (ad-hoc guest programs). */
    void wake() { stoppedFlag = false; }

    /** @return true when the CPU double-faulted and cannot continue. */
    bool halted() const { return haltedFlag; }

    // Register file access (host-side tooling and tests).
    u32 d(int i) const { return dreg[i]; }
    void setD(int i, u32 v) { dreg[i] = v; }
    u32 a(int i) const { return areg[i]; }
    void setA(int i, u32 v) { areg[i] = v; }
    u32 pc() const { return pcReg; }
    void setPc(u32 v) { pcReg = v; }
    u16 sr() const { return srReg; }
    void setSr(u16 v);
    u32 usp() const;
    void setUsp(u32 v);

    /** @return the PC of the most recently started instruction. */
    u32 lastPc() const { return lastPcReg; }

    /** Captures the complete register state (checkpointing). */
    CpuState saveState() const;
    /** Restores a previously captured register state. */
    void loadState(const CpuState &state);

    u64 instructionsRetired() const { return instret; }
    Cycles totalCycles() const { return cycleCount; }

    /** TRAP instructions executed (profiling: system-call rate). */
    u64 trapsTaken() const { return trapCount; }

    BusIf &bus() { return busRef; }

  private:
    // --- bus helpers (count cycles: 4 per 16-bit transaction) ---
    u8 busRead8(Addr a, AccessKind k);
    u16 busRead16(Addr a, AccessKind k);
    u32 busRead32(Addr a, AccessKind k);
    void busWrite8(Addr a, u8 v);
    void busWrite16(Addr a, u16 v);
    void busWrite32(Addr a, u32 v);
    u16 fetch16();
    u32 fetch32();

    // --- effective addresses ---
    struct Ea
    {
        enum class Kind : u8 { DReg, AReg, Mem, Imm };
        Kind kind;
        int reg = 0;
        Addr addr = 0;
        u32 imm = 0;
    };

    /**
     * Decodes one effective address field, consuming extension words
     * and applying (An)+ / -(An) side effects.
     */
    Ea decodeEa(int mode, int reg, Size sz);
    u32 readEa(const Ea &ea, Size sz);
    void writeEa(const Ea &ea, Size sz, u32 value);
    /** Re-reads a previously decoded EA without re-applying effects. */
    u32 readEaAgain(const Ea &ea, Size sz);
    /** Decodes a control-mode EA (LEA/JMP/PEA): address only. */
    Addr decodeControlEa(int mode, int reg);

    // --- flags ---
    bool flag(u16 bit) const { return srReg & bit; }
    void setFlag(u16 bit, bool v);
    void setNZ(u32 value, Size sz);
    void setLogicFlags(u32 value, Size sz);
    u32 addCommon(u32 dst, u32 src, Size sz, bool useX, bool isX);
    u32 subCommon(u32 dst, u32 src, Size sz, bool useX, bool isX);
    void cmpCommon(u32 dst, u32 src, Size sz);
    bool testCond(int cond) const;

    // --- exceptions ---
    void pushException(int vector);
    Cycles enterInterrupt(int level);
    Cycles doTrap(int trapNum);
    [[noreturn]] void busErrorHalt(Addr addr);

    // --- stack helpers ---
    void push16(u16 v);
    void push32(u32 v);
    u16 pop16();
    u32 pop32();

    // --- instruction groups (one .cc file per group) ---
    void execGroup0(u16 op); // immediates, bit ops, MOVEP
    void execMove(u16 op);   // groups 1-3
    void execGroup4(u16 op); // misc
    void execGroup5(u16 op); // ADDQ/SUBQ/Scc/DBcc
    void execGroup6(u16 op); // Bcc/BRA/BSR
    void execMoveq(u16 op);  // group 7
    void execGroup8(u16 op); // OR/DIV/SBCD
    void execGroup9D(u16 op, bool isAdd); // SUB/ADD families
    void execGroupB(u16 op); // CMP/EOR/CMPM
    void execGroupC(u16 op); // AND/MUL/ABCD/EXG
    void execGroupE(u16 op); // shifts and rotates

    // shared helpers used by several groups
    void execShift(int type, bool left, Size sz, u32 count, int reg);
    void execShiftMem(int type, bool left, u16 op);
    void execBitOp(u16 op, u32 bitNum);
    void execMovem(u16 op, bool toMem, Size sz);
    u32 bcdAdd(u32 dst, u32 src);
    u32 bcdSub(u32 dst, u32 src);

    /** Adds internal (non-bus) cycles to the current instruction. */
    void internalCycles(Cycles c) { pendingCycles += c; }

    /** Raises an illegal-instruction exception for this opcode. */
    void illegal(u16 op);
    /** Raises a privilege-violation exception. */
    void privilegeViolation();

    /** Routes one opcode word to its exec group. */
    void dispatchOp(u16 op);

    BusIf &busRef;
    u32 dreg[8] = {};
    u32 areg[8] = {}; ///< areg[7] is the active stack pointer
    u32 otherSp = 0;  ///< the inactive stack pointer (USP or SSP)
    u32 pcReg = 0;
    u32 lastPcReg = 0;
    u16 srReg = 0x2700;
    Addr resetVectorBase = 0;
    int irqLevel = 0;
    bool stoppedFlag = false;
    bool haltedFlag = false;
    bool exceptionTaken = false; ///< set when the op raised an exception
    Cycles pendingCycles = 0;    ///< accumulates during one step()
    Cycles cycleCount = 0;
    u64 instret = 0;
    u64 trapCount = 0;
    TrapHook trapHook;
    OpcodeSink *opcodeSink = nullptr;

};

} // namespace pt::m68k

#endif // PT_M68K_CPU_H
