#include "memtrace.h"

#include <algorithm>
#include <map>

namespace pt::trace
{

double
RefCounter::avgMemCycles() const
{
    u64 t = totalRefs();
    if (!t)
        return 0.0;
    return (static_cast<double>(ram) * kRamCycles +
            static_cast<double>(flash) * kFlashCycles) /
           static_cast<double>(t);
}

std::string
opcodeGroup(u16 op)
{
    switch (op >> 12) {
      case 0x0:
        if (op & 0x0100)
            return ((op >> 3) & 7) == 1 ? "movep" : "bitop";
        if (((op >> 9) & 7) == 4)
            return "bitop";
        switch ((op >> 9) & 7) {
          case 0: return "ori";
          case 1: return "andi";
          case 2: return "subi";
          case 3: return "addi";
          case 5: return "eori";
          case 6: return "cmpi";
          default: return "imm?";
        }
      case 0x1:
      case 0x2:
      case 0x3:
        return ((op >> 6) & 7) == 1 ? "movea" : "move";
      case 0x4:
        if ((op & 0xFFC0) == 0x4E80) return "jsr";
        if ((op & 0xFFC0) == 0x4EC0) return "jmp";
        if ((op & 0xF1C0) == 0x41C0) return "lea";
        if ((op & 0xFFF0) == 0x4E40) return "trap";
        if (op == 0x4E75) return "rts";
        if (op == 0x4E73) return "rte";
        if (op == 0x4E71) return "nop";
        if (op == 0x4E72) return "stop";
        if ((op & 0xFF80) == 0x4880 && ((op >> 3) & 7) != 0)
            return "movem";
        if ((op & 0xFF80) == 0x4C80) return "movem";
        if ((op & 0xFF00) == 0x4200) return "clr";
        if ((op & 0xFF00) == 0x4A00) return "tst";
        return "misc4";
      case 0x5:
        if (((op >> 6) & 3) == 3)
            return ((op >> 3) & 7) == 1 ? "dbcc" : "scc";
        return (op & 0x0100) ? "subq" : "addq";
      case 0x6: {
        int cond = (op >> 8) & 0xF;
        return cond == 0 ? "bra" : cond == 1 ? "bsr" : "bcc";
      }
      case 0x7:
        return "moveq";
      case 0x8:
        return (((op >> 6) & 7) == 3 || ((op >> 6) & 7) == 7)
            ? "div" : "or";
      case 0x9:
        return "sub";
      case 0xB:
        return ((op >> 8) & 1) && ((op >> 6) & 3) != 3 ? "eor/cmpm"
                                                       : "cmp";
      case 0xC:
        return (((op >> 6) & 7) == 3 || ((op >> 6) & 7) == 7)
            ? "mul" : "and";
      case 0xD:
        return "add";
      case 0xE:
        return "shift";
      default:
        return "line?";
    }
}

std::vector<std::pair<std::string, u64>>
OpcodeHistogram::byGroup() const
{
    std::map<std::string, u64> groups;
    for (u32 op = 0; op < 65536; ++op)
        if (counts[op])
            groups[opcodeGroup(static_cast<u16>(op))] += counts[op];
    std::vector<std::pair<std::string, u64>> out(groups.begin(),
                                                 groups.end());
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    return out;
}

} // namespace pt::trace
