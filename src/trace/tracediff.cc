#include "tracediff.h"

#include <cstdio>

#include "trace/dinero.h"

namespace pt::trace
{

TraceFormat
sniffTraceFormat(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return TraceFormat::Unreadable;
    u8 b[4] = {0, 0, 0, 0};
    std::size_t got = std::fread(b, 1, sizeof(b), f);
    std::fclose(f);
    if (got == 4) {
        u32 magic = static_cast<u32>(b[0]) |
                    static_cast<u32>(b[1]) << 8 |
                    static_cast<u32>(b[2]) << 16 |
                    static_cast<u32>(b[3]) << 24;
        if (magic == kTraceMagic)
            return TraceFormat::RetiredPttr;
        if (magic == kPackedMagic)
            return TraceFormat::Packed;
    }
    return TraceFormat::Din;
}

LoadResult
retiredPttrError()
{
    return LoadResult::fail(0, "magic",
                            "PTTR raw traces were retired; no command "
                            "reads them any more (use din or PTPK)");
}

u8
dinLabelToKind(u8 label)
{
    return label == DinLabel::Fetch  ? 0
           : label == DinLabel::Read ? 1
                                     : 2;
}

u8
kindToDinLabel(u8 kind)
{
    return kind == 0   ? DinLabel::Fetch
           : kind == 1 ? DinLabel::Read
                       : DinLabel::Write;
}

const char *
recordKindName(u8 kind)
{
    return kind == 0 ? "fetch" : kind == 1 ? "read" : "write";
}

bool
TraceSource::open(const std::string &path)
{
    switch (sniffTraceFormat(path)) {
      case TraceFormat::Unreadable:
        err = "cannot read file";
        return false;
      case TraceFormat::Packed: {
        packed = true;
        if (auto r = reader.open(path); !r) {
            err = r.message();
            return false;
        }
        return true;
      }
      case TraceFormat::RetiredPttr:
        err = retiredPttrError().message();
        return false;
      case TraceFormat::Din: {
        // Dinero text carries no RAM/flash class; records read back
        // as class 0 (ram), matching what unpack wrote.
        DineroStats st;
        s64 n = readDineroFile(
            path,
            [&](Addr addr, u8 label) {
                all.push_back({addr, dinLabelToKind(label), 0});
            },
            &st);
        if (n < 0) {
            err = "cannot read file";
            return false;
        }
        if (st.malformed || st.overlong) {
            err = "not a din trace: " + std::to_string(st.malformed) +
                  " malformed line(s), " +
                  std::to_string(st.overlong) + " overlong line(s)";
            return false;
        }
        return true;
      }
    }
    return false;
}

bool
TraceSource::next(TraceRecord &out)
{
    if (!packed) {
        if (pos >= all.size())
            return false;
        out = all[pos++];
        return true;
    }
    while (bpos >= block.size()) {
        if (!reader.nextBlock(block)) {
            if (!reader.status())
                err = reader.status().message();
            return false;
        }
        bpos = 0;
    }
    out = block[bpos++];
    return true;
}

namespace
{

std::string
describeRecord(const TraceRecord &r)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %s 0x%08X",
                  r.cls ? "flash" : "ram", recordKindName(r.kind),
                  r.addr);
    return buf;
}

} // namespace

DiffResult
diffTraces(const std::string &pathA, const std::string &pathB)
{
    DiffResult res;
    TraceSource srcA, srcB;
    if (!srcA.open(pathA)) {
        res.detail = pathA + ": " + srcA.error();
        return res;
    }
    if (!srcB.open(pathB)) {
        res.detail = pathB + ": " + srcB.error();
        return res;
    }

    for (;;) {
        TraceRecord ra, rb;
        bool haveA = srcA.next(ra);
        bool haveB = srcB.next(rb);
        if (!srcA.error().empty()) {
            res.detail = pathA + ": " + srcA.error();
            return res;
        }
        if (!srcB.error().empty()) {
            res.detail = pathB + ": " + srcB.error();
            return res;
        }
        if (!haveA && !haveB)
            break;
        if (haveA != haveB) {
            res.outcome = DiffOutcome::Differ;
            res.detail =
                "traces diverge at record " +
                std::to_string(res.records) + ": " +
                (haveA ? pathB : pathA) + " ends, " +
                (haveA ? pathA : pathB) + " continues with [" +
                describeRecord(haveA ? ra : rb) + "]";
            return res;
        }
        if (ra.addr != rb.addr || ra.kind != rb.kind ||
            ra.cls != rb.cls) {
            res.outcome = DiffOutcome::Differ;
            res.detail = "traces diverge at record " +
                         std::to_string(res.records) + ":\n  " +
                         pathA + ": [" + describeRecord(ra) +
                         "]\n  " + pathB + ": [" +
                         describeRecord(rb) + "]";
            return res;
        }
        ++res.records;
    }
    res.outcome = DiffOutcome::Identical;
    return res;
}

} // namespace pt::trace
