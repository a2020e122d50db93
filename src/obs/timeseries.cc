#include "timeseries.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace pt::obs
{

namespace
{

/**
 * Prefix-rounded instruction split: of @p dI instructions retired
 * over @p dC cycles, how many fall in the first @p off cycles. Pure
 * in its arguments and monotonic in @p off, so consecutive interval
 * attributions (prefix(end) - prefix(start)) are non-negative and
 * sum exactly to dI — the foundation of the byte-identity contract.
 */
u64
prefixInstr(u64 dI, u64 off, u64 dC)
{
    if (dC == 0)
        return off ? dI : 0;
    return static_cast<u64>(
        static_cast<unsigned __int128>(dI) * off / dC);
}

/** Deterministic double rendering shared by JSONL and CSV. */
std::string
fmtNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    if (v == static_cast<double>(static_cast<s64>(v)) &&
        std::fabs(v) < 9e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.9g", v);
    }
    return buf;
}

} // namespace

bool
Timeseries::Row::zero() const
{
    return cycles == 0 && instructions == 0 && ifetch == 0 &&
           dread == 0 && dwrite == 0 && ramRefs == 0 &&
           flashRefs == 0 && l1Hits == 0 && l1Misses == 0 &&
           l2Hits == 0 && l2Misses == 0 && events == 0;
}

Timeseries::Timeseries(u64 intervalWidth, Domain d)
    : width(intervalWidth ? intervalWidth : kDefaultIntervalCycles),
      dom(d)
{}

Timeseries::Row &
Timeseries::row(u64 idx)
{
    if (idx == cachedIdx && cachedRow)
        return *cachedRow;
    Row &r = intervals[idx];
    cachedIdx = idx;
    cachedRow = &r;
    return r;
}

void
Timeseries::observe(u64 cycles, u64 instructions)
{
    if (!started) {
        started = true;
        prevCycles = cycles;
        prevInstructions = instructions;
        return;
    }
    if (cycles < prevCycles || instructions < prevInstructions)
        return;
    const u64 dC = cycles - prevCycles;
    const u64 dI = instructions - prevInstructions;
    if (dC == 0) {
        if (dI)
            row(prevCycles / width).instructions += dI;
        prevInstructions = instructions;
        return;
    }
    u64 c0 = prevCycles;
    while (c0 < cycles) {
        const u64 k = c0 / width;
        const u64 end = std::min(cycles, (k + 1) * width);
        Row &r = row(k);
        r.cycles += end - c0;
        r.instructions += prefixInstr(dI, end - prevCycles, dC) -
                          prefixInstr(dI, c0 - prevCycles, dC);
        c0 = end;
    }
    prevCycles = cycles;
    prevInstructions = instructions;
}

void
Timeseries::addRef(u64 cycle, TsRef kind, bool isFlash)
{
    const u64 pos = dom == Domain::Refs ? refCursor++ : cycle;
    Row &r = row(pos / width);
    switch (kind) {
      case TsRef::Ifetch: ++r.ifetch; break;
      case TsRef::Dread: ++r.dread; break;
      case TsRef::Dwrite: ++r.dwrite; break;
    }
    if (isFlash)
        ++r.flashRefs;
    else
        ++r.ramRefs;
}

void
Timeseries::addCache(u64 cycle, int level, bool hit)
{
    // In the ref domain the cache outcome belongs to the ref that was
    // just attributed, i.e. the previous cursor position.
    const u64 pos =
        dom == Domain::Refs ? (refCursor ? refCursor - 1 : 0) : cycle;
    Row &r = row(pos / width);
    if (level == 1) {
        if (hit)
            ++r.l1Hits;
        else
            ++r.l1Misses;
    } else {
        if (hit)
            ++r.l2Hits;
        else
            ++r.l2Misses;
    }
}

void
Timeseries::noteEvent(u64 cycle)
{
    const u64 pos =
        dom == Domain::Refs ? (refCursor ? refCursor - 1 : 0) : cycle;
    ++row(pos / width).events;
}

std::string
Timeseries::toJsonl() const
{
    std::ostringstream os;
    os << "{\"schema\": \"palmtrace-timeseries-v1\", \"domain\": \""
       << (dom == Domain::Refs ? "refs" : "cycles")
       << "\", \"interval\": " << width << "}\n";
    for (const auto &[idx, r] : intervals) {
        if (r.zero())
            continue;
        const u64 refs = r.ramRefs + r.flashRefs;
        const double ipc =
            r.cycles ? static_cast<double>(r.instructions) /
                           static_cast<double>(r.cycles)
                     : 0.0;
        const double flashFrac =
            refs ? static_cast<double>(r.flashRefs) /
                       static_cast<double>(refs)
                 : 0.0;
        const double energyMj =
            (static_cast<double>(r.ramRefs) * ramEnergyNj +
             static_cast<double>(r.flashRefs) * flashEnergyNj) *
            1e-6;
        os << "{\"interval\": " << idx << ", \"start\": "
           << idx * width << ", \"cycles\": " << r.cycles
           << ", \"instructions\": " << r.instructions
           << ", \"ipc\": " << fmtNum(ipc)
           << ", \"ifetch\": " << r.ifetch
           << ", \"dread\": " << r.dread
           << ", \"dwrite\": " << r.dwrite
           << ", \"ram_refs\": " << r.ramRefs
           << ", \"flash_refs\": " << r.flashRefs
           << ", \"flash_fraction\": " << fmtNum(flashFrac)
           << ", \"l1_hits\": " << r.l1Hits
           << ", \"l1_misses\": " << r.l1Misses
           << ", \"l2_hits\": " << r.l2Hits
           << ", \"l2_misses\": " << r.l2Misses
           << ", \"energy_mj\": " << fmtNum(energyMj)
           << ", \"events\": " << r.events << "}\n";
    }
    return os.str();
}

std::string
Timeseries::toCsv() const
{
    std::ostringstream os;
    os << "interval,start,cycles,instructions,ipc,ifetch,dread,"
          "dwrite,ram_refs,flash_refs,flash_fraction,l1_hits,"
          "l1_misses,l2_hits,l2_misses,energy_mj,events\n";
    for (const auto &[idx, r] : intervals) {
        if (r.zero())
            continue;
        const u64 refs = r.ramRefs + r.flashRefs;
        const double ipc =
            r.cycles ? static_cast<double>(r.instructions) /
                           static_cast<double>(r.cycles)
                     : 0.0;
        const double flashFrac =
            refs ? static_cast<double>(r.flashRefs) /
                       static_cast<double>(refs)
                 : 0.0;
        const double energyMj =
            (static_cast<double>(r.ramRefs) * ramEnergyNj +
             static_cast<double>(r.flashRefs) * flashEnergyNj) *
            1e-6;
        os << idx << ',' << idx * width << ',' << r.cycles << ','
           << r.instructions << ',' << fmtNum(ipc) << ','
           << r.ifetch << ',' << r.dread << ',' << r.dwrite << ','
           << r.ramRefs << ',' << r.flashRefs << ','
           << fmtNum(flashFrac) << ',' << r.l1Hits << ','
           << r.l1Misses << ',' << r.l2Hits << ',' << r.l2Misses
           << ',' << fmtNum(energyMj) << ',' << r.events << "\n";
    }
    return os.str();
}

bool
Timeseries::writeFile(const std::string &path,
                      std::string *errOut) const
{
    const bool csv = path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".csv") == 0;
    const std::string body = csv ? toCsv() : toJsonl();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        if (errOut)
            *errOut = path + ": cannot open for writing";
        return false;
    }
    bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok && errOut)
        *errOut = path + ": short write";
    return ok;
}

} // namespace pt::obs
