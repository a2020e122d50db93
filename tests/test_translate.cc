/**
 * @file
 * Translation-cache differential suite (DESIGN.md §15).
 *
 * The translation cache is only allowed to exist because it is
 * bit-identical to the interpreter; every test here is a referee for
 * that claim. Whole-session replays are compared byte-for-byte
 * (packed trace, checkpoint fingerprints, instruction and cycle
 * totals) across engines; randomized legal instruction sequences
 * run in lockstep on both engines with shrink-on-failure
 * disassembly; self-modifying-code
 * edges (same block, adjacent block, patched extension words) and
 * checkpoint-restore invalidation are exercised on the real device;
 * and the flat page-table bus is probed at every region edge where
 * the old range classifier read one byte past the end.
 */

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/palmsim.h"
#include "device/checkpoint.h"
#include "device/device.h"
#include "m68k/disasm.h"
#include "m68k/execmode.h"
#include "os/guestrun.h"
#include "testutil.h"
#include "trace/packedtrace.h"
#include "trace/tracediff.h"
#include "workload/usermodel.h"

namespace pt
{
namespace
{

using m68k::Cond;
using m68k::ExecMode;
using m68k::Size;
namespace ops = m68k::ops;

/** Scoped override of the process-default execution engine. */
struct ModeGuard
{
    explicit ModeGuard(ExecMode m)
        : prev(m68k::defaultExecMode())
    {
        m68k::setDefaultExecMode(m);
    }
    ~ModeGuard() { m68k::setDefaultExecMode(prev); }
    ExecMode prev;
};

workload::UserModelConfig
sessionCfg(u64 seed)
{
    workload::UserModelConfig cfg;
    cfg.seed = seed;
    cfg.interactions = 4;
    cfg.meanIdleTicks = 2'000;
    return cfg;
}

std::string
tmpFile(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

std::vector<u8>
readFileBytes(const std::string &path)
{
    std::vector<u8> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size())
        bytes.clear();
    std::fclose(f);
    return bytes;
}

/** Profiled replay into a packed trace, returning the full result. */
core::ReplayResult
packedReplay(const core::Session &s, const std::string &path)
{
    trace::PackedTraceWriter w(path);
    trace::PackedWriterSink sink(w);
    core::ReplayConfig cfg;
    cfg.extraRefSink = &sink;
    core::ReplayResult r = core::PalmSimulator::replaySession(s, cfg);
    EXPECT_TRUE(w.close());
    return r;
}

// ---------------------------------------------------------------------
// Whole-session differential: the acceptance gate. A full collected
// session replayed under the translator must produce a byte-identical
// packed trace (trace-diff oracle AND raw cmp), the same snapshot
// fingerprint, and the same instruction/cycle/reference totals.
// ---------------------------------------------------------------------

TEST(TranslateDifferential, SessionReplayBitIdentical)
{
    core::Session s;
    std::string seqPath = tmpFile("pt_tr_seq.ptpk");
    core::ReplayResult interp;
    {
        ModeGuard g(ExecMode::Interp);
        s = core::PalmSimulator::collect(sessionCfg(21));
        interp = packedReplay(s, seqPath);
    }
    ASSERT_GT(interp.refs.totalRefs(), 0u);

    std::string trPath = tmpFile("pt_tr_trans.ptpk");
    core::ReplayResult trans;
    {
        ModeGuard g(ExecMode::Translate);
        trans = packedReplay(s, trPath);
    }

    trace::DiffResult diff = trace::diffTraces(seqPath, trPath);
    EXPECT_EQ(diff.outcome, trace::DiffOutcome::Identical)
        << diff.detail;

    std::vector<u8> seqBytes = readFileBytes(seqPath);
    std::vector<u8> trBytes = readFileBytes(trPath);
    ASSERT_FALSE(seqBytes.empty());
    EXPECT_TRUE(seqBytes == trBytes)
        << "packed traces are not byte-identical";

    EXPECT_EQ(trans.finalState.fingerprint(),
              interp.finalState.fingerprint());
    EXPECT_EQ(trans.instructions, interp.instructions);
    EXPECT_EQ(trans.cycles, interp.cycles);
    EXPECT_EQ(trans.refs.totalRefs(), interp.refs.totalRefs());
    EXPECT_EQ(trans.refs.ramRefs(), interp.refs.ramRefs());
    EXPECT_EQ(trans.refs.flashRefs(), interp.refs.flashRefs());

    std::remove(seqPath.c_str());
    std::remove(trPath.c_str());
}

// ---------------------------------------------------------------------
// Randomized property tests: seeded legal instruction sequences run in
// lockstep on both engines. On divergence the failing program is
// shrunk (trailing instructions dropped while the divergence persists)
// and disassembled into the failure message.
// ---------------------------------------------------------------------

constexpr Addr kDataBase = 0x40000;

struct Rng
{
    explicit Rng(u64 seed)
        : s(seed * 0x9E3779B97F4A7C15ull | 1)
    {}
    u64
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    u64 s;
};

/** Emits one record's instruction(s). Every case is legal, cannot
 *  fault, and terminates: stores stay inside the data area, loop
 *  counters are distinct from loop bodies, divisors are forced
 *  nonzero. */
void
emitRecord(m68k::CodeBuilder &b, u64 r)
{
    static const Size kSizes[3] = {Size::B, Size::W, Size::L};
    int x = static_cast<int>((r >> 8) & 7);
    int y = static_cast<int>((r >> 16) & 7);
    Size sz = kSizes[(r >> 24) % 3];
    u32 imm = static_cast<u32>(r >> 32);
    switch (r & 15) {
      case 0:
        b.moveq(static_cast<s8>(r >> 8), y);
        break;
      case 1:
        b.move(sz, ops::dr(x), ops::dr(y));
        break;
      case 2:
        b.add(sz, ops::dr(x), ops::dr(y));
        break;
      case 3:
        b.sub(sz, ops::dr(x), ops::dr(y));
        break;
      case 4:
        b.and_(sz, ops::dr(x), ops::dr(y));
        break;
      case 5:
        b.or_(sz, ops::dr(x), ops::dr(y));
        break;
      case 6:
        b.eor(sz, x, ops::dr(y));
        break;
      case 7:
        b.addi(sz, imm, ops::dr(y));
        break;
      case 8: {
        int count = 1 + static_cast<int>((r >> 32) % 8);
        switch ((r >> 28) & 7) {
          case 0: b.lsl(sz, count, y); break;
          case 1: b.lsr(sz, count, y); break;
          case 2: b.asl(sz, count, y); break;
          case 3: b.asr(sz, count, y); break;
          case 4: b.rol(sz, count, y); break;
          case 5: b.ror(sz, count, y); break;
          default: b.lslr(sz, x, y, ((r >> 31) & 1) != 0); break;
        }
        break;
      }
      case 9:
        switch ((r >> 28) % 6) {
          case 0: b.ext(sz == Size::B ? Size::W : sz, y); break;
          case 1: b.swap(y); break;
          case 2: b.not_(sz, ops::dr(y)); break;
          case 3: b.neg(sz, ops::dr(y)); break;
          case 4: b.clr(sz, ops::dr(y)); break;
          default: b.tst(sz, ops::dr(y)); break;
        }
        break;
      case 10:
        b.cmp(sz, ops::dr(x), y);
        break;
      case 11:
        b.move(sz, ops::dr(x), ops::ind(6));
        break;
      case 12:
        b.move(sz, ops::ind(5), ops::dr(x));
        break;
      case 13:
        b.move(Size::L, ops::dr(x), ops::postinc(6));
        b.move(Size::L, ops::predec(6), ops::dr(y));
        break;
      case 14: {
        // Forward conditional over one instruction; taken or not,
        // both engines converge at the bound label. Cond::F would
        // assemble as BSR, so conditions start at HI.
        Cond c = static_cast<Cond>(2 + ((r >> 28) % 14));
        int skip = b.newLabel();
        b.bcc(c, skip);
        b.moveq(static_cast<s8>(r >> 40), x);
        b.bind(skip);
        break;
      }
      default: {
        // A short DBRA loop; the counter register must differ from
        // the body register or the loop would never terminate.
        if (y == x)
            y = (x + 1) & 7;
        b.moveq(static_cast<s8>((r >> 32) % 5), x);
        int loop = b.hereLabel();
        b.addq(Size::L, 1, ops::dr(y));
        b.dbra(x, loop);
        break;
      }
    }
}

m68k::CodeBuilder
buildProgram(const std::vector<u64> &recs)
{
    m68k::CodeBuilder b(test::CpuHarness::kCodeBase);
    b.lea(ops::absl(kDataBase), 6);
    b.lea(ops::absl(kDataBase + 0x200), 5);
    for (int i = 0; i < 8; ++i)
        b.move(Size::L, ops::imm(0x11223344u + 0x01010101u *
                                 static_cast<u32>(i)), ops::dr(i));
    for (u64 r : recs)
        emitRecord(b, r);
    b.stop(0x2700);
    return b;
}

bool
sameCpuState(const m68k::Cpu &a, const m68k::Cpu &b)
{
    for (int i = 0; i < 8; ++i)
        if (a.d(i) != b.d(i) || a.a(i) != b.a(i))
            return false;
    return a.pc() == b.pc() && a.sr() == b.sr() &&
           a.totalCycles() == b.totalCycles() &&
           a.instructionsRetired() == b.instructionsRetired() &&
           a.stopped() == b.stopped();
}

struct LockstepResult
{
    s64 divergeStep = -1; ///< -1: engines agreed all the way
    std::string detail;
    m68k::translate::CacheStats stats;
};

LockstepResult
runLockstep(const std::vector<u64> &recs, u64 maxSteps = 4000)
{
    LockstepResult res;
    test::CpuHarness hi;
    test::CpuHarness ht;
    hi.cpu.setExecMode(ExecMode::Interp);
    ht.cpu.setExecMode(ExecMode::Translate);
    m68k::CodeBuilder bi = buildProgram(recs);
    m68k::CodeBuilder bt = buildProgram(recs);
    hi.load(bi);
    ht.load(bt);

    for (u64 s = 0; s < maxSteps; ++s) {
        if (hi.cpu.stopped() && ht.cpu.stopped())
            break;
        hi.cpu.step();
        ht.cpu.step();
        if (!sameCpuState(hi.cpu, ht.cpu)) {
            std::ostringstream os;
            os << "step " << s << ": interp pc=" << std::hex
               << hi.cpu.pc() << " sr=" << hi.cpu.sr()
               << " cycles=" << std::dec << hi.cpu.totalCycles()
               << " vs translate pc=" << std::hex << ht.cpu.pc()
               << " sr=" << ht.cpu.sr() << " cycles=" << std::dec
               << ht.cpu.totalCycles();
            for (int i = 0; i < 8; ++i)
                if (hi.cpu.d(i) != ht.cpu.d(i))
                    os << " d" << i << "=" << std::hex << hi.cpu.d(i)
                       << "/" << ht.cpu.d(i) << std::dec;
            res.divergeStep = static_cast<s64>(s);
            res.detail = os.str();
            res.stats = ht.cpu.translateStats();
            return res;
        }
    }
    if (!hi.cpu.stopped() || !ht.cpu.stopped()) {
        res.divergeStep = static_cast<s64>(maxSteps);
        res.detail = "program did not reach STOP on both engines";
        res.stats = ht.cpu.translateStats();
        return res;
    }
    for (Addr a = kDataBase; a < kDataBase + 0x400; ++a) {
        if (hi.bus.peek8(a) != ht.bus.peek8(a)) {
            std::ostringstream os;
            os << "data byte differs at " << std::hex << a;
            res.divergeStep = 0;
            res.detail = os.str();
            break;
        }
    }
    res.stats = ht.cpu.translateStats();
    return res;
}

/** Disassembles a failing program for the test log. */
std::string
disassembleProgram(const std::vector<u64> &recs)
{
    test::CpuHarness h;
    m68k::CodeBuilder b = buildProgram(recs);
    std::vector<u8> bytes = b.finalize();
    h.bus.load(test::CpuHarness::kCodeBase, bytes);
    std::ostringstream os;
    Addr at = test::CpuHarness::kCodeBase;
    Addr end = at + static_cast<Addr>(bytes.size());
    while (at < end) {
        m68k::DisasmResult d = m68k::disassemble(h.bus, at);
        os << "  " << std::hex << at << std::dec << ": " << d.text
           << "\n";
        at += d.length;
    }
    return os.str();
}

TEST(TranslateRandomized, SeededProgramsMatchInterpreterInLockstep)
{
    u64 cacheHits = 0;
    for (u64 seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        std::vector<u64> recs(10 + rng.next() % 30);
        for (u64 &r : recs)
            r = rng.next();

        LockstepResult res = runLockstep(recs);
        cacheHits += res.stats.hits;
        if (res.divergeStep < 0)
            continue;

        // Shrink: drop trailing instructions while the divergence
        // persists, then report the minimal program's disassembly.
        std::vector<u64> minimal = recs;
        while (minimal.size() > 1) {
            std::vector<u64> cand(minimal.begin(), minimal.end() - 1);
            if (runLockstep(cand).divergeStep < 0)
                break;
            minimal = cand;
        }
        LockstepResult minRes = runLockstep(minimal);
        FAIL() << "seed " << seed << " diverged: " << res.detail
               << "\nminimal program (" << minimal.size()
               << " records): " << minRes.detail << "\n"
               << disassembleProgram(minimal);
    }
    // The property run is only meaningful if the translator actually
    // served micro-ops from cached blocks.
    EXPECT_GT(cacheHits, 0u);
}

// ---------------------------------------------------------------------
// Self-modifying code on the real device: writes into the executing
// block, into an already-translated adjacent block, and into a later
// instruction's extension words must all retranslate and land on the
// interpreter's exact trace.
// ---------------------------------------------------------------------

struct GuestResult
{
    u32 d[8] = {0};
    u64 cycles = 0;
    u64 instret = 0;
    u64 ramRefs = 0;
    u64 flashRefs = 0;
    m68k::translate::CacheStats stats;
};

GuestResult
runGuest(ExecMode mode,
         const std::function<void(m68k::CodeBuilder &)> &emit)
{
    device::Device dev;
    dev.cpu().setExecMode(mode);
    os::GuestRunner runner(dev);
    runner.run(emit);
    GuestResult g;
    for (int i = 0; i < 8; ++i)
        g.d[i] = dev.cpu().d(i);
    g.cycles = dev.cpu().totalCycles();
    g.instret = dev.instructionsRetired();
    g.ramRefs = dev.bus().ramRefs();
    g.flashRefs = dev.bus().flashRefs();
    g.stats = dev.cpu().translateStats();
    return g;
}

void
expectGuestsMatch(const GuestResult &i, const GuestResult &t)
{
    for (int r = 0; r < 8; ++r)
        EXPECT_EQ(t.d[r], i.d[r]) << "d" << r;
    EXPECT_EQ(t.cycles, i.cycles);
    EXPECT_EQ(t.instret, i.instret);
    EXPECT_EQ(t.ramRefs, i.ramRefs);
    EXPECT_EQ(t.flashRefs, i.flashRefs);
}

TEST(TranslateSmc, WriteIntoExecutingBlockRetranslates)
{
    // The store patches "moveq #1,d0" (later in the SAME block) into
    // "moveq #2,d0" before execution reaches it.
    auto emit = [](m68k::CodeBuilder &b) {
        int patch = b.newLabel();
        b.lea(ops::abslbl(patch), 0);
        b.move(Size::W, ops::imm(0x7002), ops::ind(0));
        b.bind(patch);
        b.moveq(1, 0);
        b.stop(0x2700);
    };
    GuestResult interp = runGuest(ExecMode::Interp, emit);
    GuestResult trans = runGuest(ExecMode::Translate, emit);
    EXPECT_EQ(interp.d[0], 2u);
    EXPECT_EQ(trans.d[0], 2u);
    expectGuestsMatch(interp, trans);
    // The patch falls mid-block, so the cursor misses and a fresh
    // block is decoded at the patched pc: at least two translations.
    EXPECT_GE(trans.stats.translations, 2u)
        << "the patched block was never retranslated";
}

TEST(TranslateSmc, WriteIntoAdjacentBlockRetranslates)
{
    // Pass 1 executes (and caches) the entry block with "moveq #1,d1";
    // a separate block then patches it to "moveq #5,d1" and loops
    // back, so pass 2 must find the cached entry block stale and run
    // the rewritten code. The leading bra makes entry a block start
    // on pass 1, so the patch invalidates an already-cached block.
    auto emit = [](m68k::CodeBuilder &b) {
        int entry = b.newLabel();
        int done = b.newLabel();
        b.moveq(0, 7);
        b.bra(entry);
        b.bind(entry);
        b.moveq(1, 1);
        b.addq(Size::L, 1, ops::dr(7));
        b.cmpi(Size::L, 2, ops::dr(7));
        b.bcc(Cond::EQ, done);
        b.lea(ops::abslbl(entry), 0);
        b.move(Size::W, ops::imm(0x7205), ops::ind(0));
        b.bra(entry);
        b.bind(done);
        b.stop(0x2700);
    };
    GuestResult interp = runGuest(ExecMode::Interp, emit);
    GuestResult trans = runGuest(ExecMode::Translate, emit);
    EXPECT_EQ(interp.d[1], 5u);
    EXPECT_EQ(interp.d[7], 2u);
    expectGuestsMatch(interp, trans);
    EXPECT_GT(trans.stats.stale, 0u);
}

TEST(TranslateSmc, ExtensionWordPatchIsFetchedFresh)
{
    // Only the 32-bit immediate (the extension words of a later
    // instruction in the same block) is overwritten — the opcode word
    // survives, so this specifically checks that cached extension-word
    // fetches revalidate the window generation.
    auto emit = [](m68k::CodeBuilder &b) {
        int patch = b.newLabel();
        b.lea(ops::abslbl(patch), 0);
        b.addq(Size::L, 2, ops::ar(0));
        b.move(Size::L, ops::imm(0x22222222), ops::ind(0));
        b.bind(patch);
        b.move(Size::L, ops::imm(0x11111111), ops::dr(2));
        b.stop(0x2700);
    };
    GuestResult interp = runGuest(ExecMode::Interp, emit);
    GuestResult trans = runGuest(ExecMode::Translate, emit);
    EXPECT_EQ(interp.d[2], 0x22222222u);
    EXPECT_EQ(trans.d[2], 0x22222222u);
    expectGuestsMatch(interp, trans);
}

// ---------------------------------------------------------------------
// Checkpoint restore must invalidate translations: after thawing, RAM
// holds different code at the same pc, and a stale block would replay
// the pre-restore program.
// ---------------------------------------------------------------------

TEST(TranslateInvalidate, CheckpointRestoreDropsStaleBlocks)
{
    constexpr Addr kScratch = 0xE000;
    u64 fp[2] = {0, 0};
    u32 d3[2] = {0, 0};
    int idx = 0;
    for (ExecMode mode : {ExecMode::Interp, ExecMode::Translate}) {
        device::Device dev;
        dev.cpu().setExecMode(mode);
        os::GuestRunner runner(dev);

        runner.run([](m68k::CodeBuilder &b) {
            b.moveq(11, 3);
            b.stop(0x2700);
        });
        EXPECT_EQ(dev.cpu().d(3), 11u);
        device::Checkpoint cp = device::Checkpoint::capture(dev);

        // A different program at the same address (pokes invalidate).
        runner.run([](m68k::CodeBuilder &b) {
            b.moveq(22, 3);
            b.stop(0x2700);
        });
        EXPECT_EQ(dev.cpu().d(3), 22u);

        // Thaw and re-enter WITHOUT re-poking the code: the engine
        // must execute the restored program, not a cached block of
        // the replaced one.
        cp.restore(dev);
        dev.cpu().setD(3, 0);
        dev.cpu().wake();
        dev.cpu().setSr(0x2700);
        dev.cpu().setPc(kScratch);
        u64 limit = dev.nowCycles() + 10'000'000;
        while (!dev.cpu().stopped() && !dev.halted() &&
               dev.nowCycles() < limit)
            dev.runCycles(10'000);

        d3[idx] = dev.cpu().d(3);
        fp[idx] = device::Checkpoint::capture(dev).fingerprint();
        ++idx;
    }
    EXPECT_EQ(d3[0], 11u) << "interpreter baseline";
    EXPECT_EQ(d3[1], 11u)
        << "translator replayed a stale pre-restore block";
    EXPECT_EQ(fp[1], fp[0])
        << "post-restore checkpoint fingerprints differ by engine";
}

TEST(TranslateStats, CacheCountersBehave)
{
    test::CpuHarness h;
    h.cpu.setExecMode(ExecMode::Translate);
    m68k::CodeBuilder b = test::codeAt();
    b.moveq(10, 0);
    int loop = b.hereLabel();
    b.addq(Size::L, 1, ops::dr(1));
    b.dbra(0, loop);
    b.stop(0x2700);
    h.load(b);
    h.run();
    EXPECT_EQ(h.cpu.d(1), 11u);
    m68k::translate::CacheStats st = h.cpu.translateStats();
    EXPECT_GT(st.translations, 0u);
    EXPECT_GT(st.hits, 0u) << "the loop body never hit the cache";

    // Switching back to the interpreter must not grow the counters.
    h.cpu.setExecMode(ExecMode::Interp);
    m68k::CodeBuilder b2 = test::codeAt();
    b2.moveq(3, 0);
    b2.stop(0x2700);
    h.load(b2);
    h.run();
    m68k::translate::CacheStats st2 = h.cpu.translateStats();
    EXPECT_EQ(st2.translations, st.translations);
    EXPECT_EQ(st2.hits, st.hits);
}

// ---------------------------------------------------------------------
// Region-edge boundary contract: a 16-bit access whose two bytes land
// in different regions is a bus error (returns 0 / write ignored),
// never a one-byte-past-the-end host access. These addresses are
// exactly where the old range classifier indexed ram[kRamSize].
// ---------------------------------------------------------------------

TEST(BusBoundary, RamEdgeWordAccesses)
{
    device::Device dev;
    device::Bus &bus = dev.bus();
    bus.poke8(device::kRamSize - 2, 0xCD);
    bus.poke8(device::kRamSize - 1, 0xAB);

    u64 ram0 = bus.ramRefs();
    EXPECT_EQ(bus.read16(device::kRamSize - 2, m68k::AccessKind::Read),
              0xCDABu);
    EXPECT_EQ(bus.ramRefs(), ram0 + 1);

    // The last byte of RAM cannot start a word access: bus error.
    u64 total0 = bus.totalRefs();
    EXPECT_EQ(bus.read16(device::kRamSize - 1, m68k::AccessKind::Read),
              0u);
    EXPECT_EQ(bus.totalRefs(), total0);

    // The straddling write is ignored entirely — the old classifier
    // committed its high byte to ram[kRamSize - 1] and wrote the low
    // byte out of bounds.
    bus.write16(device::kRamSize - 1, 0xBEEF);
    EXPECT_EQ(bus.peek8(device::kRamSize - 1), 0xAB);
    EXPECT_EQ(bus.totalRefs(), total0);

    // Byte accesses to the last RAM byte remain valid.
    EXPECT_EQ(bus.read8(device::kRamSize - 1, m68k::AccessKind::Read),
              0xAB);
}

TEST(BusBoundary, RomEdgeWordAccesses)
{
    device::Device dev;
    device::Bus &bus = dev.bus();
    const Addr last = device::kRomBase + device::kRomSize - 1;
    bus.poke8(last - 1, 0x12);
    bus.poke8(last, 0x34);

    u64 flash0 = bus.flashRefs();
    EXPECT_EQ(bus.read16(last - 1, m68k::AccessKind::Read), 0x1234u);
    EXPECT_EQ(bus.flashRefs(), flash0 + 1);

    u64 total0 = bus.totalRefs();
    EXPECT_EQ(bus.read16(last, m68k::AccessKind::Read), 0u);
    EXPECT_EQ(bus.totalRefs(), total0);
    EXPECT_EQ(bus.read8(last, m68k::AccessKind::Read), 0x34);
}

TEST(BusBoundary, UnmappedHolesAndMmio)
{
    device::Device dev;
    device::Bus &bus = dev.bus();

    // First byte past RAM, last byte before ROM: both unmapped.
    u64 total0 = bus.totalRefs();
    EXPECT_EQ(bus.read8(device::kRamSize, m68k::AccessKind::Read), 0u);
    EXPECT_EQ(bus.read8(device::kRomBase - 1, m68k::AccessKind::Read),
              0u);
    // The hole just below the MMIO window in the mixed top page.
    EXPECT_EQ(bus.read16(0xFFFFEFFEu, m68k::AccessKind::Read), 0u);
    EXPECT_EQ(bus.totalRefs(), total0);

    // MMIO still decodes, including the very top register word.
    u64 mmio0 = bus.mmioRefs();
    bus.read16(device::kMmioBase + device::Reg::IntStat,
               m68k::AccessKind::Read);
    bus.read16(0xFFFFFFFEu, m68k::AccessKind::Read);
    EXPECT_EQ(bus.mmioRefs(), mmio0 + 2);
}

TEST(BusBoundary, OddInteriorWordAccessesPreserved)
{
    // Interior odd word accesses (not at a region edge) keep their
    // historical byte-pair semantics.
    device::Device dev;
    device::Bus &bus = dev.bus();
    bus.poke8(0x2001, 0x11);
    bus.poke8(0x2002, 0x22);
    EXPECT_EQ(bus.read16(0x2001, m68k::AccessKind::Read), 0x1122u);
    bus.write16(0x3001, 0xA55A);
    EXPECT_EQ(bus.peek8(0x3001), 0xA5);
    EXPECT_EQ(bus.peek8(0x3002), 0x5A);
}

} // namespace
} // namespace pt
