/**
 * @file
 * Emulator performance report: emulated instruction throughput
 * (MIPS) on the desktop-mix compute kernel, guest system-call cost,
 * and full-session replay speed of the m68k interpreter. One check
 * guards the MIPS figure: the compute kernel must retire exactly its
 * instruction count. Everything is published through the metrics
 * registry (`--metrics-out FILE`).
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "base/table.h"
#include "bench/benchutil.h"
#include "core/palmsim.h"
#include "m68k/codebuilder.h"
#include "os/guestrun.h"
#include "os/pilotos.h"

namespace
{

using namespace pt;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * The desktop-mix compute kernel (the Figure 7 workload's
 * instruction diet): arithmetic, rotates, a RAM load/store pair, and
 * a conditional loop edge.
 */
void
emitComputeKernel(m68k::CodeBuilder &b, u32 iters)
{
    using namespace m68k::ops;
    auto loop = b.newLabel();
    b.lea(absl(0x00020000), 1);
    b.move(m68k::Size::L, imm(iters), dr(0));
    b.bind(loop);
    b.add(m68k::Size::L, dr(3), dr(2));
    b.rol(m68k::Size::L, 3, 2);
    b.move(m68k::Size::L, dr(2), ind(1));
    b.move(m68k::Size::L, ind(1), dr(4));
    b.eor(m68k::Size::L, 4, dr(3));
    b.subq(m68k::Size::L, 1, dr(0));
    b.bcc(m68k::Cond::NE, loop);
    b.stop(0x2700);
}

/** One measurement of a guest program. */
struct KernelRun
{
    double seconds = 0;
    u64 instructions = 0;
    double mips() const
    {
        return static_cast<double>(instructions) / seconds / 1e6;
    }
};

KernelRun
runKernel(u32 iters, unsigned repeats,
          const std::function<void(m68k::CodeBuilder &, u32)> &emit)
{
    device::Device dev;
    os::setupDevice(dev);
    os::GuestRunner runner(dev);

    auto body = [&](m68k::CodeBuilder &b) { emit(b, iters); };
    runner.run(body); // warm-up: page in, settle

    KernelRun r;
    u64 i0 = dev.instructionsRetired();
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned n = 0; n < repeats; ++n)
        runner.run(body);
    r.seconds = secondsSince(t0);
    r.instructions = dev.instructionsRetired() - i0;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pt;
    auto args = bench::BenchArgs::parse(argc, argv);
    setLogQuiet(true);
    bench::banner("Emulator performance", "m68k interpreter");

    const u32 iters = static_cast<u32>(400'000 * args.scale);
    const unsigned repeats = 3;

    // --- desktop-mix compute throughput ---
    KernelRun compute = runKernel(iters, repeats, emitComputeKernel);

    // --- guest system-call round-trip ---
    auto emitSyscalls = [](m68k::CodeBuilder &b, u32 n) {
        using namespace m68k::ops;
        auto loop = b.newLabel();
        b.move(m68k::Size::L, imm(n), dr(6));
        b.bind(loop);
        b.trapSel(15, os::Trap::TimGetTicks);
        b.subq(m68k::Size::L, 1, dr(6));
        b.bcc(m68k::Cond::NE, loop);
        b.stop(0x2700);
    };
    const u32 calls = static_cast<u32>(20'000 * args.scale);
    KernelRun sys = runKernel(calls, repeats, emitSyscalls);
    double usPerCall = sys.seconds * 1e6 / (calls * repeats);

    // --- full-session replay ---
    workload::UserModelConfig cfg;
    cfg.seed = 5;
    cfg.interactions = 5;
    cfg.meanIdleTicks = 2'000;
    core::Session session = core::PalmSimulator::collect(cfg);
    auto t0 = std::chrono::steady_clock::now();
    core::ReplayResult replay = core::PalmSimulator::replaySession(session);
    double replaySeconds = secondsSince(t0);
    double replayMips =
        static_cast<double>(replay.instructions) / replaySeconds / 1e6;

    TextTable t("Emulator — m68k interpreter");
    t.setHeader({"Metric", "value"});
    t.addRow({"compute MIPS", TextTable::num(compute.mips(), 1)});
    t.addRow({"syscall round-trip (us)", TextTable::num(usPerCall, 2)});
    t.addRow({"session replay (s)", TextTable::num(replaySeconds, 3)});
    t.addRow({"replay MIPS", TextTable::num(replayMips, 1)});
    std::printf("%s\n", t.render().c_str());
    if (args.csv)
        std::printf("%s\n", t.renderCsv().c_str());

    auto &reg = obs::Registry::global();
    reg.gauge("emulator.interp_mips").set(compute.mips());
    reg.gauge("emulator.syscall_us_interp").set(usPerCall);
    reg.gauge("emulator.replay_seconds_interp").set(replaySeconds);

    // The MIPS figure is only meaningful if every run reached its
    // STOP: LEA, MOVE and STOP plus 7 instructions per iteration.
    const u64 kernelInstructions = (7ull * iters + 3) * repeats;
    const bool ranKernel = compute.instructions == kernelInstructions;
    bench::expect("compute kernel instructions retired",
                  std::to_string(kernelInstructions),
                  std::to_string(compute.instructions), ranKernel);

    bench::finishMetrics(args);
    return ranKernel ? 0 : 1;
}
