#include "palmsim.h"

#include "base/logging.h"
#include "obs/flightrec.h"
#include "obs/profile.h"
#include "obs/tracer.h"
#include "validate/correlate.h"

namespace pt::core
{

namespace
{

/** Tags a per-file load failure with the file it came from. */
LoadResult
inFile(const LoadResult &res, const std::string &path)
{
    if (res.ok())
        return res;
    return LoadResult::fail(res.error().offset,
                            path + ": " + res.error().field,
                            res.error().reason);
}

} // namespace

bool
Session::save(const std::string &basePath, std::string *errOut) const
{
    return initialState.save(basePath + ".init.snap", errOut) &&
           log.save(basePath + ".log", errOut) &&
           finalState.save(basePath + ".final.snap", errOut);
}

LoadResult
Session::load(const std::string &basePath, Session &out)
{
    std::string path = basePath + ".init.snap";
    if (auto r = device::Snapshot::load(path, out.initialState); !r)
        return inFile(r, path);
    path = basePath + ".log";
    if (auto r = trace::ActivityLog::load(path, out.log); !r)
        return inFile(r, path);
    path = basePath + ".final.snap";
    if (auto r = device::Snapshot::load(path, out.finalState); !r)
        return inFile(r, path);
    return {};
}

PalmSimulator::PalmSimulator()
{
    syms = os::setupDevice(dev);
    mgr = std::make_unique<hacks::HackManager>(dev, syms);
}

PalmSimulator::~PalmSimulator() = default;

void
PalmSimulator::beginCollection()
{
    PT_TRACE_SCOPE("collect.begin", "collect");
    PT_ASSERT(!collecting, "collection already in progress");
    // "We simply chose to start every session directly after a soft
    // reset" (§2.2): storage RAM survives, the dynamic state is
    // rebuilt deterministically, and the replay-side boot follows
    // the identical path.
    dev.reset();
    dev.runUntilIdle();
    mgr->installCollectionHacks();
    mgr->clearLog(); // chained sessions start with a fresh log
    dev.runUntilIdle();
    initial = device::Snapshot::capture(dev);
    collecting = true;
}

workload::UserSessionStats
PalmSimulator::runUser(const workload::UserModelConfig &cfg)
{
    PT_TRACE_SCOPE("collect.user_session", "collect");
    workload::UserModel user(dev, cfg);
    return user.runSession();
}

Session
PalmSimulator::endCollection()
{
    PT_TRACE_SCOPE("collect.end", "collect");
    PT_ASSERT(collecting, "no collection in progress");
    collecting = false;
    dev.runUntilIdle();
    Session s;
    s.initialState = initial;
    s.log = trace::ActivityLog::extract(dev.bus());
    s.finalState = device::Snapshot::capture(dev);
    return s;
}

Session
PalmSimulator::collect(const workload::UserModelConfig &cfg)
{
    PalmSimulator sim;
    sim.beginCollection();
    sim.runUser(cfg);
    return sim.endCollection();
}

namespace
{

/**
 * Feeds the timeseries — and an optional cache hierarchy — one
 * classified reference at a time, attributed to the device's current
 * cycle. Only Ram/Flash classes count (the same stream a packed
 * trace carries).
 */
class TsRefSink final : public device::MemRefSink
{
  public:
    TsRefSink(device::Device &dev, obs::Timeseries &ts,
              cache::TwoLevelCache *hier)
        : dev(dev), ts(ts), hier(hier)
    {}

    void
    onRef(Addr addr, m68k::AccessKind kind,
          device::RefClass cls) override
    {
        if (cls != device::RefClass::Ram &&
            cls != device::RefClass::Flash)
            return;
        const bool isFlash = cls == device::RefClass::Flash;
        const u64 cycle = dev.nowCycles();
        const obs::TsRef k =
            kind == m68k::AccessKind::Fetch ? obs::TsRef::Ifetch
            : kind == m68k::AccessKind::Write
                ? obs::TsRef::Dwrite
                : obs::TsRef::Dread;
        ts.addRef(cycle, k, isFlash);
        if (hier) {
            // Two-step lookup (equivalent to TwoLevelCache::access)
            // so each level's outcome lands in the interval.
            if (hier->l1().access(addr, isFlash)) {
                ts.addCache(cycle, 1, true);
            } else {
                ts.addCache(cycle, 1, false);
                ts.addCache(cycle, 2,
                            hier->l2().access(addr, isFlash));
            }
        }
        obs::FlightRecorder &fr = obs::FlightRecorder::global();
        if (fr.enabled() && (++sampleCtr & 63) == 0)
            fr.noteRef(addr, cycle);
    }

  private:
    device::Device &dev;
    obs::Timeseries &ts;
    cache::TwoLevelCache *hier;
    u64 sampleCtr = 0;
};

/** Publishes one replayed session's totals into the profile sink. */
void
publishReplayMetrics(obs::ProfileSink &ps, const ReplayResult &r,
                     u64 traps)
{
    const replay::ReplayStats &st = r.replayStats;
    ps.count("m68k.instructions", r.instructions);
    ps.count("m68k.cycles", r.cycles);
    ps.count("m68k.traps", traps);
    ps.count("bus.ram_refs", r.refs.ramRefs());
    ps.count("bus.flash_refs", r.refs.flashRefs());
    ps.gauge("bus.flash_fraction", r.refs.flashFraction());
    ps.count("replay.events_injected", st.penEventsInjected +
                                           st.keyEventsInjected +
                                           st.serialBytesInjected);
    ps.count("replay.pen_events", st.penEventsInjected);
    ps.count("replay.key_events", st.keyEventsInjected);
    ps.count("replay.serial_bytes", st.serialBytesInjected);
    ps.count("replay.key_state_overrides", st.keyStateOverrides);
    ps.count("replay.seeds_applied", st.seedsApplied);
    ps.count("replay.faults_injected", st.faultsInjected);
    ps.count("recovery.divergences", st.divergencesDetected);
    ps.count("recovery.rewinds", st.recoveryRewinds);
    ps.count("recovery.records_skipped", st.recordsSkipped);
}

} // namespace

ReplayResult
PalmSimulator::replaySession(const Session &s, const ReplayConfig &cfg)
{
    PT_TRACE_SCOPE("replay.session", "replay");
    ReplayResult res;
    device::Device dev;

    {
        PT_TRACE_SCOPE(cfg.logicalImportMode ? "replay.import"
                                             : "replay.restore",
                       "replay");
        if (cfg.logicalImportMode)
            validate::logicalImport(s.initialState, dev);
        else
            s.initialState.restore(dev);
        dev.runUntilIdle(); // boot to the launcher
    }

    // Reinstall the hacks exactly as on the handheld — §3.3: "we
    // imported our hacks and X-Master along with the other
    // applications", so the emulated session logs its own activity.
    {
        PT_TRACE_SCOPE("replay.install_hacks", "replay");
        os::RomSymbols syms = os::builtRom().syms;
        hacks::HackManager mgr(dev, syms);
        mgr.installCollectionHacks();
        dev.runUntilIdle();
    }

    // Profiling: every bus transaction and opcode from here on is the
    // replayed workload.
    trace::TeeSink tee;
    tee.add(&res.refs);
    if (cfg.extraRefSink)
        tee.add(cfg.extraRefSink);
    std::unique_ptr<TsRefSink> tsSink;
    if (cfg.timeseries) {
        tsSink = std::make_unique<TsRefSink>(dev, *cfg.timeseries,
                                             cfg.tsHierarchy);
        tee.add(tsSink.get());
    }
    dev.bus().setRefSink(&tee);
    dev.bus().setTraceEnabled(cfg.profile);
    if (cfg.opcodeSink)
        dev.cpu().setOpcodeSink(cfg.opcodeSink);

    u64 instBefore = dev.instructionsRetired();
    u64 cycBefore = dev.nowCycles();
    u64 trapBefore = dev.cpu().trapsTaken();

    replay::ReplayEngine engine(dev, s.log);
    replay::ReplayOptions opts = cfg.options;
    if (cfg.timeseries)
        opts.timeseries = cfg.timeseries;
    res.replayStats = engine.run(opts);

    res.instructions = dev.instructionsRetired() - instBefore;
    res.cycles = dev.nowCycles() - cycBefore;

    dev.bus().setTraceEnabled(false);
    dev.bus().setRefSink(nullptr);
    dev.cpu().setOpcodeSink(nullptr);

    {
        PT_TRACE_SCOPE("replay.extract_log", "replay");
        res.emulatedLog = trace::ActivityLog::extract(dev.bus());
    }
    {
        PT_TRACE_SCOPE("replay.final_snapshot", "replay");
        res.finalState = device::Snapshot::capture(dev);
    }
    if (auto *ps = obs::profileSink()) {
        publishReplayMetrics(*ps, res,
                             dev.cpu().trapsTaken() - trapBefore);
    }
    return res;
}

} // namespace pt::core
