#include "replayengine.h"

#include <algorithm>

#include "base/logging.h"
#include "hacks/logformat.h"
#include "obs/flightrec.h"
#include "obs/profile.h"
#include "obs/tracer.h"
#include "os/guestabi.h"

namespace pt::replay
{

using hacks::LogType;

namespace
{

/** The three record types the online correlator tracks. */
int
typeSlot(u16 type)
{
    switch (type) {
      case LogType::PenPoint:
        return 0;
      case LogType::Key:
        return 1;
      case LogType::Serial:
        return 2;
      default:
        return -1;
    }
}

u64
packPayload(const trace::LogRecord &r)
{
    switch (r.type) {
      case LogType::PenPoint:
        return (static_cast<u64>(r.penX()) << 32) |
               (static_cast<u64>(r.penY()) << 16) |
               (r.penDown() ? 1 : 0);
      case LogType::Key:
        return r.data;
      case LogType::Serial:
        return r.data & 0xFF;
      default:
        return 0;
    }
}

/** Outcome of one online correlation pass. */
struct Divergence
{
    bool diverged = false;
    bool extra = false;        ///< an unexpected replay-side record
    std::size_t origIndex = 0; ///< index into the original sync list
    const char *what = "";
};

struct RepRecord
{
    Ticks tick;
    u64 payload;
};

} // namespace

ReplayEngine::ReplayEngine(device::Device &dev,
                           const trace::ActivityLog &log)
    : dev(dev)
{
    // Divide the log into the three groups (§2.4.2).
    for (const auto &r : log.records) {
        switch (r.type) {
          case LogType::PenPoint: {
            SyncEvent e;
            // Pen samples are taken on the digitizer's fixed 50 Hz
            // grid; staging the stylus state one tick ahead of the
            // logged timestamp makes the replayed sample land at
            // exactly the original tick.
            e.tick = r.tick ? r.tick - 1 : 0;
            e.isPen = true;
            e.x = r.penX();
            e.y = r.penY();
            e.penDown = r.penDown();
            syncEvents.push_back(e);
            break;
          }
          case LogType::Key: {
            SyncEvent e;
            e.tick = r.tick;
            e.isPen = false;
            e.key = r.data;
            syncEvents.push_back(e);
            // A synthetic release two ticks later restores the idle
            // button state; KeyCurrentState consistency between the
            // press and the next logged poll comes from the bit-field
            // queue, exactly as in the paper.
            SyncEvent rel = e;
            rel.tick = r.tick + 2;
            rel.keyRelease = true;
            syncEvents.push_back(rel);
            break;
          }
          case LogType::Serial: {
            SyncEvent e;
            e.tick = r.tick;
            e.isPen = false;
            e.isSerial = true;
            e.serialByte = static_cast<u8>(r.data);
            syncEvents.push_back(e);
            break;
          }
          case LogType::KeyState:
            keyStateQueue.push_back({r.tick, r.data});
            break;
          case LogType::Random:
            if (r.extra != 0)
                seedQueue.push_back({r.tick, r.extra});
            break;
          default:
            break; // Notify events replay as a side effect of input
        }
        if (typeSlot(r.type) >= 0)
            origSync.push_back({r.tick, r.type, packPayload(r)});
    }
    std::stable_sort(syncEvents.begin(), syncEvents.end(),
                     [](const SyncEvent &a, const SyncEvent &b) {
                         return a.tick < b.tick;
                     });

    dev.cpu().setTrapHook(
        [this](m68k::Cpu &cpu, int trapNum, u16 selector) {
            onTrap(cpu, trapNum, selector);
        });
}

ReplayEngine::~ReplayEngine()
{
    dev.cpu().setTrapHook(nullptr);
}

std::string
ReplayOptions::validate() const
{
    if (burstJitterTicks != 0 && checkpointOut) {
        return "burstJitterTicks cannot be combined with "
               "checkpointing (the jittered schedule is not captured "
               "in the checkpoint)";
    }
    if (burstJitterTicks != 0 && recover) {
        return "burstJitterTicks cannot be combined with recovery "
               "(rewinds replay the original schedule)";
    }
    if (recover && checkpointOut) {
        return "a user checkpoint capture cannot be combined with "
               "recovery (rewinds would invalidate the capture "
               "point)";
    }
    if (recover && recoveryCheckTicks == 0)
        return "recoveryCheckTicks must be nonzero when recover is "
               "set";
    if (timeseries && recover) {
        return "timeseries telemetry cannot be combined with "
               "recovery (rewinds would re-count the rewound "
               "window's cycles)";
    }
    return {};
}

void
ReplayEngine::onTrap(m68k::Cpu &cpu, int trapNum, u16 selector)
{
    if (trapNum != 15)
        return;
    if (selector == os::Trap::KeyCurrentState) {
        // "Looks up the appropriate key bit field to return based on
        // the emulated tick timer and the queue elements' tick
        // timestamps": advance past entries stamped at or before now
        // and force the last one reached.
        Ticks now = dev.ticks();
        while (keyStateCursor + 1 < keyStateQueue.size() &&
               keyStateQueue[keyStateCursor + 1].tick <= now) {
            ++keyStateCursor;
        }
        if (keyStateCursor < keyStateQueue.size()) {
            dev.io().buttonsForce(static_cast<u16>(
                keyStateQueue[keyStateCursor].value));
            ++stats.keyStateOverrides;
            // Consume the entry so repeated polls walk the queue.
            if (keyStateCursor + 1 < keyStateQueue.size())
                ++keyStateCursor;
        }
    } else if (selector == os::Trap::SysRandom) {
        if (cpu.d(1) != 0) {
            if (seedCursor < seedQueue.size()) {
                cpu.setD(1, seedQueue[seedCursor].value);
                ++seedCursor;
                ++stats.seedsApplied;
            } else {
                ++stats.seedQueueUnderruns;
            }
        }
    }
}

ReplayStats
ReplayEngine::run(const ReplayOptions &opts)
{
    if (std::string err = opts.validate(); !err.empty()) {
        ReplayStats s;
        s.optionsRejected = true;
        s.optionsError = std::move(err);
        return s;
    }
    return playFrom(0, 0, opts, /*allowJitter=*/true);
}

ReplayStats
ReplayEngine::resume(const ReplayCheckpoint &cp,
                     const ReplayOptions &opts)
{
    PT_ASSERT(cp.valid, "resume from an invalid checkpoint");
    if (std::string err = opts.validate(); !err.empty()) {
        ReplayStats s;
        s.optionsRejected = true;
        s.optionsError = std::move(err);
        return s;
    }
    cp.machine.restore(dev);
    keyStateCursor = static_cast<std::size_t>(cp.keyStateCursor);
    seedCursor = static_cast<std::size_t>(cp.seedCursor);
    stats = ReplayStats{};
    stats.lastEventTick = cp.lastEventTick;
    return playFrom(static_cast<std::size_t>(cp.eventIndex),
                    cp.buttons, opts, /*allowJitter=*/false);
}

namespace
{

/**
 * Correlates the replay-side log against the original sync records, in
 * order per record type. Original records whose tick (plus tolerance)
 * lies beyond @p horizon are treated as not yet due unless @p final.
 * @p ignored holds original indices already degraded past;
 * @p allowedExtras is the budget of unexplained replay-side records.
 */
Divergence
correlatePrefix(const std::vector<RepRecord> (&orig)[3],
                const std::vector<std::size_t> (&origIdx)[3],
                const trace::ActivityLog &replayed, Ticks horizon,
                bool final, Ticks tol,
                const std::set<std::size_t> &ignored, u64 allowedExtras)
{
    std::vector<RepRecord> rep[3];
    for (const auto &r : replayed.records) {
        int slot = typeSlot(r.type);
        if (slot >= 0)
            rep[slot].push_back({r.tick, packPayload(r)});
    }

    u64 extras = 0;
    Divergence firstExtra; // reported only if the budget is exceeded
    for (int slot = 0; slot < 3; ++slot) {
        std::size_t ri = 0;
        std::size_t due = 0; // originals of this slot that are due
        for (std::size_t k = 0; k < orig[slot].size(); ++k) {
            const RepRecord &o = orig[slot][k];
            if (!final && o.tick + tol >= horizon)
                break;
            ++due;
            if (ignored.count(origIdx[slot][k]))
                continue;
            std::size_t scan = ri;
            while (scan < rep[slot].size() &&
                   rep[slot][scan].payload != o.payload) {
                ++scan;
            }
            if (scan == rep[slot].size()) {
                return {true, false, origIdx[slot][k],
                        "record missing from the replayed log"};
            }
            if (scan > ri && !firstExtra.diverged) {
                firstExtra = {true, true, origIdx[slot][k],
                              "unexpected records in the replayed "
                              "log"};
            }
            extras += scan - ri;
            s64 lag = static_cast<s64>(rep[slot][scan].tick) -
                      static_cast<s64>(o.tick);
            if (lag > static_cast<s64>(tol) ||
                lag < -static_cast<s64>(tol)) {
                return {true, false, origIdx[slot][k],
                        "tick lag beyond the burst tolerance"};
            }
            ri = scan + 1;
        }
        if (final && rep[slot].size() > ri) {
            extras += rep[slot].size() - ri;
            if (!firstExtra.diverged) {
                std::size_t at = due < origIdx[slot].size()
                    ? origIdx[slot][due]
                    : (origIdx[slot].empty() ? 0
                                             : origIdx[slot].back());
                firstExtra = {true, true, at,
                              "unmatched trailing records in the "
                              "replayed log"};
            }
        }
    }
    if (extras > allowedExtras)
        return firstExtra;
    return {};
}

} // namespace

ReplayStats
ReplayEngine::playFrom(std::size_t startIndex, u16 buttons,
                       const ReplayOptions &opts, bool allowJitter)
{
    PT_TRACE_SCOPE("replay.playback", "replay");
    Rng jitter(opts.jitterSeed);

    // Profiling-mode observations beyond the ReplayStats totals:
    // queue depths at entry and a per-delivery injection-lag sample.
    obs::ProfileSink *prof = obs::profileSink();
    if (prof) {
        prof->gauge("replay.queue.sync_events",
                    static_cast<double>(syncEvents.size()));
        prof->gauge("replay.queue.key_states",
                    static_cast<double>(keyStateQueue.size()));
        prof->gauge("replay.queue.seeds",
                    static_cast<double>(seedQueue.size()));
    }
    const Ticks finalTick =
        syncEvents.empty() ? 0 : syncEvents.back().tick;
    u64 delivered = 0;

    // Jitter models the paper's replay bursts: a whole group of
    // events runs slightly behind schedule, then snaps back. The
    // delay is drawn once per burst (events separated by < 100 ticks
    // belong to one burst), so intra-stroke sample spacing — and
    // therefore the replayed payloads — are preserved.
    bool useJitter = allowJitter && opts.burstJitterTicks != 0;
    PT_ASSERT(!(useJitter && (opts.checkpointOut || opts.recover)),
              "inconsistent options must be rejected by validate()");
    Ticks burstDelay = 0;
    Ticks prevTick = 0;
    bool first = true;
    bool captured = false;
    const Ticks tol = opts.divergenceToleranceTicks;
    // Records younger than this at verify time are still in flight
    // through the guest's input path; they are checked next pass.
    const Ticks margin = 2 * tol;

    // Original sync records bucketed per type for the correlator.
    std::vector<RepRecord> orig[3];
    std::vector<std::size_t> origIdx[3];
    if (opts.recover) {
        for (std::size_t k = 0; k < origSync.size(); ++k) {
            int slot = typeSlot(origSync[k].type);
            orig[slot].push_back(
                {origSync[k].tick, origSync[k].payload});
            origIdx[slot].push_back(k);
        }
    }

    // --- recovery state ---
    struct Frozen
    {
        ReplayCheckpoint cp;
        ReplayStats stats;
        Ticks tick = 0;
    };
    Frozen lastGood;            ///< fully verified rewind target
    std::vector<Frozen> window; ///< clean at capture, not yet verified
    std::set<std::size_t> ignoredOrig;
    u64 allowedExtras = 0;
    u32 retriesLeft = opts.maxRecoveryRetries;
    u64 divergences = 0, rewinds = 0, skipped = 0, faults = 0;
    // A hard backstop against rewind storms: enough for every record
    // to exhaust its retry budget once, then some.
    u64 rewindBudget = static_cast<u64>(opts.maxRecoveryRetries + 1) *
                           (origSync.size() + 4) +
                       16;
    bool recovering = opts.recover;

    std::size_t i = startIndex;

    auto freeze = [&]() {
        Frozen f;
        f.cp.machine = device::Checkpoint::capture(dev);
        f.cp.eventIndex = i;
        f.cp.keyStateCursor = keyStateCursor;
        f.cp.seedCursor = seedCursor;
        f.cp.buttons = buttons;
        f.cp.lastEventTick = stats.lastEventTick;
        f.cp.valid = true;
        f.stats = stats;
        f.tick = dev.ticks();
        return f;
    };

    auto rewind = [&]() {
        PT_TRACE_INSTANT("recovery.rewind", "recovery");
        lastGood.cp.machine.restore(dev);
        keyStateCursor =
            static_cast<std::size_t>(lastGood.cp.keyStateCursor);
        seedCursor = static_cast<std::size_t>(lastGood.cp.seedCursor);
        buttons = lastGood.cp.buttons;
        i = static_cast<std::size_t>(lastGood.cp.eventIndex);
        stats = lastGood.stats;
        window.clear();
        ++rewinds;
    };

    // Rewind-and-retry, else degrade: tolerate the offending record
    // and carry on rather than produce a silently-wrong trace.
    auto onDivergence = [&](const Divergence &d) {
        PT_TRACE_INSTANT("recovery.divergence", "recovery");
        ++divergences;
        if (retriesLeft > 0) {
            --retriesLeft;
        } else {
            if (d.extra)
                ++allowedExtras;
            else
                ignoredOrig.insert(d.origIndex);
            ++skipped;
            retriesLeft = opts.maxRecoveryRetries;
        }
        if (rewindBudget > 0) {
            --rewindBudget;
            rewind();
        } else {
            warn("replay recovery: rewind budget exhausted, "
                 "continuing unverified");
            recovering = false;
        }
    };

    auto verify = [&](bool final) {
        PT_TRACE_SCOPE("recovery.verify", "recovery");
        trace::ActivityLog rep =
            trace::ActivityLog::extract(dev.bus());
        Ticks now = dev.ticks();
        Ticks horizon = now > margin ? now - margin : 0;
        return correlatePrefix(orig, origIdx, rep, horizon, final, tol,
                               ignoredOrig, allowedExtras);
    };

    auto deliver = [&](const SyncEvent &e) {
        if (e.isSerial) {
            dev.io().serialInject(e.serialByte);
            ++stats.serialBytesInjected;
        } else if (e.isPen) {
            if (e.penDown) {
                if (dev.io().penIsTouching())
                    dev.io().penMoveTo(e.x, e.y);
                else
                    dev.io().penTouch(e.x, e.y);
            } else {
                dev.io().penRelease();
            }
            ++stats.penEventsInjected;
        } else if (e.keyRelease) {
            buttons &= static_cast<u16>(~e.key);
            dev.io().buttonsSet(buttons);
        } else {
            buttons |= e.key;
            dev.io().buttonsSet(buttons);
            ++stats.keyEventsInjected;
        }
    };

    if (recovering)
        lastGood = freeze();
    Ticks nextCheck =
        recovering ? dev.ticks() + opts.recoveryCheckTicks : 0;

    for (;;) {
        while (i < syncEvents.size()) {
            if (opts.cancel) {
                opts.cancel->beat();
                if (opts.cancel->cancelled()) {
                    stats.interrupted = true;
                    return stats;
                }
            }

            const auto &e = syncEvents[i];

            // CPU progress observation: the first call only sets the
            // baseline (DESIGN.md §14).
            if (opts.timeseries) {
                opts.timeseries->observe(dev.nowCycles(),
                                         dev.instructionsRetired());
            }

            if (recovering && dev.ticks() >= nextCheck) {
                Divergence d = verify(/*final=*/false);
                if (d.diverged) {
                    onDivergence(d);
                    nextCheck =
                        dev.ticks() + opts.recoveryCheckTicks;
                    first = true;
                    continue; // i/buttons reset by the rewind
                }
                // Clean here and now. This state becomes the rewind
                // target only once a later clean pass has verified
                // every record delivered before its capture tick.
                window.push_back(freeze());
                Ticks horizon = dev.ticks() > margin
                    ? dev.ticks() - margin
                    : 0;
                while (!window.empty() &&
                       window.front().tick + tol < horizon) {
                    lastGood = window.front();
                    window.erase(window.begin());
                    retriesLeft = opts.maxRecoveryRetries;
                }
                nextCheck = dev.ticks() + opts.recoveryCheckTicks;
            }

            if (useJitter && (first || e.tick > prevTick + 100)) {
                burstDelay = static_cast<Ticks>(
                    jitter.below(opts.burstJitterTicks + 1));
            }
            first = false;
            prevTick = e.tick;

            if (opts.checkpointOut && !captured &&
                opts.checkpointAtTick != 0 &&
                e.tick >= opts.checkpointAtTick) {
                // Freeze just before this event is delivered.
                ReplayCheckpoint &cp = *opts.checkpointOut;
                cp.machine = device::Checkpoint::capture(dev);
                cp.eventIndex = i;
                cp.keyStateCursor = keyStateCursor;
                cp.seedCursor = seedCursor;
                cp.buttons = buttons;
                cp.lastEventTick = stats.lastEventTick;
                cp.valid = true;
                captured = true;
            }

            ReplayFaultDecision fd;
            if (opts.faultHook)
                fd = opts.faultHook->onEvent(i, e.tick);
            if (fd.action != ReplayFaultDecision::Action::Deliver ||
                fd.skewTicks != 0) {
                ++faults;
            }

            Ticks target = e.tick + burstDelay + fd.skewTicks;
            if (target > dev.ticks())
                dev.runUntilTick(target);
            if (fd.action != ReplayFaultDecision::Action::Drop) {
                deliver(e);
                if (fd.action ==
                    ReplayFaultDecision::Action::Duplicate) {
                    deliver(e);
                }
            }
            if (prof) {
                // How far behind its scheduled tick the event landed
                // (the paper's replay-burst lag, §3.3).
                prof->sample("replay.injection_lag_ticks",
                             static_cast<double>(dev.ticks() -
                                                 e.tick));
            }
            if (opts.timeseries)
                opts.timeseries->noteEvent(dev.nowCycles());
            {
                obs::FlightRecorder &fr =
                    obs::FlightRecorder::global();
                if (fr.enabled()) {
                    fr.noteEvent(static_cast<u64>(i),
                                 dev.nowCycles());
                    fr.notePc(dev.cpu().lastPc(), dev.nowCycles());
                }
            }
            stats.lastEventTick = e.tick;
            ++i;
            ++delivered;
            if (opts.progress && opts.progressEveryEvents &&
                delivered % opts.progressEveryEvents == 0) {
                opts.progress({delivered, syncEvents.size(),
                               dev.ticks(), finalTick,
                               dev.nowCycles()});
            }
        }

        {
            PT_TRACE_SCOPE("replay.settle", "replay");
            dev.runUntilTick(stats.lastEventTick + opts.settleTicks);
            dev.runUntilIdle();
        }

        if (opts.timeseries) {
            opts.timeseries->observe(dev.nowCycles(),
                                     dev.instructionsRetired());
        }

        if (!recovering)
            break;
        Divergence d = verify(/*final=*/true);
        if (!d.diverged)
            break;
        onDivergence(d);
        nextCheck = dev.ticks() + opts.recoveryCheckTicks;
        first = true;
    }

    stats.faultsInjected += faults;
    stats.divergencesDetected += divergences;
    stats.recoveryRewinds += rewinds;
    stats.recordsSkipped += skipped;
    return stats;
}

} // namespace pt::replay
