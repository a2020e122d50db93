/**
 * @file
 * The activity-log replay engine (§2.4.2).
 *
 * During initialization the engine divides a parsed activity log into
 * three groups, exactly as the paper's modified POSE does:
 *
 *  1. synchronous events (pen points, key events and — as a palmtrace
 *     extension — serial bytes), replayed when the emulated tick
 *     counter reaches each event's timestamp by driving the
 *     digitizer/button/UART hardware — the same input path the
 *     collection hacks observe;
 *  2. a queue of KeyCurrentState bit fields, fed back whenever the
 *     guest calls KeyCurrentState (the emulator forces the hardware
 *     register the routine is about to read);
 *  3. a queue of SysRandom seeds from non-zero SysRandom calls, which
 *     overwrite the guest's seed parameter before the routine runs
 *     ("the parameter is overwritten with the seed value from the
 *     queue").
 *
 * An optional deterministic jitter reproduces the short replay bursts
 * (< 20 ticks behind schedule) the paper observed, so the validation
 * correlator can be exercised against realistic timing noise.
 *
 * Long replays can be checkpointed mid-run (CITCAT-style full machine
 * state plus the engine's queue cursors) and resumed bit-exactly on a
 * fresh device.
 *
 * Self-recovering mode (ReplayOptions::recover): the records the
 * replay-side hacks produce are correlated online against the original
 * log, with the paper's < 20-tick burst tolerance. On divergence the
 * engine rewinds to the last automatically captured, fully verified
 * ReplayCheckpoint and retries; when a divergence persists past the
 * retry budget it degrades gracefully — the offending record is
 * tolerated, counted in ReplayStats, and playback continues — instead
 * of producing a silently-wrong trace. A ReplayFaultHook can inject
 * deterministic runtime faults (dropped / duplicated deliveries, tick
 * skew beyond the jitter model) to exercise exactly that machinery.
 */

#ifndef PT_REPLAY_REPLAYENGINE_H
#define PT_REPLAY_REPLAYENGINE_H

#include <array>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "base/cancel.h"
#include "base/rng.h"
#include "base/types.h"
#include "device/checkpoint.h"
#include "device/device.h"
#include "obs/timeseries.h"
#include "os/rombuilder.h"
#include "trace/activitylog.h"

namespace pt::replay
{

/** A frozen mid-replay state: machine plus engine cursors. */
struct ReplayCheckpoint
{
    device::Checkpoint machine;
    u64 eventIndex = 0;
    u64 keyStateCursor = 0;
    u64 seedCursor = 0;
    u16 buttons = 0;
    Ticks lastEventTick = 0;
    bool valid = false;
};

/** Decision for one sync-event delivery attempt (fault injection). */
struct ReplayFaultDecision
{
    enum class Action : u8
    {
        Deliver,  ///< normal delivery
        Drop,     ///< swallow the event
        Duplicate ///< deliver it twice
    };

    Action action = Action::Deliver;
    Ticks skewTicks = 0; ///< extra delay before delivery
};

/**
 * Deterministic runtime fault injector, consulted once per delivery
 * attempt of each synchronous event (and re-consulted after a recovery
 * rewind re-reaches the same event).
 */
class ReplayFaultHook
{
  public:
    virtual ~ReplayFaultHook() = default;
    virtual ReplayFaultDecision onEvent(u64 eventIndex,
                                        Ticks tick) = 0;
};

/** A progress heartbeat snapshot (CLI progress reporting). */
struct ReplayProgress
{
    u64 eventsDelivered = 0; ///< deliveries so far (rewinds included)
    u64 totalEvents = 0;     ///< scheduled synchronous events
    Ticks tick = 0;          ///< current emulated tick
    Ticks finalTick = 0;     ///< tick of the last scheduled event
    u64 cycles = 0;          ///< current emulated cycle counter
};

/** Playback options. */
struct ReplayOptions
{
    /** Ticks to keep running after the last scheduled event. */
    Ticks settleTicks = 100;

    /** Deterministic extra delay (0..N ticks) added per event burst
     *  to emulate the paper's replay bursts; 0 disables. Rejected by
     *  validate() in combination with checkpointing or recovery. */
    Ticks burstJitterTicks = 0;

    /** Seed for the jitter generator. */
    u64 jitterSeed = 0x9E3779B9;

    /** When nonzero and checkpointOut is set: freeze the machine and
     *  engine state just before the first event at or after this
     *  tick. Playback continues normally afterwards. */
    Ticks checkpointAtTick = 0;
    ReplayCheckpoint *checkpointOut = nullptr;

    /**
     * Online divergence detection plus checkpoint-rewind recovery.
     * Requires the collection hacks installed on the device (the
     * replay-side log is read back as it is produced).
     */
    bool recover = false;

    /** Rewind attempts per divergence before degrading. */
    u32 maxRecoveryRetries = 3;

    /** Cadence (ticks) of the verify + auto-checkpoint pass. */
    Ticks recoveryCheckTicks = 2000;

    /** Acceptable replay lag — the paper's < 20-tick burst bound. */
    Ticks divergenceToleranceTicks = 20;

    /** Optional runtime fault injector (tests, chaos runs). */
    ReplayFaultHook *faultHook = nullptr;

    /**
     * Cooperative cancellation. When set, the engine beats the token
     * once per delivered event and checks for cancellation between
     * events; a cancelled replay stops cleanly (no settle, no final
     * verify) with stats.interrupted set. The partial output must be
     * discarded by the caller — an interrupted replay's trace is a
     * prefix, not a result.
     */
    CancelToken *cancel = nullptr;

    /** Invoked every @ref progressEveryEvents deliveries (heartbeat);
     *  never invoked when unset or when the cadence is zero. */
    std::function<void(const ReplayProgress &)> progress;
    u64 progressEveryEvents = 0;

    /**
     * Simulated-time telemetry sink. When set, the engine observes
     * CPU progress (absolute cycle + instruction counters) at the top
     * of each event's iteration and at the end of the settle phase,
     * and counts each delivered event at its delivery cycle
     * (DESIGN.md §14). Not owned.
     */
    obs::Timeseries *timeseries = nullptr;

    /** @return empty when consistent, else why this combination of
     *  options is rejected. */
    std::string validate() const;
};

/** Playback statistics. */
struct ReplayStats
{
    u64 penEventsInjected = 0;
    u64 keyEventsInjected = 0;
    u64 serialBytesInjected = 0;
    u64 keyStateOverrides = 0;
    u64 seedsApplied = 0;
    u64 seedQueueUnderruns = 0;
    Ticks lastEventTick = 0;

    // Robustness accounting (recovery mode and fault injection).
    u64 faultsInjected = 0;      ///< hook decisions other than Deliver
    u64 divergencesDetected = 0; ///< online correlation failures
    u64 recoveryRewinds = 0;     ///< checkpoint rewinds performed
    u64 recordsSkipped = 0;      ///< degraded: records given up on

    /** Set when run()/resume() refused inconsistent options. */
    bool optionsRejected = false;
    std::string optionsError;

    /** Set when a CancelToken stopped playback early; the device and
     *  any streamed trace hold a partial, non-final state. */
    bool interrupted = false;
};

/** Replays one activity log on a restored device. */
class ReplayEngine
{
  public:
    /**
     * @param dev  a device restored to the session's initial state and
     *             booted to idle, with the hacks reinstalled (exactly
     *             the collection-start state).
     * @param log  the session's activity log.
     */
    ReplayEngine(device::Device &dev, const trace::ActivityLog &log);

    ~ReplayEngine();

    /** Runs the playback to completion. Inconsistent options return
     *  immediately with optionsRejected set. */
    ReplayStats run(const ReplayOptions &opts = {});

    /**
     * Resumes a checkpointed playback: thaws the machine state into
     * this engine's device and continues from the frozen event index.
     * Jitter options are ignored on resume.
     */
    ReplayStats resume(const ReplayCheckpoint &cp,
                       const ReplayOptions &opts = {});

  private:
    struct SyncEvent
    {
        Ticks tick;
        bool isPen;
        u16 x = 0, y = 0;
        bool penDown = false;
        u16 key = 0;
        bool keyRelease = false;
        bool isSerial = false;
        u8 serialByte = 0;
    };

    struct TimedValue
    {
        Ticks tick;
        u32 value;
    };

    /** One original log record the online correlator must see again
     *  in the replay-side log (pen / key / serial only). */
    struct OrigRecord
    {
        Ticks tick;
        u16 type;
        u64 payload;
    };

    void onTrap(m68k::Cpu &cpu, int trapNum, u16 selector);

    /** The shared playback loop starting at @p startIndex. */
    ReplayStats playFrom(std::size_t startIndex, u16 buttons,
                         const ReplayOptions &opts, bool allowJitter);

    device::Device &dev;
    std::vector<SyncEvent> syncEvents;
    std::vector<TimedValue> keyStateQueue;
    std::vector<TimedValue> seedQueue;
    std::vector<OrigRecord> origSync;
    std::size_t keyStateCursor = 0;
    std::size_t seedCursor = 0;
    ReplayStats stats;
};

} // namespace pt::replay

#endif // PT_REPLAY_REPLAYENGINE_H
