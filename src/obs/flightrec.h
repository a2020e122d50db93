/**
 * @file
 * The postmortem flight recorder: always-on-cheap ring buffers of
 * recent execution, dumped when something goes wrong.
 *
 * rr's deployability lesson (PAPERS.md) applies to simulators too:
 * rare failures — a supervisor watchdog stall, a quarantined item, a
 * deterministic crash-hook kill — are only debuggable if the run was
 * already recording. Each thread owns a small ring of fixed-size
 * entries (span begin/end markers, executed-PC samples, trace refs,
 * replay events, free-form notes). Writers are lock-free and
 * wait-free: one relaxed-atomic enabled check when disabled; when
 * enabled, a handful of relaxed stores bracketed by a seqlock
 * sequence word, single writer per ring, no CAS, no locks.
 *
 * The dump is a JSON bundle ("palmtrace-flightrec-v1") of the last
 * kCapacity entries per thread, written on the first trigger:
 * watchdog stall, quarantine, PT_CRASH_AFTER_ITEMS
 * (immediately before the deterministic _Exit), or a fatal signal
 * (best-effort: the JSON render allocates, which a signal handler
 * formally must not — acceptable for a crash-path debugging aid).
 *
 * Readers (the dump path) run concurrently with writers: each slot's
 * sequence word is checked before and after the field reads and torn
 * slots are skipped. All fields are atomics, so concurrent
 * record/dump is data-race-free under TSan by construction.
 *
 * Span names and note labels must be string literals (static
 * storage): the ring stores the pointer, and the dump — possibly
 * after the writing thread exited — reads it back.
 */

#ifndef PT_OBS_FLIGHTREC_H
#define PT_OBS_FLIGHTREC_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/loaderror.h"
#include "base/types.h"

namespace pt::obs
{

/** What one flight-recorder entry records. */
enum class FlightKind : u64
{
    SpanBegin = 1,
    SpanEnd = 2,
    Pc = 3,
    Ref = 4,
    Event = 5,
    Note = 6,
};

class FlightRecorder
{
  public:
    /** Entries retained per thread (power of two). */
    static constexpr std::size_t kCapacity = 1024;

    static FlightRecorder &global();

    /** Cheap recording predicate for call sites. */
    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    void
    setEnabled(bool e)
    {
        on.store(e, std::memory_order_relaxed);
    }

    /** Enables recording and sets where triggers dump. */
    void arm(const std::string &path);

    bool armed() const;
    std::string dumpPath() const;

    /** @p name / @p label must be string literals. */
    void noteSpanBegin(const char *name);
    void noteSpanEnd(const char *name);
    void notePc(u32 pc, u64 cycle);
    void noteRef(u32 addr, u64 cycle);
    void noteEvent(u64 index, u64 cycle);
    void note(const char *label, u64 value);

    /** Renders the bundle (all threads' recent entries). */
    std::string toJson(const std::string &reason) const;

    /** Writes the bundle to @p path. */
    bool writeDumpTo(const std::string &path,
                     const std::string &reason,
                     std::string *errOut = nullptr) const;

    /**
     * Trigger entry point: writes the bundle to the armed path, but
     * only for the FIRST trigger of the process — the earliest
     * failure context is the interesting one, and later triggers
     * (e.g. the quarantine that follows a watchdog stall) must not
     * overwrite it. No-op (returning false) when not armed or
     * already dumped.
     */
    bool dumpOnTrigger(const std::string &reason);

    /** Test hook: forgets all entries, disarms, re-opens the
     *  trigger. */
    void reset();

  private:
    struct Slot
    {
        std::atomic<u64> seq{0};
        std::atomic<u64> kind{0};
        std::atomic<u64> name{0};
        std::atomic<u64> value{0};
        std::atomic<u64> cycle{0};
    };

    struct Ring
    {
        u64 tid = 0;
        std::atomic<u64> head{0};
        Slot slots[kCapacity];
    };

    FlightRecorder() = default;

    Ring *localRing();
    void record(FlightKind k, u64 name, u64 value, u64 cycle);

    std::atomic<bool> on{false};
    std::atomic<bool> dumped{false};

    mutable std::mutex regM;
    std::vector<std::unique_ptr<Ring>> rings;
    std::string path;
};

/** One decoded entry of a loaded dump. */
struct FlightEntry
{
    std::string kind;
    std::string name;
    u64 value = 0;
    u64 cycle = 0;
};

struct FlightThread
{
    u64 tid = 0;
    std::vector<FlightEntry> entries;
};

/** A parsed + validated flight-recorder bundle. */
struct FlightDump
{
    std::string reason;
    u64 capacity = 0;
    std::vector<FlightThread> threads;
};

/**
 * Loads and validates a dump bundle. Truncated, corrupt, or
 * wrong-schema files are rejected with a structured LoadError
 * (offset + field + reason), never a partial result.
 */
LoadResult loadFlightDump(const std::string &path, FlightDump &out);

} // namespace pt::obs

#endif // PT_OBS_FLIGHTREC_H
