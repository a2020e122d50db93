/**
 * @file
 * The palmtrace command-line driver.
 *
 * Every subcommand is one row of the command table (kCommands, at the
 * end of this file): its handler, its operand synopsis, a one-line
 * summary, and the typed flags it reads. `palmtrace help`, each
 * command's usage line and the unknown-subcommand hint are generated
 * from that table, and main() checks the whole command line against
 * the row before the handler runs.
 *
 * Exit codes: 0 success, 1 operational failure (corrupt artifact,
 * failed validation), 2 usage error (unknown subcommand, missing
 * operand, a flag the subcommand does not take, a repeated flag, a
 * flag without its value, or a value of the wrong type or out of
 * range), 130 interrupted.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/binio.h"
#include "base/cancel.h"
#include "base/json.h"
#include "base/logging.h"
#include "base/table.h"
#include "base/threadpool.h"
#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "core/palmsim.h"
#include "device/checkpoint.h"
#include "m68k/disasm.h"
#include "obs/flightrec.h"
#include "obs/profile.h"
#include "obs/ratewindow.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "serve/client.h"
#include "serve/server.h"
#include "super/jobs.h"
#include "super/journal.h"
#include "trace/dinero.h"
#include "trace/memtrace.h"
#include "trace/packedtrace.h"
#include "trace/tracediff.h"
#include "validate/artifactcheck.h"
#include "validate/correlate.h"
#include "workload/desktoptrace.h"
#include "workload/sessionrunner.h"
#include "workload/tracefeed.h"

namespace
{

using namespace pt;

/** SIGINT requests a cooperative stop: long-running loops poll this
 *  token, unwind cleanly (journal footer, metrics flush), and the
 *  process exits 130 like an interrupted shell command. */
CancelToken gSigint;

extern "C" void
onSigint(int)
{
    gSigint.requestCancel(); // async-signal-safe: one atomic store
}

/** A fatal signal's only job before re-raising: flush the flight
 *  recorder so the crash leaves a postmortem bundle behind. A no-op
 *  (beyond re-raising) when the recorder was never armed. */
extern "C" void
onFatalSignal(int sig)
{
    obs::FlightRecorder::global().dumpOnTrigger("fatal_signal");
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

/** Exit code for a run the user interrupted (128 + SIGINT). */
constexpr int kExitInterrupted = 130;

/** SIGTERM asks `palmtrace serve` to drain. The handler only sets
 *  this flag (async-signal-safe); the serving loop polls it and
 *  calls the (not signal-safe) drain machinery from normal code. */
volatile std::sig_atomic_t gSigterm = 0;

extern "C" void
onSigterm(int)
{
    gSigterm = 1;
}

/** How a flag's value is read and checked. */
enum FlagType : u8
{
    Bool, ///< stands alone
    Text, ///< any value
    Int,  ///< a decimal integer in [lo, hi] (parseCount)
    Real, ///< a finite number > 0 (parseScale)
};

/** One flag a command reads. */
struct Flag
{
    const char *name;
    FlagType type;
    const char *meta; ///< the value's placeholder in usage lines
    const char *help;
    u64 lo = 0;
    u64 hi = 0;
    const char *needs = nullptr; ///< another flag that must be given too
};

/** The most sessions one fleet or submit command may request. */
constexpr u64 kMaxFleetCount = u64{1} << 20;
/** The longest --deadline / --session-timeout, in ms (~49 days);
 *  longer ones overflow the watchdog's nanosecond clock math. */
constexpr u64 kMaxMs = 0xFFFFFFFFull;

constexpr Flag kBeams{"--beams", Bool, "", "add IrDA beams to the user model"};
constexpr Flag kCsv{"--csv", Bool, "", "print the table as CSV"};
constexpr Flag kImport{"--import", Bool, "", "HotSync-style logical import"};
constexpr Flag kProfile{"--profile", Bool, "", "also run a two-level cache"};
constexpr Flag kRecover{"--recover", Bool, "", "rewind on divergence"};
constexpr Flag kSaveSessions{"--save-sessions", Bool, "",
                             "also save each collected session"};
constexpr Flag kQuiet{"--quiet", Bool, "", "no logs or heartbeats"};
constexpr Flag kVerbose{"--verbose", Bool, "", "debug log lines"};

constexpr Flag kOutBase{"--out", Text, "BASE", "base name of the output"};
constexpr Flag kOutCsv{"--out", Text, "CSV", "per-config results file", 0, 0,
                       "--packed"};
constexpr Flag kOutReport{"--out", Text, "FILE", "report file, not stdout"};
constexpr Flag kPackOut{"--pack-out", Text, "FILE", "tee the refs into PTPK"};
constexpr Flag kPacked{"--packed", Text, "FILE", "sweep a PTPK trace"};
constexpr Flag kJournal{"--journal", Text, "FILE", "job journal (see resume)"};
constexpr Flag kTimeseriesOut{"--timeseries-out", Text, "FILE",
                              "simulated-time JSONL (CSV for *.csv)"};
constexpr Flag kSocket{"--socket", Text, "PATH", "the server's Unix socket"};
constexpr Flag kScratch{"--scratch", Text, "DIR", "server scratch directory"};
constexpr Flag kMetricsIn{"--metrics", Text, "FILE", "metrics JSON to read"};
constexpr Flag kTimeseriesIn{"--timeseries", Text, "FILE",
                             "timeseries JSONL to read"};
constexpr Flag kJournalIn{"--journal", Text, "FILE", "job journal to read"};
constexpr Flag kPostmortemIn{"--postmortem", Text, "FILE",
                             "flight-recorder bundle to read"};
constexpr Flag kMetricsOut{"--metrics-out", Text, "FILE",
                           "write the metrics registry as JSON"};
constexpr Flag kTraceOut{"--trace-out", Text, "FILE",
                         "write a Chrome/Perfetto timeline"};
constexpr Flag kPostmortem{"--postmortem", Text, "FILE",
                           "arm the flight recorder; dump to FILE"};

constexpr Flag kSeed{"--seed", Int, "N", "random seed", 0, ~u64{0}};
constexpr Flag kSyntheticSeed{"--seed", Int, "N", "Fig 7 trace seed", 0,
                              ~u64{0}, "--synthetic"};
constexpr Flag kInteractions{"--interactions", Int, "N",
                             "user interactions", 0, 65536};
constexpr Flag kIdle{"--idle", Int, "TICKS", "mean idle gap", 0,
                     0xFFFFFFFFull};
// Beyond a minute a burst delay no longer resembles a replay burst.
constexpr Flag kJitter{"--jitter", Int, "TICKS", "delay per event burst", 0,
                       60 * kTicksPerSecond};
// One row per interval: below 1/16 of the 2^20 default, the series
// outgrows memory on a long replay.
constexpr Flag kTsInterval{"--ts-interval", Int, "N",
                           "timeseries interval width",
                           obs::Timeseries::kDefaultIntervalCycles / 16,
                           u64{1} << 40, "--timeseries-out"};
constexpr Flag kFleetCount{"--count", Int, "N", "sessions in the fleet", 1,
                           kMaxFleetCount};
constexpr Flag kScale{"--scale", Real, "X", "session length scale, > 0"};
constexpr Flag kBlock{"--block", Int, "N", "references per PTPK block", 1,
                      trace::kPackedMaxBlockCapacity};
constexpr Flag kSynthetic{"--synthetic", Int, "N", "Fig 7 references", 1,
                          u64{1} << 32};
constexpr Flag kDisasmCount{"--count", Int, "N", "instructions to list", 1,
                            u64{1} << 20};
constexpr Flag kDeadline{"--deadline", Int, "MS", "item stall deadline", 0,
                         kMaxMs};
constexpr Flag kMaxRetries{"--max-retries", Int, "N", "attempts per item", 0,
                           1000};
constexpr Flag kTcp{"--tcp", Int, "PORT", "loopback TCP (serve: 0 = any)", 0,
                    65535};
constexpr Flag kMaxSessions{"--max-sessions", Int, "N", "admission queue", 1,
                            kMaxFleetCount};
constexpr Flag kSessionTimeout{"--session-timeout", Int, "MS",
                               "per-session deadline", 0, kMaxMs};
constexpr Flag kJobs{"--jobs", Int, "N", "worker threads (also PT_JOBS)", 1,
                     kMaxJobs};

/** Flags every command takes; main() reads them. A row that declares
 *  a flag of the same name gives it its own meaning instead. */
constexpr Flag kGlobalFlags[] = {kJobs,       kMetricsOut, kTraceOut,
                                 kPostmortem, kQuiet,      kVerbose};

struct Args;

/** One row of the command table. */
struct Command
{
    const char *name; ///< "replay", or "trace pack" for a trace op
    int (*run)(const Args &);
    const char *operands; ///< synopsis of operands and required flags
    const char *summary;
    std::vector<Flag> flags;
    std::size_t minOps = 0, maxOps = 0;
};

std::vector<std::string> synopsisWords(const Command &c);
void printWrapped(std::FILE *to, const std::string &lead,
                  const std::vector<std::string> &words,
                  std::size_t indent);

/** A command line checked against its row: the operands in order and
 *  each flag given, with its value already parsed and range-checked. */
struct Args
{
    struct Value
    {
        const char *text = ""; ///< as given; "" for a bool flag
        u64 n = 0;             ///< an Int flag
        double x = 0;          ///< a Real flag
        bool global = false;   ///< matched kGlobalFlags, not the row
    };

    const Command *cmd = nullptr;
    std::vector<const char *> ops;
    std::map<std::string, Value> flags;

    bool
    has(const char *flag) const
    {
        return flags.count(flag) != 0;
    }

    const char *
    text(const char *flag) const
    {
        auto it = flags.find(flag);
        return it == flags.end() ? nullptr : it->second.text;
    }

    u64
    num(const char *flag, u64 otherwise) const
    {
        auto it = flags.find(flag);
        return it == flags.end() ? otherwise : it->second.n;
    }

    double
    real(const char *flag, double otherwise) const
    {
        auto it = flags.find(flag);
        return it == flags.end() ? otherwise : it->second.x;
    }

    /** A global flag's value, unless the row gave the name its own
     *  meaning. */
    const char *
    global(const char *flag) const
    {
        auto it = flags.find(flag);
        return it != flags.end() && it->second.global ? it->second.text
                                                      : nullptr;
    }

    /** Prints this command's usage line. @return 2. */
    int
    usage() const
    {
        printWrapped(stderr, "usage: palmtrace", synopsisWords(*cmd),
                     17);
        return 2;
    }
};

/** Levenshtein distance, for the "did you mean" hints. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t prev = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t cur = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               prev + (a[i - 1] != b[j - 1])});
            prev = cur;
        }
    }
    return row[b.size()];
}

/** Prints "did you mean" for the candidate within edit distance 2 of
 *  @p word that is closest to it, if any. */
void
suggest(const std::string &word, const std::vector<std::string> &candidates)
{
    const std::string *best = nullptr;
    std::size_t bestDist = 3;
    for (const std::string &c : candidates) {
        std::size_t d = editDistance(word, c);
        if (d < bestDist) {
            bestDist = d;
            best = &c;
        }
    }
    if (best)
        std::fprintf(stderr, "did you mean '%s'?\n", best->c_str());
    std::fprintf(stderr, "run 'palmtrace help' for the full list\n");
}

/** Prints @p words after @p lead, wrapped at 78 columns with
 *  continuation lines indented by @p indent. */
void
printWrapped(std::FILE *to, const std::string &lead,
             const std::vector<std::string> &words, std::size_t indent)
{
    std::string line = lead;
    for (const std::string &w : words) {
        if (line.size() + 1 + w.size() > 78 &&
            line.size() > indent) {
            std::fprintf(to, "%s\n", line.c_str());
            line.assign(indent - 1, ' ');
        }
        line += ' ' + w;
    }
    std::fprintf(to, "%s\n", line.c_str());
}

/** "[--jitter TICKS]", as a usage line lists an optional flag. */
std::string
bracketed(const Flag &f)
{
    return std::string("[") + f.name + (*f.meta ? " " : "") + f.meta + "]";
}

/** "replay BASE [--import] [--jitter TICKS] ...": the operands, then
 *  each flag the synopsis does not already name. */
std::vector<std::string>
synopsisWords(const Command &c)
{
    std::vector<std::string> words = {c.name};
    if (*c.operands)
        words.push_back(c.operands);
    for (const Flag &f : c.flags) {
        if (std::strstr(c.operands, (f.name + std::string(" ")).c_str()))
            continue; // a required flag, named in the synopsis
        words.push_back(bracketed(f));
    }
    return words;
}

/**
 * Checks @p argv (everything after the subcommand) against @p cmd's
 * row and fills @p a. @return 0, or 2 after naming the offending flag
 * or value on stderr: an unknown flag (another command's included), a
 * repeated flag, a value flag with no value, a value of the wrong type
 * or out of range, a flag given without the flag it needs, or a wrong
 * number of operands.
 */
int
parseArgs(const Command &cmd, int argc, char **argv, Args &a)
{
    a.cmd = &cmd;
    for (int i = 0; i < argc; ++i) {
        const std::string name = argv[i];
        if (name[0] != '-') {
            a.ops.push_back(argv[i]);
            continue;
        }
        auto lookup = [&](const auto &list) -> const Flag * {
            for (const Flag &c : list)
                if (name == c.name)
                    return &c;
            return nullptr;
        };
        const Flag *f = lookup(cmd.flags);
        const bool global = !f;
        if (!f)
            f = lookup(kGlobalFlags);
        if (!f) {
            std::fprintf(stderr, "%s: unknown flag '%s'\n", cmd.name,
                         name.c_str());
            std::vector<std::string> known;
            for (const Flag &c : cmd.flags)
                known.push_back(c.name);
            for (const Flag &c : kGlobalFlags)
                known.push_back(c.name);
            suggest(name, known);
            return 2;
        }
        if (a.has(f->name)) {
            std::fprintf(stderr, "%s: flag '%s' given more than once\n",
                         cmd.name, f->name);
            return 2;
        }
        Args::Value v;
        v.global = global;
        if (f->type != Bool) {
            // A value may look negative ("--jobs -1" fails its range
            // check) but is never another flag.
            if (i + 1 == argc || !std::strncmp(argv[i + 1], "--", 2)) {
                std::fprintf(stderr, "%s: flag '%s' needs a value\n",
                             cmd.name, f->name);
                return 2;
            }
            v.text = argv[++i];
        }
        if (f->type == Int) {
            auto n = parseCount(v.text, f->lo, f->hi);
            if (!n) {
                std::fprintf(stderr,
                             "%s: %s %s: expected an integer in "
                             "[%llu, %llu]\n",
                             cmd.name, f->name, v.text,
                             static_cast<unsigned long long>(f->lo),
                             static_cast<unsigned long long>(f->hi));
                return 2;
            }
            v.n = *n;
        } else if (f->type == Real) {
            v.x = parseScale(v.text);
            if (!v.x) {
                std::fprintf(stderr,
                             "%s: %s %s: expected a finite number > 0\n",
                             cmd.name, f->name, v.text);
                return 2;
            }
        }
        a.flags[f->name] = v;
    }
    for (const Flag &f : cmd.flags) {
        if (f.needs && a.has(f.name) && !a.has(f.needs)) {
            std::fprintf(stderr, "%s: %s needs %s\n", cmd.name, f.name,
                         f.needs);
            return 2;
        }
    }
    if (a.ops.size() < cmd.minOps || a.ops.size() > cmd.maxOps)
        return a.usage();
    return 0;
}

// ---------------------------------------------------------------------
// Observability plumbing shared by the subcommands.

/** Wall-clock heartbeat printer for long replays. Reports progress
 *  in emulated cycles — the quantity replay wall time is actually
 *  proportional to — with a cycle-rate ETA. Rates and the ETA come
 *  from a sliding window over recent reports, not the run-lifetime
 *  average, so they converge on the current pace instead of being
 *  dragged by a slow warm-up or an early fast phase. */
class Heartbeat
{
  public:
    void
    install(replay::ReplayOptions &opts, u64 everyEvents = 250)
    {
        start = std::chrono::steady_clock::now();
        opts.progressEveryEvents = everyEvents;
        opts.progress = [this](const replay::ReplayProgress &p) {
            report(p);
        };
    }

  private:
    void
    report(const replay::ReplayProgress &p)
    {
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        if (secs <= 0.0)
            return;
        events.add(secs, static_cast<double>(p.eventsDelivered));
        cycles.add(secs, static_cast<double>(p.cycles));
        // The replay ends around the last scheduled event (plus a
        // short settle), so the final emulated-cycle position is
        // known up front — unlike wall time, which depends on host
        // load, this ETA is derived from emulated progress.
        u64 finalCycles = p.finalTick * kCyclesPerTick;
        double eta = std::max(
            0.0, cycles.etaSeconds(static_cast<double>(finalCycles)));
        std::fprintf(
            stderr,
            "progress: %llu/%llu events, cycle %.1fM/%.1fM "
            "(%.0f events/s, %.2fM cyc/s, ETA %.1fs)\n",
            static_cast<unsigned long long>(p.eventsDelivered),
            static_cast<unsigned long long>(p.totalEvents),
            static_cast<double>(p.cycles) / 1e6,
            static_cast<double>(finalCycles) / 1e6, events.rate(),
            cycles.rate() / 1e6, eta);
    }

    std::chrono::steady_clock::time_point start;
    obs::RateWindow events;
    obs::RateWindow cycles;
};

/** Publishes one simulated cache level into the registry. */
void
publishCacheLevel(const char *level, const cache::CacheStats &st)
{
    auto &reg = obs::Registry::global();
    std::string p = std::string("cache.") + level + ".";
    reg.counter(p + "accesses").inc(st.accesses);
    reg.counter(p + "hits").inc(st.accesses - st.misses);
    reg.counter(p + "misses").inc(st.misses);
    reg.counter(p + "evictions").inc(st.evictions);
    reg.gauge(p + "miss_rate").set(st.missRate());
}

/** Feeds the replayed reference stream into a two-level hierarchy. */
class HierarchySink : public device::MemRefSink
{
  public:
    explicit HierarchySink(cache::TwoLevelCache &h)
        : hier(h)
    {}

    void
    onRef(Addr addr, m68k::AccessKind,
          device::RefClass cls) override
    {
        if (cls == device::RefClass::Ram)
            hier.access(addr, false);
        else if (cls == device::RefClass::Flash)
            hier.access(addr, true);
    }

  private:
    cache::TwoLevelCache &hier;
};

/** The representative profiling hierarchy: the paper's sweet-spot L1
 *  (8 KB, 32 B lines, 4-way) over a unified 64 KB L2. */
cache::TwoLevelCache
profileHierarchy()
{
    cache::CacheConfig l1;
    l1.sizeBytes = 8 * 1024;
    l1.lineBytes = 32;
    l1.assoc = 4;
    cache::CacheConfig l2;
    l2.sizeBytes = 64 * 1024;
    l2.lineBytes = 32;
    l2.assoc = 8;
    return cache::TwoLevelCache(l1, l2);
}

// ---------------------------------------------------------------------
// Simulated-time telemetry plumbing shared by replay and sweep.

bool
writeTimeseries(const obs::Timeseries &ts, const char *path,
                const char *what)
{
    std::string err;
    if (!ts.writeFile(path, &err)) {
        std::fprintf(stderr, "%s: timeseries: %s\n", what,
                     err.c_str());
        return false;
    }
    std::fprintf(stderr, "timeseries written to %s (%zu intervals)\n",
                 path, ts.rows().size());
    return true;
}

/** Feeds Ram/Flash references into a reference-domain series (the
 *  sweep's telemetry: mix and energy per fixed count of refs). */
class RefsTsSink final : public device::MemRefSink
{
  public:
    explicit RefsTsSink(obs::Timeseries &ts)
        : ts(ts)
    {}

    void
    onRef(Addr, m68k::AccessKind kind, device::RefClass cls) override
    {
        if (cls != device::RefClass::Ram &&
            cls != device::RefClass::Flash)
            return;
        const obs::TsRef k =
            kind == m68k::AccessKind::Fetch ? obs::TsRef::Ifetch
            : kind == m68k::AccessKind::Write ? obs::TsRef::Dwrite
                                              : obs::TsRef::Dread;
        ts.addRef(0, k, cls == device::RefClass::Flash);
    }

  private:
    obs::Timeseries &ts;
};

/** Streams a packed trace into a reference-domain series (the packed
 *  sweep's telemetry pass — every sweep shard consumed the identical
 *  stream, so one pass serves all 56 configurations). */
bool
packedTraceToRefSeries(const char *path, obs::Timeseries &ts,
                       const char *what)
{
    trace::PackedTraceReader reader;
    if (auto r = reader.open(path); !r) {
        std::fprintf(stderr, "%s: timeseries: %s: %s\n", what, path,
                     r.message().c_str());
        return false;
    }
    std::vector<trace::TraceRecord> block;
    while (reader.nextBlock(block)) {
        for (const auto &rec : block) {
            const obs::TsRef k = rec.kind == 0 ? obs::TsRef::Ifetch
                                 : rec.kind == 2
                                     ? obs::TsRef::Dwrite
                                     : obs::TsRef::Dread;
            ts.addRef(0, k, rec.cls == 1);
        }
    }
    if (auto &r = reader.status(); !r) {
        std::fprintf(stderr, "%s: timeseries: %s: %s\n", what, path,
                     r.message().c_str());
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------

int
cmdCollect(const Args &a)
{
    const char *out = a.text("--out");
    if (!out)
        return a.usage();
    workload::UserModelConfig cfg;
    cfg.seed = a.num("--seed", 1);
    cfg.interactions = static_cast<u32>(a.num("--interactions", 12));
    cfg.meanIdleTicks = static_cast<Ticks>(a.num("--idle", 30000));
    if (a.has("--beams"))
        cfg.beamWeight = 0.2;

    core::PalmSimulator sim;
    sim.beginCollection();
    auto stats = sim.runUser(cfg);
    core::Session s = sim.endCollection();
    std::string err;
    if (!s.save(out, &err)) {
        std::fprintf(stderr, "collect: %s\n", err.c_str());
        return 1;
    }
    std::printf("session saved to %s.{init.snap,log,final.snap}\n",
                out);
    std::printf("%zu log records; user did %u strokes, %u taps, "
                "%u switches, %u scrolls, %u beams over %.1f min\n",
                s.log.records.size(), stats.strokes, stats.taps,
                stats.appSwitches, stats.scrollHolds, stats.beams,
                static_cast<double>(stats.elapsedTicks) / 6000.0);
    return 0;
}

bool
loadSession(const Args &a, core::Session &s)
{
    const char *base = a.ops.front();
    if (auto res = core::Session::load(base, s); !res) {
        std::fprintf(stderr, "cannot load session '%s': %s\n", base,
                     res.message().c_str());
        return false;
    }
    return true;
}

int
cmdInfo(const Args &a)
{
    core::Session s;
    if (!loadSession(a, s))
        return 1;
    TextTable t("Session summary");
    t.setHeader({"Quantity", "Value"});
    t.addRow({"log records", std::to_string(s.log.records.size())});
    t.addRow({"pen points",
              std::to_string(s.log.countOf(hacks::LogType::PenPoint))});
    t.addRow({"key events",
              std::to_string(s.log.countOf(hacks::LogType::Key))});
    t.addRow({"key-state polls",
              std::to_string(s.log.countOf(hacks::LogType::KeyState))});
    t.addRow({"notifies",
              std::to_string(s.log.countOf(hacks::LogType::Notify))});
    t.addRow({"random calls",
              std::to_string(s.log.countOf(hacks::LogType::Random))});
    t.addRow({"serial bytes",
              std::to_string(s.log.countOf(hacks::LogType::Serial))});
    if (!s.log.records.empty()) {
        t.addRow({"first tick",
                  std::to_string(s.log.records.front().tick)});
        t.addRow({"last tick",
                  std::to_string(s.log.records.back().tick)});
        t.addRow({"elapsed",
                  TextTable::hms(s.log.records.back().tick /
                                 kTicksPerSecond)});
    }
    device::SnapshotBus bus(s.finalState);
    t.addRow({"databases (final)",
              std::to_string(os::listDatabases(bus).size())});
    std::printf("%s", t.render().c_str());
    return 0;
}

int
cmdReplay(const Args &a)
{
    core::Session s;
    if (!loadSession(a, s))
        return 1;
    core::ReplayConfig cfg;
    cfg.logicalImportMode = a.has("--import");
    cfg.options.burstJitterTicks =
        static_cast<Ticks>(a.num("--jitter", 0));
    cfg.options.recover = a.has("--recover");

    // Profiling mode: run the reference stream through a representative
    // two-level hierarchy so per-level counters land in the registry.
    bool profile = a.has("--profile");
    cache::TwoLevelCache hier = profileHierarchy();
    HierarchySink hierSink(hier);

    // --pack-out tees the replayed reference stream into a packed
    // PTPK trace file; composable with --profile through a TeeSink.
    const char *packOut = a.text("--pack-out");
    std::unique_ptr<trace::PackedTraceWriter> packWriter;
    std::unique_ptr<trace::PackedWriterSink> packSink;
    trace::TeeSink tee;
    if (profile)
        tee.add(&hierSink);
    if (packOut) {
        packWriter = std::make_unique<trace::PackedTraceWriter>(packOut);
        if (!packWriter->ok()) {
            std::fprintf(stderr,
                         "replay: cannot open '%s' for writing\n",
                         packOut);
            return 1;
        }
        packSink = std::make_unique<trace::PackedWriterSink>(*packWriter);
        tee.add(packSink.get());
    }
    if (profile || packOut)
        cfg.extraRefSink = &tee;

    // Simulated-time telemetry: the replay engine observes CPU
    // progress once per event and the core attributes each reference
    // (and its cache outcome, via a dedicated profiling hierarchy)
    // to the interval holding its cycle.
    const char *tsOut = a.text("--timeseries-out");
    std::unique_ptr<obs::Timeseries> ts;
    cache::TwoLevelCache tsHier = profileHierarchy();
    if (tsOut) {
        ts = std::make_unique<obs::Timeseries>(a.num(
            "--ts-interval", obs::Timeseries::kDefaultIntervalCycles));
        cfg.timeseries = ts.get();
        cfg.tsHierarchy = &tsHier;
    }

    Heartbeat hb;
    if (!a.has("--quiet"))
        hb.install(cfg.options);
    cfg.options.cancel = &gSigint;

    core::ReplayResult r = core::PalmSimulator::replaySession(s, cfg);
    if (r.replayStats.optionsRejected) {
        std::fprintf(stderr, "replay: %s\n",
                     r.replayStats.optionsError.c_str());
        return 2;
    }
    if (r.replayStats.interrupted) {
        // A partial trace must not look complete: abort drops the
        // temporary instead of renaming it into place.
        if (packWriter)
            packWriter->abort();
        std::fprintf(stderr, "replay: interrupted\n");
        return kExitInterrupted;
    }
    std::printf("instructions  %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("cycles        %llu (%.2f s guest time)\n",
                static_cast<unsigned long long>(r.cycles),
                static_cast<double>(r.cycles) / kCpuHz);
    std::printf("RAM refs      %llu\n",
                static_cast<unsigned long long>(r.refs.ramRefs()));
    std::printf("flash refs    %llu (%.1f%%)\n",
                static_cast<unsigned long long>(r.refs.flashRefs()),
                r.refs.flashFraction() * 100.0);
    std::printf("T_eff (Eq 3)  %.3f cycles (no cache)\n",
                r.refs.avgMemCycles());
    std::printf("events        %llu pen, %llu key, %llu serial; "
                "%llu key-state overrides, %llu seeds\n",
                static_cast<unsigned long long>(
                    r.replayStats.penEventsInjected),
                static_cast<unsigned long long>(
                    r.replayStats.keyEventsInjected),
                static_cast<unsigned long long>(
                    r.replayStats.serialBytesInjected),
                static_cast<unsigned long long>(
                    r.replayStats.keyStateOverrides),
                static_cast<unsigned long long>(
                    r.replayStats.seedsApplied));
    if (cfg.options.recover) {
        std::printf("recovery      %llu divergences, %llu rewinds, "
                    "%llu records skipped\n",
                    static_cast<unsigned long long>(
                        r.replayStats.divergencesDetected),
                    static_cast<unsigned long long>(
                        r.replayStats.recoveryRewinds),
                    static_cast<unsigned long long>(
                        r.replayStats.recordsSkipped));
    }
    if (packWriter) {
        std::string err;
        if (!packWriter->close(&err)) {
            std::fprintf(stderr, "replay: pack-out: %s\n", err.c_str());
            return 1;
        }
        double perRef =
            packWriter->count()
                ? static_cast<double>(packWriter->bytesWritten()) /
                      static_cast<double>(packWriter->count())
                : 0.0;
        std::printf("packed trace  %s (%llu refs, %llu bytes, "
                    "%.2f B/ref)\n",
                    packOut,
                    static_cast<unsigned long long>(packWriter->count()),
                    static_cast<unsigned long long>(
                        packWriter->bytesWritten()),
                    perRef);
    }
    if (profile) {
        publishCacheLevel("l1", hier.l1().stats());
        publishCacheLevel("l2", hier.l2().stats());
        std::printf("cache L1      %.3f%% miss (%s), L2 %.3f%% miss "
                    "(%s); T_eff %.3f cycles\n",
                    hier.l1().stats().missRate() * 100.0,
                    hier.l1().config().name().c_str(),
                    hier.l2().stats().missRate() * 100.0,
                    hier.l2().config().name().c_str(),
                    hier.avgAccessTime());
    }
    if (ts && !writeTimeseries(*ts, tsOut, "replay"))
        return 1;
    return 0;
}

std::vector<std::string>
resolveArtifactPaths(const char *target)
{
    // A direct file path is checked alone; otherwise the operand is a
    // session base naming the usual three artifacts.
    std::vector<std::string> paths;
    if (std::FILE *f = std::fopen(target, "rb")) {
        std::fclose(f);
        paths.push_back(target);
    } else {
        std::string base = target;
        paths = {base + ".init.snap", base + ".log",
                 base + ".final.snap"};
    }
    return paths;
}

int
cmdFsck(const Args &a)
{
    const char *target = a.ops.front();
    bool allClean = true;
    for (const auto &p : resolveArtifactPaths(target)) {
        validate::FsckReport rep = validate::fsckArtifact(p);
        std::printf("%s\n", rep.summary.c_str());
        allClean = allClean && rep.clean();
        // Stale-temp hygiene: a crashed atomic write strands
        // "<path>.tmp". Report the litter (informational — the
        // artifact itself decides the exit code); journalled resumes
        // clean the temporaries they own.
        std::string tmp = p + ".tmp";
        if (std::FILE *f = std::fopen(tmp.c_str(), "rb")) {
            std::fclose(f);
            std::printf("%s: stale temporary from an interrupted "
                        "atomic write (safe to delete)\n",
                        tmp.c_str());
        }
    }
    return allClean ? 0 : 1;
}

/** Per-kind artifact summaries for `palmtrace stats`. */
void
statsForLog(const std::string &path, TextTable &t)
{
    trace::ActivityLog log;
    if (auto res = trace::ActivityLog::load(path, log); !res)
        return;
    auto row = [&](const char *what, u64 v) {
        t.addRow({path, what, std::to_string(v)});
    };
    row("records", log.records.size());
    row("pen points", log.countOf(hacks::LogType::PenPoint));
    row("key events", log.countOf(hacks::LogType::Key));
    row("key-state polls", log.countOf(hacks::LogType::KeyState));
    row("notifies", log.countOf(hacks::LogType::Notify));
    row("random calls", log.countOf(hacks::LogType::Random));
    row("serial bytes", log.countOf(hacks::LogType::Serial));
    if (!log.records.empty()) {
        row("first tick", log.records.front().tick);
        row("last tick", log.records.back().tick);
        t.addRow({path, "elapsed",
                  TextTable::hms(log.records.back().tick /
                                 kTicksPerSecond)});
    }
    auto &reg = obs::Registry::global();
    reg.counter("artifact.logs_summarized").inc();
    reg.counter("artifact.log_records").inc(log.records.size());
}

void
statsForSnapshot(const std::string &path, TextTable &t)
{
    device::Snapshot snap;
    if (auto res = device::Snapshot::load(path, snap); !res)
        return;
    u64 nonZero = 0;
    for (u8 b : snap.ram)
        nonZero += b != 0;
    char fp[20];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(snap.fingerprint()));
    t.addRow({path, "RAM bytes", std::to_string(snap.ram.size())});
    t.addRow({path, "RAM bytes nonzero", std::to_string(nonZero)});
    t.addRow({path, "ROM bytes", std::to_string(snap.rom.size())});
    t.addRow({path, "RTC base", std::to_string(snap.rtcBase)});
    t.addRow({path, "fingerprint", fp});
    obs::Registry::global().counter("artifact.snapshots_summarized")
        .inc();
}

void
statsForCheckpoint(const std::string &path, TextTable &t)
{
    device::Checkpoint cp;
    if (auto res = device::Checkpoint::load(path, cp); !res)
        return;
    char fp[20];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(cp.fingerprint()));
    char pc[16];
    std::snprintf(pc, sizeof(pc), "0x%08X", cp.cpu.pc);
    t.addRow({path, "cycles", std::to_string(cp.cycleCount)});
    t.addRow({path, "ticks",
              std::to_string(cp.cycleCount / kCyclesPerTick)});
    t.addRow({path, "instructions",
              std::to_string(cp.cpu.instructions)});
    t.addRow({path, "PC", pc});
    t.addRow({path, "stopped", cp.cpu.stopped ? "yes" : "no"});
    t.addRow({path, "fingerprint", fp});
    obs::Registry::global()
        .counter("artifact.checkpoints_summarized")
        .inc();
}

bool
readFileText(const char *path, std::string &out)
{
    std::FILE *f = std::fopen(path, "rb");
    if (!f)
        return false;
    char buf[1 << 16];
    for (;;) {
        std::size_t n = std::fread(buf, 1, sizeof(buf), f);
        out.append(buf, n);
        if (n < sizeof(buf))
            break;
    }
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

/** The JSON telemetry artifacts carry their schema tag up front;
 *  peeking at the head routes them to the right summarizer. */
std::string
sniffJsonSchema(const char *path)
{
    std::FILE *f = std::fopen(path, "rb");
    if (!f)
        return {};
    char buf[128];
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    const std::string head(buf);
    if (head.find("palmtrace-timeseries-v1") != std::string::npos)
        return "timeseries";
    if (head.find("palmtrace-flightrec-v1") != std::string::npos)
        return "flightrec";
    return {};
}

/** Interpolated percentile over an unsorted sample (exact, unlike
 *  the registry histogram's bucket interpolation). */
double
samplePercentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    if (p <= 0.0)
        return v.front();
    if (p >= 1.0)
        return v.back();
    const double t = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(t);
    const double frac = t - static_cast<double>(lo);
    if (lo + 1 >= v.size())
        return v.back();
    return v[lo] + (v[lo + 1] - v[lo]) * frac;
}

/** Aggregates over a timeseries JSONL file, shared by `stats` and
 *  `report`. */
struct TsSummary
{
    bool ok = false;
    std::string error;
    std::string domain;
    u64 interval = 0;
    u64 intervals = 0;
    u64 instructions = 0, cycles = 0, ram = 0, flash = 0, events = 0;
    u64 l1h = 0, l1m = 0, l2h = 0, l2m = 0;
    double energy = 0.0;
    std::vector<double> ipc; ///< per-interval, cycle intervals only
};

TsSummary
summarizeTimeseries(const char *path)
{
    TsSummary s;
    std::string text;
    if (!readFileText(path, text)) {
        s.error = std::string("cannot read '") + path + "'";
        return s;
    }
    std::size_t pos = 0;
    json::JsonValue header;
    if (auto r = json::parseOne(text, pos, header); !r) {
        s.error = r.message();
        return s;
    }
    if (header.stringOr("schema", "") != "palmtrace-timeseries-v1") {
        s.error = "not a palmtrace-timeseries-v1 file";
        return s;
    }
    s.domain = header.stringOr("domain", "?");
    s.interval = header.u64Or("interval", 0);
    // parseOne stops at line ends (that is what makes it a JSONL
    // reader); the loop owns stepping over them.
    auto skipLines = [&] {
        while (pos < text.size() &&
               (text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    };
    skipLines();
    while (pos < text.size()) {
        json::JsonValue row;
        if (auto r = json::parseOne(text, pos, row); !r) {
            s.error = r.message();
            return s;
        }
        ++s.intervals;
        s.instructions += row.u64Or("instructions", 0);
        const u64 c = row.u64Or("cycles", 0);
        s.cycles += c;
        s.ram += row.u64Or("ram_refs", 0);
        s.flash += row.u64Or("flash_refs", 0);
        s.events += row.u64Or("events", 0);
        s.l1h += row.u64Or("l1_hits", 0);
        s.l1m += row.u64Or("l1_misses", 0);
        s.l2h += row.u64Or("l2_hits", 0);
        s.l2m += row.u64Or("l2_misses", 0);
        s.energy += row.numberOr("energy_mj", 0.0);
        if (c > 0)
            s.ipc.push_back(row.numberOr("ipc", 0.0));
        skipLines();
    }
    s.ok = true;
    return s;
}

/** `stats` on a timeseries JSONL artifact: totals plus the
 *  per-interval IPC distribution (p50/p95/p99). */
int
statsForTimeseriesFile(const char *path)
{
    TsSummary sum = summarizeTimeseries(path);
    if (!sum.ok) {
        std::fprintf(stderr, "stats: %s: %s\n", path,
                     sum.error.c_str());
        return 1;
    }
    const u64 intervals = sum.intervals;
    const u64 instructions = sum.instructions, cycles = sum.cycles;
    const u64 ram = sum.ram, flash = sum.flash, events = sum.events;
    const u64 l1h = sum.l1h, l1m = sum.l1m, l2h = sum.l2h,
              l2m = sum.l2m;
    const double energy = sum.energy;
    const std::vector<double> &ipc = sum.ipc;

    TextTable t("Timeseries summary");
    t.setHeader({"Quantity", "Value"});
    t.addRow({"domain", sum.domain});
    t.addRow({"interval width", std::to_string(sum.interval)});
    t.addRow({"intervals", std::to_string(intervals)});
    t.addRow({"instructions", std::to_string(instructions)});
    t.addRow({"cycles", std::to_string(cycles)});
    t.addRow({"RAM refs", std::to_string(ram)});
    t.addRow({"flash refs", std::to_string(flash)});
    if (ram + flash) {
        t.addRow({"flash fraction",
                  TextTable::percent(
                      static_cast<double>(flash) /
                          static_cast<double>(ram + flash),
                      2)});
    }
    if (l1h + l1m) {
        t.addRow({"L1 miss rate",
                  TextTable::percent(
                      static_cast<double>(l1m) /
                          static_cast<double>(l1h + l1m),
                      3)});
    }
    if (l2h + l2m) {
        t.addRow({"L2 miss rate",
                  TextTable::percent(
                      static_cast<double>(l2m) /
                          static_cast<double>(l2h + l2m),
                      3)});
    }
    t.addRow({"events", std::to_string(events)});
    t.addRow({"energy (mJ)", TextTable::num(energy, 3)});
    if (!ipc.empty()) {
        t.addRow({"IPC p50",
                  TextTable::num(samplePercentile(ipc, 0.50), 4)});
        t.addRow({"IPC p95",
                  TextTable::num(samplePercentile(ipc, 0.95), 4)});
        t.addRow({"IPC p99",
                  TextTable::num(samplePercentile(ipc, 0.99), 4)});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}

/** `stats` on a flight-recorder bundle: trigger, threads, and the
 *  per-kind entry mix. */
int
statsForFlightDumpFile(const char *path)
{
    obs::FlightDump dump;
    if (auto r = obs::loadFlightDump(path, dump); !r) {
        std::fprintf(stderr, "stats: %s: %s\n", path,
                     r.message().c_str());
        return 1;
    }
    std::map<std::string, u64> byKind;
    u64 total = 0;
    for (const auto &th : dump.threads) {
        total += th.entries.size();
        for (const auto &e : th.entries)
            ++byKind[e.kind];
    }
    TextTable t("Flight-recorder bundle");
    t.setHeader({"Quantity", "Value"});
    t.addRow({"trigger", dump.reason});
    t.addRow({"ring capacity", std::to_string(dump.capacity)});
    t.addRow({"threads", std::to_string(dump.threads.size())});
    t.addRow({"entries", std::to_string(total)});
    for (const auto &[kind, n] : byKind)
        t.addRow({"entries: " + kind, std::to_string(n)});
    std::printf("%s", t.render().c_str());
    return 0;
}

int
cmdStats(const Args &a)
{
    const char *target = a.ops.front();
    // The JSON telemetry artifacts (timeseries, flight-recorder
    // bundles) are not framed like the binary artifacts; their
    // schema tag routes them to dedicated summarizers.
    const std::string schema = sniffJsonSchema(target);
    if (schema == "timeseries")
        return statsForTimeseriesFile(target);
    if (schema == "flightrec")
        return statsForFlightDumpFile(target);
    TextTable t("Artifact statistics");
    t.setHeader({"Artifact", "Quantity", "Value"});
    bool allClean = true;
    for (const auto &p : resolveArtifactPaths(target)) {
        validate::FsckReport rep = validate::fsckArtifact(p);
        t.addRow({p, "kind", rep.kind});
        t.addRow({p, "format version", std::to_string(rep.version)});
        t.addRow({p, "size bytes", std::to_string(rep.sizeBytes)});
        t.addRow({p, "integrity",
                  rep.clean() ? (rep.checksummed
                                     ? "ok (checksum verified)"
                                     : "ok (legacy, structural)")
                              : "CORRUPT"});
        if (!rep.clean()) {
            t.addRow({p, "error", rep.result.message()});
            allClean = false;
            continue;
        }
        if (rep.kind == std::string("activity log"))
            statsForLog(p, t);
        else if (rep.kind == std::string("snapshot"))
            statsForSnapshot(p, t);
        else if (rep.kind == std::string("checkpoint"))
            statsForCheckpoint(p, t);
    }
    std::printf("%s", t.render().c_str());
    return allClean ? 0 : 1;
}

int
cmdValidate(const Args &a)
{
    core::Session s;
    if (!loadSession(a, s))
        return 1;
    core::ReplayConfig cfg;
    cfg.logicalImportMode = a.has("--import");

    Heartbeat hb;
    if (!a.has("--quiet"))
        hb.install(cfg.options);

    core::ReplayResult r = core::PalmSimulator::replaySession(s, cfg);

    auto logCorr = validate::correlateLogs(s.log, r.emulatedLog);
    std::printf("%s\n", logCorr.report().c_str());
    device::SnapshotBus handheld(s.finalState);
    device::SnapshotBus emulated(r.finalState);
    auto stateCorr = validate::correlateStates(
        os::listDatabases(handheld), os::listDatabases(emulated));
    std::printf("%s\n", stateCorr.report().c_str());

    auto &reg = obs::Registry::global();
    reg.counter(logCorr.pass() ? "validate.log_pass"
                               : "validate.log_fail")
        .inc();
    reg.counter(stateCorr.pass() ? "validate.state_pass"
                                 : "validate.state_fail")
        .inc();
    reg.gauge("validate.max_lag_ticks")
        .max(static_cast<double>(logCorr.maxTickLag));
    return logCorr.pass() && stateCorr.pass() ? 0 : 1;
}

/** Cache sweep sink. */
class SweepSink : public device::MemRefSink
{
  public:
    explicit SweepSink(cache::CacheSweep &s)
        : sweep(s)
    {}

    void
    onRef(Addr addr, m68k::AccessKind,
          device::RefClass cls) override
    {
        if (cls == device::RefClass::Ram)
            sweep.feed(addr, false);
        else if (cls == device::RefClass::Flash)
            sweep.feed(addr, true);
    }

  private:
    cache::CacheSweep &sweep;
};

/**
 * Prints the 56-row table both sweeps end with: miss rate, T_eff and
 * the saving over no cache. The no-cache base is Eq 3 over the RAM/
 * flash split every cache counted (the same sums and formula as
 * RefCounter::avgMemCycles), so a live sweep and a sweep of its
 * packed trace print the same bytes.
 */
void
printSweepTable(const Args &a, const char *title,
                const std::vector<cache::Cache> &caches)
{
    const cache::CacheStats &any = caches.front().stats();
    double base = cache::CacheStats::noCacheAccessTime(
        any.ramAccesses, any.flashAccesses);

    TextTable t(title);
    t.setHeader({"Config", "Miss rate", "T_eff", "vs no cache"});
    auto &reg = obs::Registry::global();
    for (const auto &c : caches) {
        double teff = c.stats().avgAccessTimePaper();
        t.addRow({c.config().name(),
                  TextTable::percent(c.stats().missRate(), 3),
                  TextTable::num(teff, 3),
                  TextTable::percent(
                      base > 0 ? 1.0 - teff / base : 0.0, 1)});
        if (obs::profileSink()) {
            reg.gauge("cache.sweep." + c.config().name() +
                      ".miss_rate")
                .set(c.stats().missRate());
        }
    }
    if (a.has("--csv"))
        std::printf("%s", t.renderCsv().c_str());
    else
        std::printf("%s\nno-cache baseline: %.3f cycles\n",
                    t.render().c_str(), base);
}

/** The per-config results file of `sweep --packed --out`: one
 *  13-column row per cache, written atomically. */
bool
writeSweepCsv(const char *path, const std::vector<cache::Cache> &caches)
{
    std::string csv =
        "config,size_bytes,line_bytes,assoc,policy,status,accesses,"
        "misses,miss_rate,ram_accesses,ram_misses,flash_accesses,"
        "flash_misses\n";
    for (const cache::Cache &c : caches) {
        const cache::CacheConfig &k = c.config();
        const cache::CacheStats &st = c.stats();
        char rate[48];
        std::snprintf(rate, sizeof(rate), "%.6f", st.missRate());
        csv += k.name() + ',' + std::to_string(k.sizeBytes) + ',' +
               std::to_string(k.lineBytes) + ',' +
               std::to_string(k.assoc) + ',' + cache::policyName(k.policy) +
               ",ok," + std::to_string(st.accesses) + ',' +
               std::to_string(st.misses) + ',' + rate + ',' +
               std::to_string(st.ramAccesses) + ',' +
               std::to_string(st.ramMisses) + ',' +
               std::to_string(st.flashAccesses) + ',' +
               std::to_string(st.flashMisses) + '\n';
    }
    BinWriter w;
    w.putBytes(csv.data(), csv.size());
    std::string err;
    if (!w.writeFile(path, &err)) {
        std::fprintf(stderr, "sweep: write %s: %s\n", path, err.c_str());
        return false;
    }
    return true;
}

/** `sweep --packed`: the 56-configuration case study fed from a
 *  packed PTPK trace instead of a live replay, streamed block by
 *  block from disk with O(block) memory, every configuration in one
 *  decode pass. */
int
cmdSweepPacked(const Args &a, const char *path)
{
    auto t0 = std::chrono::steady_clock::now();
    workload::PackedSweepResult res = workload::sweepPackedFile(
        path, cache::CacheSweep::paper56(), 0, &gSigint);
    if (res.interrupted) {
        std::fprintf(stderr, "sweep: interrupted\n");
        return kExitInterrupted;
    }
    if (!res.status) {
        std::fprintf(stderr, "sweep: %s: %s\n", path,
                     res.status.message().c_str());
        return 1;
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    printSweepTable(a,
                    "56-configuration sweep from packed trace "
                    "(miss rate %, T_eff cycles)",
                    res.caches);
    std::fprintf(stderr, "%llu refs from %s in %.2fs\n",
                 static_cast<unsigned long long>(res.refs), path, secs);
    if (const char *out = a.text("--out");
        out && !writeSweepCsv(out, res.caches))
        return 1;
    if (const char *tsOut = a.text("--timeseries-out")) {
        obs::Timeseries ts(
            a.num("--ts-interval", obs::Timeseries::kDefaultIntervalCycles),
            obs::Timeseries::Domain::Refs);
        if (!packedTraceToRefSeries(path, ts, "sweep") ||
            !writeTimeseries(ts, tsOut, "sweep"))
            return 1;
    }
    return 0;
}

int
cmdSweep(const Args &a)
{
    const char *packed = a.text("--packed");
    if (!packed == a.ops.empty()) // exactly one of BASE, --packed
        return a.usage();
    if (packed)
        return cmdSweepPacked(a, packed);
    core::Session s;
    if (!loadSession(a, s))
        return 1;
    cache::CacheSweep sweep(cache::CacheSweep::paper56());
    SweepSink sink(sweep);
    core::ReplayConfig cfg;
    trace::TeeSink tee;
    tee.add(&sink);
    cfg.extraRefSink = &tee;

    // Sweep telemetry uses the reference-index domain: interval k
    // covers refs [k*W, (k+1)*W), and only the mix/energy columns
    // are meaningful (a cache sweep has no single timeline).
    const char *tsOut = a.text("--timeseries-out");
    std::unique_ptr<obs::Timeseries> ts;
    std::unique_ptr<RefsTsSink> tsSink;
    if (tsOut) {
        ts = std::make_unique<obs::Timeseries>(
            a.num("--ts-interval", obs::Timeseries::kDefaultIntervalCycles),
            obs::Timeseries::Domain::Refs);
        tsSink = std::make_unique<RefsTsSink>(*ts);
        tee.add(tsSink.get());
    }

    Heartbeat hb;
    if (!a.has("--quiet"))
        hb.install(cfg.options);
    cfg.options.cancel = &gSigint;

    core::ReplayResult r = core::PalmSimulator::replaySession(s, cfg);
    if (r.replayStats.interrupted) {
        std::fprintf(stderr, "sweep: interrupted\n");
        return kExitInterrupted;
    }
    sweep.finish();
    if (ts && !writeTimeseries(*ts, tsOut, "sweep"))
        return 1;

    printSweepTable(a,
                    "56-configuration sweep (miss rate %, T_eff cycles)",
                    sweep.caches());
    return 0;
}

// ---------------------------------------------------------------------
// `palmtrace trace`: the packed-trace toolbox.

// Format sniffing and record pulling live in trace/tracediff.h so
// tests and tools share one implementation.
using trace::dinLabelToKind;
using trace::kindToDinLabel;
using trace::sniffTraceFormat;
using trace::TraceFormat;

int
cmdTracePack(const Args &a)
{
    const bool synthetic = a.has("--synthetic");
    if (a.ops.size() != (synthetic ? 1u : 2u))
        return a.usage();
    const char *in = synthetic ? nullptr : a.ops[0];
    const char *out = a.ops.back();

    // Refuse bad input before opening OUT: the writer publishes
    // whatever it holds when it goes out of scope.
    workload::DesktopTraceConfig cfg;
    if (synthetic) {
        cfg.refs = a.num("--synthetic", 0);
        cfg.seed = a.num("--seed", 7);
    } else {
        switch (sniffTraceFormat(in)) {
          case TraceFormat::Unreadable:
            std::fprintf(stderr, "trace pack: cannot read '%s'\n", in);
            return 1;
          case TraceFormat::Packed:
            std::fprintf(stderr,
                         "trace pack: '%s' is already a packed PTPK "
                         "trace\n",
                         in);
            return 1;
          case TraceFormat::RetiredPttr:
            std::fprintf(stderr, "trace pack: %s: %s\n", in,
                         trace::retiredPttrError().message().c_str());
            return 1;
          case TraceFormat::Din:
            break;
        }
    }

    trace::PackedTraceWriter w(
        out, static_cast<u32>(
                 a.num("--block", trace::kPackedDefaultBlockCapacity)));
    if (!w.ok()) {
        std::fprintf(stderr,
                     "trace pack: cannot open '%s' for writing\n",
                     out);
        return 1;
    }

    if (synthetic) {
        // The Figure 7 synthetic desktop trace, packed directly from
        // the generator with O(block) memory.
        workload::DesktopTraceGen gen(cfg);
        gen.generate([&](Addr addr, u8 kind) { w.add(addr, kind, 0); });
    } else {
        trace::DineroStats st;
        s64 n = trace::readDineroFile(
            in,
            [&](Addr addr, u8 label) {
                w.add(addr, dinLabelToKind(label), 0);
            },
            &st);
        if (n < 0) {
            std::fprintf(stderr, "trace pack: cannot read '%s'\n", in);
            return 1;
        }
        if (st.malformed || st.overlong) {
            std::fprintf(
                stderr,
                "trace pack: %llu malformed line(s), %llu "
                "overlong line(s) in '%s'\n",
                static_cast<unsigned long long>(st.malformed),
                static_cast<unsigned long long>(st.overlong), in);
        }
    }

    std::string err;
    if (!w.close(&err)) {
        std::fprintf(stderr, "trace pack: %s\n", err.c_str());
        return 1;
    }
    double perRef = w.count()
                        ? static_cast<double>(w.bytesWritten()) /
                              static_cast<double>(w.count())
                        : 0.0;
    std::printf("packed %llu refs into %s (%llu bytes, %.2f B/ref)\n",
                static_cast<unsigned long long>(w.count()), out,
                static_cast<unsigned long long>(w.bytesWritten()),
                perRef);
    return 0;
}

int
cmdTraceUnpack(const Args &a)
{
    const char *in = a.ops[0];
    const char *out = a.ops[1];

    trace::PackedTraceReader reader;
    if (auto res = reader.open(in); !res) {
        std::fprintf(stderr, "trace unpack: %s: %s\n", in,
                     res.message().c_str());
        return 1;
    }
    trace::DineroWriter w(out);
    if (!w.ok()) {
        std::fprintf(stderr,
                     "trace unpack: cannot open '%s' for writing\n",
                     out);
        return 1;
    }
    std::vector<trace::TraceRecord> block;
    u64 n = 0;
    while (reader.nextBlock(block)) {
        for (const auto &r : block)
            w.emit(r.addr, kindToDinLabel(r.kind));
        n += block.size();
    }
    if (auto &res = reader.status(); !res) {
        std::fprintf(stderr, "trace unpack: %s: %s\n", in,
                     res.message().c_str());
        return 1;
    }
    std::printf("unpacked %llu refs into %s (din)\n",
                static_cast<unsigned long long>(n), out);
    return 0;
}

int
cmdTraceInfo(const Args &a)
{
    const char *path = a.ops[0];
    TextTable t("Trace statistics");
    t.setHeader({"Quantity", "Value"});
    auto row = [&](const char *what, const std::string &v) {
        t.addRow({what, v});
    };
    auto num = [](u64 v) { return std::to_string(v); };

    u64 kinds[3] = {0, 0, 0};
    u64 classes[2] = {0, 0};
    auto tally = [&](u8 kind, u8 cls) {
        ++kinds[kind > 2 ? 2 : kind];
        ++classes[cls ? 1 : 0];
    };

    switch (sniffTraceFormat(path)) {
      case TraceFormat::Unreadable:
        std::fprintf(stderr, "trace info: cannot read '%s'\n", path);
        return 1;
      case TraceFormat::Packed: {
        trace::PackedTraceReader reader;
        if (auto res = reader.open(path); !res) {
            std::fprintf(stderr, "trace info: %s: %s\n", path,
                         res.message().c_str());
            return 1;
        }
        std::vector<trace::TraceRecord> block;
        u64 n = 0;
        while (reader.nextBlock(block)) {
            for (const auto &r : block)
                tally(r.kind, r.cls);
            n += block.size();
        }
        if (auto &res = reader.status(); !res) {
            std::fprintf(stderr, "trace info: %s: %s\n", path,
                         res.message().c_str());
            return 1;
        }
        row("format", "PTPK packed");
        row("records", num(n));
        row("blocks", num(reader.blockCount()));
        row("block capacity", num(reader.blockCapacity()));
        row("file bytes", num(reader.fileBytes()));
        row("bytes/ref",
            n ? TextTable::num(static_cast<double>(reader.fileBytes()) /
                                   static_cast<double>(n),
                               2)
              : "-");
        row("integrity", "ok (all blocks verified)");
        break;
      }
      case TraceFormat::RetiredPttr:
        std::fprintf(stderr, "trace info: %s: %s\n", path,
                     trace::retiredPttrError().message().c_str());
        return 1;
      case TraceFormat::Din: {
        trace::DineroStats st;
        s64 n = trace::readDineroFile(
            path,
            [&](Addr, u8 label) { tally(dinLabelToKind(label), 0); },
            &st);
        if (n < 0) {
            std::fprintf(stderr, "trace info: cannot read '%s'\n",
                         path);
            return 1;
        }
        row("format", "Dinero din text");
        row("records", num(static_cast<u64>(n)));
        row("malformed lines", num(st.malformed));
        row("overlong lines", num(st.overlong));
        break;
      }
    }
    row("fetches", num(kinds[0]));
    row("reads", num(kinds[1]));
    row("writes", num(kinds[2]));
    row("RAM refs", num(classes[0]));
    row("flash refs", num(classes[1]));
    std::printf("%s", t.render().c_str());
    return 0;
}

/** `trace diff A B`: record-by-record comparison of two traces in
 *  any mix of formats; reports the first divergence. The fleet and
 *  serve CI jobs use it to prove traces identical. Exit codes are a
 *  contract: 0 identical, 1 traces differ, 2 unreadable/corrupt
 *  input (or usage error). */
int
cmdTraceDiff(const Args &a)
{
    trace::DiffResult d = trace::diffTraces(a.ops[0], a.ops[1]);
    switch (d.outcome) {
      case trace::DiffOutcome::Identical:
        std::printf("traces identical (%llu records)\n",
                    static_cast<unsigned long long>(d.records));
        return 0;
      case trace::DiffOutcome::Differ:
        std::printf("%s\n", d.detail.c_str());
        return 1;
      case trace::DiffOutcome::Error:
      default:
        std::fprintf(stderr, "trace diff: %s\n", d.detail.c_str());
        return 2;
    }
}

// ---------------------------------------------------------------------
// Supervised jobs: journalled, watchdog-guarded, resumable runs.

/** The shared supervision knobs, straight from the command line. */
super::JobOptions
jobOptionsFrom(const Args &a)
{
    super::JobOptions jo;
    jo.maxAttempts = static_cast<u32>(a.num("--max-retries", 3));
    jo.deadlineMs = a.num("--deadline", 0);
    if (const char *j = a.text("--journal"))
        jo.journalPath = j;
    jo.globalCancel = &gSigint;
    return jo;
}

/** Uniform reporting and exit code for a supervised job: 0 finished,
 *  1 failed or degraded, 130 interrupted (resume to continue). */
int
reportJob(const char *what, const super::JobResult &r)
{
    if (r.nothingToDo) {
        std::printf("%s: journal is already finalized%s; output %s\n",
                    what, r.degraded ? " (degraded)" : "",
                    r.outPath.c_str());
        return 0;
    }
    if (r.interrupted) {
        std::fprintf(stderr,
                     "%s: interrupted; 'palmtrace resume' on the "
                     "journal continues the run\n",
                     what);
        return kExitInterrupted;
    }
    if (!r.ok) {
        std::fprintf(stderr, "%s: %s\n", what, r.error.c_str());
        return 1;
    }
    std::printf("%s: %s (%llu done, %llu skipped, %llu quarantined, "
                "%llu retries, fnv %016llx)\n",
                what, r.outPath.c_str(),
                static_cast<unsigned long long>(r.super.itemsDone),
                static_cast<unsigned long long>(r.super.itemsSkipped),
                static_cast<unsigned long long>(
                    r.super.itemsQuarantined),
                static_cast<unsigned long long>(r.super.retries),
                static_cast<unsigned long long>(r.outFnv));
    if (r.degraded) {
        std::fprintf(stderr, "%s: DEGRADED: %s\n", what,
                     r.super.firstError.c_str());
        return 1;
    }
    return 0;
}

/**
 * Deterministic fleet session specs: @p count sessions cycling the
 * four Table 1 presets, each with a per-index seed derived from the
 * fleet seed — a pure function of (count, scale, seed), so any two
 * invocations (and any job counts) produce the same sessions.
 */
std::vector<workload::SessionSpec>
fleetSpecs(unsigned count, double scale, u64 seed)
{
    std::vector<workload::SessionSpec> presets =
        workload::table1Specs(scale);
    std::vector<workload::SessionSpec> specs;
    specs.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        workload::SessionSpec s = presets[i % presets.size()];
        s.name = "fleet-" + std::to_string(i) + "-" + s.name;
        s.config.seed += seed * 0x9E3779B97F4A7C15ull +
                         u64{i} * 0x2545F4914F6CDD1Dull;
        specs.push_back(std::move(s));
    }
    return specs;
}

/**
 * The fleet `fleet` and `submit` share: specs from --count/--scale/
 * --seed, run locally, or through the server at @p endpoint when it
 * is nonempty. The artifacts are byte-identical either way, so the
 * only visible difference is where the sessions ran.
 */
int
runFleetCommand(const char *what, const Args &a, const char *out,
                const std::string &endpoint)
{
    const std::vector<workload::SessionSpec> specs =
        fleetSpecs(static_cast<unsigned>(a.num("--count", 8)),
                   a.real("--scale", 1), a.num("--seed", 1));

    super::JobOptions jo = jobOptionsFrom(a);
    jo.blockCapacity = static_cast<u32>(
        a.num("--block", trace::kPackedDefaultBlockCapacity));
    if (!endpoint.empty()) {
        serve::ClientOptions co;
        co.endpoint = endpoint;
        return reportJob(what, serve::runRemoteFleet(specs, out, co, jo));
    }
    super::FleetOptions fo;
    fo.saveSessions = a.has("--save-sessions");
    return reportJob(what, super::runFleetJob(specs, out, jo, fo));
}

/** `fleet --out BASE`: fleet-scale batched collect+replay with one
 *  streamed packed trace per session plus a summary CSV. */
int
cmdFleet(const Args &a)
{
    const char *out = a.text("--out");
    if (!out)
        return a.usage();
    return runFleetCommand("fleet", a, out, "");
}

/** The server endpoint named by --socket PATH or --tcp PORT. */
std::string
endpointFrom(const Args &a)
{
    if (const char *s = a.text("--socket"))
        return s;
    if (const char *t = a.text("--tcp"))
        return std::string("tcp:") + t;
    return {};
}

/** `submit --socket PATH --out BASE`: a fleet through a resident
 *  server, byte-identical to running it locally. */
int
cmdSubmit(const Args &a)
{
    const std::string endpoint = endpointFrom(a);
    const char *out = a.text("--out");
    if (endpoint.empty() || !out)
        return a.usage();
    return runFleetCommand("submit", a, out, endpoint);
}

/** `serve --socket PATH`: the resident fleet server. Runs until
 *  SIGTERM/SIGINT or a client Shutdown frame, then drains. */
int
cmdServe(const Args &a)
{
    const char *socket = a.text("--socket");
    if (!socket)
        return a.usage();
    serve::ServeOptions so;
    so.socketPath = socket;
    if (a.has("--tcp"))
        so.tcpPort = static_cast<int>(a.num("--tcp", 0));
    so.maxSessions = static_cast<u32>(a.num("--max-sessions", 64));
    so.sessionTimeoutMs = a.num("--session-timeout", 0);
    so.jobs = static_cast<unsigned>(a.num("--jobs", 0));
    if (const char *s = a.text("--scratch"))
        so.scratchDir = s;

    serve::Server server(so);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "serve: %s\n", err.c_str());
        return 1;
    }
    std::signal(SIGTERM, onSigterm);
    if (server.tcpPort() >= 0) {
        std::printf("serve: listening on %s (tcp port %d)\n", socket,
                    server.tcpPort());
    } else {
        std::printf("serve: listening on %s\n", socket);
    }
    std::fflush(stdout);

    // The serving loop: all the work happens on the server's own
    // threads; this thread just waits for a reason to drain. The
    // signal handlers only set flags — the actual drain (condition
    // variables, joins) runs here, in normal code.
    while (!gSigterm && !gSigint.cancelled() && !server.draining()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("serve: draining\n");
    std::fflush(stdout);
    serve::ServeStats st = server.stop();
    std::printf(
        "serve: drained (%llu sessions, %llu failed, %llu rejected, "
        "%llu bytes streamed, %llu connections, %llu bad frames)\n",
        static_cast<unsigned long long>(st.sessionsDone),
        static_cast<unsigned long long>(st.sessionsFailed),
        static_cast<unsigned long long>(st.sessionsRejected),
        static_cast<unsigned long long>(st.bytesStreamed),
        static_cast<unsigned long long>(st.connections),
        static_cast<unsigned long long>(st.badFrames));
    return 0;
}

/** `resume JOURNAL`: pick a journalled job back up where it stopped. */
int
cmdResume(const Args &a)
{
    const char *journal = a.ops.front();
    super::JobOptions jo;
    jo.globalCancel = &gSigint;
    jo.jobs = static_cast<unsigned>(a.num("--jobs", 0));
    // Remote-fleet journals are resumed by the serve client (the
    // endpoint travels in the journal; --socket/--tcp override it).
    if (serve::isRemoteFleetJournal(journal)) {
        return reportJob("resume",
                         serve::resumeRemoteFleetJob(
                             journal, endpointFrom(a), jo));
    }
    // Any other journal resumes locally, so an endpoint would be
    // ignored; refuse it before the journal is touched.
    for (const char *flag : {"--socket", "--tcp"}) {
        if (a.has(flag)) {
            std::fprintf(stderr,
                         "resume: %s given, but %s is not a "
                         "remote-fleet journal\n",
                         flag, journal);
            return 2;
        }
    }
    return reportJob("resume", super::resumeJob(journal, jo));
}

int
cmdDisasm(const Args &a)
{
    const u64 count = a.num("--count", 40);
    const os::RomImage &rom = os::builtRom();
    device::Device dev;
    dev.bus().loadRom(os::builtRomPaged());
    std::printf("PilotOS ROM @ 0x%08X (boot 0x%08X, dispatcher "
                "0x%08X)\n\n",
                device::kRomBase, rom.syms.boot, rom.syms.dispatcher);
    Addr pc = rom.syms.dispatcher;
    for (u64 i = 0; i < count; ++i) {
        auto d = m68k::disassemble(dev.bus(), pc);
        std::printf("  %08X  %s\n", pc, d.text.c_str());
        pc += d.length;
    }
    return 0;
}

/** Appends one `- key: value` bullet to the report body. */
void
mdBullet(std::string &md, const std::string &key,
         const std::string &value)
{
    md += "- " + key + ": " + value + "\n";
}

/** `report --metrics FILE`: the counters and histogram percentiles
 *  section. */
bool
reportMetricsSection(std::string &md, const char *path)
{
    std::string text;
    if (!readFileText(path, text)) {
        std::fprintf(stderr, "report: cannot read '%s'\n", path);
        return false;
    }
    json::JsonValue doc;
    if (auto r = json::parse(text, doc); !r) {
        std::fprintf(stderr, "report: %s: %s\n", path,
                     r.message().c_str());
        return false;
    }
    if (doc.stringOr("schema", "") != "palmtrace-metrics-v1") {
        std::fprintf(stderr,
                     "report: %s: not a palmtrace-metrics-v1 file\n",
                     path);
        return false;
    }

    md += "\n## Metrics\n\n";
    mdBullet(md, "source", path);
    if (doc.has("label"))
        mdBullet(md, "scope label", doc.stringOr("label", ""));

    const json::JsonValue &counters = doc.get("counters");
    if (counters.isObject() && !counters.object().empty()) {
        md += "\n| counter | value |\n|---|---:|\n";
        for (const auto &[name, v] : counters.object()) {
            md += "| `" + name + "` | " +
                  std::to_string(static_cast<u64>(v.number())) +
                  " |\n";
        }
    }

    const json::JsonValue &gauges = doc.get("gauges");
    if (gauges.isObject() && !gauges.object().empty()) {
        md += "\n| gauge | value |\n|---|---:|\n";
        for (const auto &[name, v] : gauges.object()) {
            md += "| `" + name + "` | " +
                  TextTable::num(v.number(), 3) + " |\n";
        }
    }

    const json::JsonValue &hists = doc.get("histograms");
    if (hists.isObject() && !hists.object().empty()) {
        md += "\n| histogram | count | mean | p50 | p95 | p99 |\n"
              "|---|---:|---:|---:|---:|---:|\n";
        for (const auto &[name, h] : hists.object()) {
            md += "| `" + name + "` | " +
                  std::to_string(h.u64Or("count", 0)) + " | " +
                  TextTable::num(h.numberOr("mean", 0), 3) + " | " +
                  TextTable::num(h.numberOr("p50", 0), 3) + " | " +
                  TextTable::num(h.numberOr("p95", 0), 3) + " | " +
                  TextTable::num(h.numberOr("p99", 0), 3) + " |\n";
        }
    }
    return true;
}

/** `report --timeseries FILE`: run totals plus the interval IPC
 *  distribution, from the same aggregates `stats` prints. */
bool
reportTimeseriesSection(std::string &md, const char *path)
{
    TsSummary s = summarizeTimeseries(path);
    if (!s.ok) {
        std::fprintf(stderr, "report: %s: %s\n", path,
                     s.error.c_str());
        return false;
    }
    md += "\n## Timeseries\n\n";
    mdBullet(md, "source", path);
    mdBullet(md, "domain", s.domain);
    mdBullet(md, "interval width", std::to_string(s.interval));
    mdBullet(md, "intervals", std::to_string(s.intervals));
    if (s.instructions)
        mdBullet(md, "instructions", std::to_string(s.instructions));
    if (s.cycles)
        mdBullet(md, "cycles", std::to_string(s.cycles));
    mdBullet(md, "RAM / flash refs",
             std::to_string(s.ram) + " / " + std::to_string(s.flash));
    if (s.ram + s.flash) {
        mdBullet(md, "flash fraction",
                 TextTable::percent(
                     static_cast<double>(s.flash) /
                         static_cast<double>(s.ram + s.flash),
                     2));
    }
    if (s.l1h + s.l1m) {
        mdBullet(md, "L1 miss rate",
                 TextTable::percent(
                     static_cast<double>(s.l1m) /
                         static_cast<double>(s.l1h + s.l1m),
                     3));
    }
    if (s.l2h + s.l2m) {
        mdBullet(md, "L2 miss rate",
                 TextTable::percent(
                     static_cast<double>(s.l2m) /
                         static_cast<double>(s.l2h + s.l2m),
                     3));
    }
    if (s.events)
        mdBullet(md, "events delivered", std::to_string(s.events));
    mdBullet(md, "energy (mJ)", TextTable::num(s.energy, 3));
    if (!s.ipc.empty()) {
        md += "\n| IPC p50 | p95 | p99 |\n|---:|---:|---:|\n| " +
              TextTable::num(samplePercentile(s.ipc, 0.50), 4) +
              " | " +
              TextTable::num(samplePercentile(s.ipc, 0.95), 4) +
              " | " +
              TextTable::num(samplePercentile(s.ipc, 0.99), 4) +
              " |\n";
    }
    return true;
}

/** `report --journal FILE`: the supervised run's shape — spec, item
 *  states, footer verdict. */
bool
reportJournalSection(std::string &md, const char *path)
{
    super::JournalData jd;
    if (auto r = super::loadJournal(path, jd); !r) {
        std::fprintf(stderr, "report: %s: %s\n", path,
                     r.message().c_str());
        return false;
    }
    md += "\n## Job journal\n\n";
    mdBullet(md, "source", path);
    mdBullet(md, "job kind", super::jobKindName(jd.spec.kind));
    mdBullet(md, "items", std::to_string(jd.spec.totalItems));
    if (!jd.spec.outPath.empty())
        mdBullet(md, "output", jd.spec.outPath);
    mdBullet(md, "max attempts per item",
             std::to_string(jd.spec.maxAttempts));

    std::map<std::string, u64> byState;
    u32 maxAttempt = 0;
    for (const super::ItemRecord &rec : jd.latestPerItem()) {
        ++byState[super::itemStateName(rec.state)];
        maxAttempt = std::max(maxAttempt, rec.attempt);
    }
    std::string states;
    for (const auto &[name, n] : byState) {
        if (!states.empty())
            states += ", ";
        states += std::to_string(n) + " " + name;
    }
    mdBullet(md, "item states", states);
    if (maxAttempt > 0)
        mdBullet(md, "deepest retry", "attempt " +
                                          std::to_string(maxAttempt));
    if (jd.hasFooter) {
        mdBullet(md, "verdict",
                 super::jobStatusName(jd.footer.status));
        if (!jd.footer.note.empty())
            mdBullet(md, "note", jd.footer.note);
    } else {
        mdBullet(md, "verdict",
                 "no footer — the run crashed or is still going");
    }
    if (jd.truncatedBytes) {
        mdBullet(md, "torn tail",
                 std::to_string(jd.truncatedBytes) +
                     " bytes dropped (crash mid-append)");
    }
    return true;
}

/** `report --postmortem FILE`: the flight-recorder bundle — trigger
 *  plus each thread's last recorded moments. */
bool
reportPostmortemSection(std::string &md, const char *path)
{
    obs::FlightDump dump;
    if (auto r = obs::loadFlightDump(path, dump); !r) {
        std::fprintf(stderr, "report: %s: %s\n", path,
                     r.message().c_str());
        return false;
    }
    md += "\n## Postmortem\n\n";
    mdBullet(md, "source", path);
    mdBullet(md, "trigger", "**" + dump.reason + "**");
    mdBullet(md, "threads captured",
             std::to_string(dump.threads.size()));
    constexpr std::size_t kTail = 8;
    for (const obs::FlightThread &th : dump.threads) {
        md += "\nThread `" + std::to_string(th.tid) + "` — last " +
              std::to_string(std::min(kTail, th.entries.size())) +
              " of " + std::to_string(th.entries.size()) +
              " entries:\n\n";
        const std::size_t from =
            th.entries.size() > kTail ? th.entries.size() - kTail : 0;
        for (std::size_t i = from; i < th.entries.size(); ++i) {
            const obs::FlightEntry &e = th.entries[i];
            md += "- " + e.kind;
            if (!e.name.empty())
                md += " `" + e.name + "`";
            if (e.kind == "pc") {
                char hex[24];
                std::snprintf(hex, sizeof(hex), " 0x%08llX",
                              static_cast<unsigned long long>(
                                  e.value));
                md += hex;
            } else {
                md += " value=" + std::to_string(e.value);
            }
            if (e.cycle)
                md += " cycle=" + std::to_string(e.cycle);
            md += "\n";
        }
    }
    return true;
}

/**
 * `report`: joins a run's observability artifacts — metrics JSON,
 * timeseries JSONL, job journal, flight-recorder bundle — into one
 * markdown run report on stdout (or --out FILE). Every input is
 * optional but at least one must be given; a malformed input fails
 * the report rather than silently dropping a section.
 */
int
cmdReport(const Args &a)
{
    const char *metrics = a.text("--metrics");
    const char *timeseries = a.text("--timeseries");
    const char *journal = a.text("--journal");
    const char *postmortem = a.text("--postmortem");
    if (!metrics && !timeseries && !journal && !postmortem) {
        std::fprintf(stderr,
                     "report: nothing to report — give at least one "
                     "of --metrics, --timeseries, --journal, "
                     "--postmortem\n");
        return 2;
    }

    std::string md = "# palmtrace run report\n";
    if (journal && !reportJournalSection(md, journal))
        return 1;
    if (metrics && !reportMetricsSection(md, metrics))
        return 1;
    if (timeseries && !reportTimeseriesSection(md, timeseries))
        return 1;
    if (postmortem && !reportPostmortemSection(md, postmortem))
        return 1;

    if (const char *out = a.text("--out")) {
        std::FILE *f = std::fopen(out, "wb");
        if (!f) {
            std::fprintf(stderr, "report: cannot write '%s'\n", out);
            return 1;
        }
        std::fwrite(md.data(), 1, md.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "report written to %s\n", out);
    } else {
        std::fputs(md.c_str(), stdout);
    }
    return 0;
}

/** The command table: one row per subcommand and per trace op. */
const Command kCommands[] = {
    {"collect", cmdCollect, "--out BASE",
     "synthesize a volunteer session and save its artifacts",
     {kOutBase, kSeed, kInteractions, kIdle, kBeams}},
    {"info", cmdInfo, "BASE",
     "summarize a saved session (log mix, timestamps, databases)",
     {}, 1, 1},
    {"replay", cmdReplay, "BASE",
     "replay a session; print reference and timing measurements",
     {kImport, kJitter, kRecover, kProfile, kPackOut, kTimeseriesOut,
      kTsInterval},
     1, 1},
    {"validate", cmdValidate, "BASE",
     "the paper's two-fold validation (exit 0 when both pass)",
     {kImport}, 1, 1},
    {"fsck", cmdFsck, "FILE|BASE",
     "artifact integrity check (exit 0 clean, 1 corrupt)", {}, 1, 1},
    {"stats", cmdStats, "FILE|BASE",
     "summarize any artifact: log, snapshot, checkpoint, telemetry",
     {}, 1, 1},
    {"sweep", cmdSweep, "BASE | --packed FILE",
     "the 56-configuration cache case study, live or from a PTPK trace",
     {kPacked, kCsv, kOutCsv, kTimeseriesOut, kTsInterval},
     0, 1},
    {"trace pack", cmdTracePack, "IN OUT | --synthetic N OUT",
     "pack a Dinero din trace (or the Fig 7 trace) into PTPK",
     {kSynthetic, kSyntheticSeed, kBlock}, 1, 2},
    {"trace unpack", cmdTraceUnpack, "IN OUT",
     "expand a PTPK trace to din", {}, 2, 2},
    {"trace info", cmdTraceInfo, "FILE",
     "trace statistics and integrity (din or PTPK)", {}, 1, 1},
    {"trace diff", cmdTraceDiff, "A B",
     "compare two traces; exit 0 identical, 1 differ, 2 unreadable",
     {}, 2, 2},
    {"resume", cmdResume, "JOURNAL",
     "finish a journalled job after a crash, kill or Ctrl-C",
     {kSocket, kTcp}, 1, 1},
    {"fleet", cmdFleet, "--out BASE",
     "collect and replay N sessions; one PTPK trace each plus a CSV",
     {kOutBase, kFleetCount, kScale, kSeed, kBlock, kSaveSessions, kJournal,
      kDeadline, kMaxRetries}},
    {"serve", cmdServe, "--socket PATH",
     "resident fleet server; SIGTERM drains it",
     {kSocket, kTcp, kMaxSessions, kSessionTimeout, kScratch}},
    {"submit", cmdSubmit, "(--socket PATH | --tcp PORT) --out BASE",
     "run a fleet through a server; same bytes as a local fleet",
     {kSocket, kTcp, kOutBase, kFleetCount, kScale, kSeed, kBlock, kJournal,
      kDeadline, kMaxRetries}},
    {"disasm", cmdDisasm, "", "disassemble the front of the PilotOS ROM",
     {kDisasmCount}},
    {"report", cmdReport, "",
     "join a run's observability artifacts into a markdown report",
     {kMetricsIn, kTimeseriesIn, kJournalIn, kPostmortemIn, kOutReport}},
};

/** `palmtrace help`: every row, then every flag with its range. */
void
printHelp(std::FILE *to)
{
    std::fprintf(to, "usage: palmtrace <subcommand> [operands] "
                     "[flags]\n\nsubcommands:\n");
    std::vector<const Flag *> all;
    auto collect = [&](const Flag &f) {
        for (const Flag *g : all)
            if (!std::strcmp(g->name, f.name) &&
                !std::strcmp(g->help, f.help))
                return;
        all.push_back(&f);
    };
    for (const Command &c : kCommands) {
        printWrapped(to, " ", synopsisWords(c), 6);
        std::fprintf(to, "      %s\n", c.summary);
        for (const Flag &f : c.flags)
            collect(f);
    }
    std::fprintf(to, "  help\n      print this message\n\n"
                     "every subcommand also takes:\n");
    std::vector<std::string> globals;
    for (const Flag &f : kGlobalFlags) {
        collect(f);
        globals.push_back(bracketed(f));
    }
    printWrapped(to, " ", globals, 2);
    std::fprintf(to, "\nflags:\n");
    std::sort(all.begin(), all.end(), [](const Flag *x, const Flag *y) {
        return std::strcmp(x->name, y->name) < 0;
    });
    for (const Flag *f : all) {
        std::string lead =
            std::string(f->name) + (*f->meta ? " " : "") + f->meta;
        std::string help = f->help;
        if (f->type == Int)
            help += ", " + std::to_string(f->lo) + ".." +
                    std::to_string(f->hi);
        std::fprintf(to, "  %-22s %s\n", lead.c_str(), help.c_str());
    }
}

/**
 * Finds the row named by argv[1] (and argv[2] for a trace op). Sets
 * @p used to the argv entries the name took. @return nullptr after
 * reporting an unknown subcommand or operation on stderr.
 */
const Command *
findCommand(int argc, char **argv, int &used)
{
    const std::string word = argv[1];
    const std::string group = word + " ";
    std::string ops;
    for (const Command &c : kCommands) {
        const std::string name = c.name;
        if (name == word) {
            used = 2;
            return &c;
        }
        if (name.compare(0, group.size(), group))
            continue;
        if (argc > 2 && name.substr(group.size()) == argv[2]) {
            used = 3;
            return &c;
        }
        ops += (ops.empty() ? "" : ", ") + name.substr(group.size());
    }
    if (!ops.empty()) {
        if (argc > 2)
            std::fprintf(stderr, "%s: unknown operation '%s' (want %s)\n",
                         word.c_str(), argv[2], ops.c_str());
        else
            std::fprintf(stderr, "%s: missing operation (%s)\n",
                         word.c_str(), ops.c_str());
        return nullptr;
    }
    std::fprintf(stderr, "palmtrace: unknown subcommand '%s'\n",
                 word.c_str());
    std::vector<std::string> names;
    for (const Command &c : kCommands)
        names.push_back(std::string(c.name).substr(
            0, std::string(c.name).find(' ')));
    suggest(word, names);
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printHelp(stderr);
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        printHelp(stdout);
        return 0;
    }
    int used = 0;
    const Command *command = findCommand(argc, argv, used);
    if (!command)
        return 2;
    Args rest;
    if (int rc = parseArgs(*command, argc - used, argv + used, rest))
        return rc;

    // fsck/stats dispatch on artifact magic; the job-journal parser
    // lives above the validate layer and hooks in at startup.
    super::registerFsckParser();

    // Ctrl-C becomes a cooperative stop: journals get their footer,
    // metrics still flush, and the process exits 130.
    std::signal(SIGINT, onSigint);

    // --postmortem FILE arms the flight recorder for the whole run
    // (not for `report`, whose --postmortem names a bundle to read);
    // the fatal-signal handlers flush its rings into FILE before the
    // default action takes over. Installed unconditionally — they are
    // pure no-ops (beyond re-raising) when the recorder stays unarmed.
    if (const char *postmortem = rest.global("--postmortem"))
        obs::FlightRecorder::global().arm(postmortem);
    std::signal(SIGSEGV, onFatalSignal);
    std::signal(SIGABRT, onFatalSignal);
    std::signal(SIGBUS, onFatalSignal);
    std::signal(SIGILL, onFatalSignal);

    // Verbosity: CLI default is quiet (tables are the output), the
    // environment can override, explicit flags win.
    setLogQuiet(true);
    applyLogEnv();
    if (rest.global("--quiet"))
        setLogLevel(LogLevel::Quiet);
    else if (rest.global("--verbose"))
        setLogLevel(LogLevel::Debug);

    // Worker threads for the parallel stages (sweep flushes, fleet
    // items). PT_JOBS is the environment's default; --jobs wins.
    if (rest.global("--jobs"))
        setDefaultJobs(static_cast<unsigned>(rest.num("--jobs", 0)));

    // Observability surfaces: install the registry sink when metrics
    // are wanted, arm the timeline tracer when a trace is wanted.
    const char *metricsOut = rest.global("--metrics-out");
    const char *traceOut = rest.global("--trace-out");
    obs::RegistrySink sink;
    if (metricsOut || rest.has("--profile"))
        obs::setProfileSink(&sink);
    if (traceOut)
        obs::Tracer::global().setEnabled(true);

    int rc = command->run(rest);

    if (metricsOut) {
        std::string err;
        if (!obs::Registry::global().writeJson(metricsOut, &err)) {
            std::fprintf(stderr, "palmtrace: %s\n", err.c_str());
            rc = rc ? rc : 1;
        } else {
            std::fprintf(stderr, "metrics written to %s (%zu metrics)\n",
                         metricsOut, obs::Registry::global().size());
        }
    }
    if (traceOut) {
        std::string err;
        if (!obs::Tracer::global().writeJson(traceOut, &err)) {
            std::fprintf(stderr, "palmtrace: %s\n", err.c_str());
            rc = rc ? rc : 1;
        } else {
            std::fprintf(
                stderr, "timeline written to %s (%zu events); open "
                        "in https://ui.perfetto.dev\n",
                traceOut, obs::Tracer::global().eventCount());
        }
    }
    obs::setProfileSink(nullptr);
    return rc;
}
