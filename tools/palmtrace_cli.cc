/**
 * @file
 * The palmtrace command-line driver.
 *
 * Subcommands cover the paper's whole workflow on session artifacts
 * saved as <base>.init.snap / <base>.log / <base>.final.snap:
 *
 *   palmtrace collect --out BASE [--seed N] [--interactions N]
 *                     [--idle TICKS] [--beams]
 *       synthesize a volunteer session and save its artifacts
 *
 *   palmtrace info BASE
 *       summarize a saved session (log mix, timestamps, states)
 *
 *   palmtrace replay BASE [--import] [--jitter N] [--recover]
 *                    [--profile]
 *       replay with profiling; print reference and timing measurements
 *       (--recover turns on online divergence detection with
 *       checkpoint-rewind recovery; --profile additionally runs a
 *       two-level cache hierarchy over the reference stream and
 *       publishes per-level counters)
 *
 *   palmtrace validate BASE [--import]
 *       run the paper's two-fold validation and print both reports
 *
 *   palmtrace fsck <FILE | BASE>
 *       verify artifact integrity (frame header, checksum, and full
 *       structural parse); exit 0 when clean, 1 when corrupt
 *
 *   palmtrace stats <FILE | BASE>
 *       summarize any artifact (activity log, snapshot, checkpoint):
 *       record mix, sizes, fingerprints, tick ranges
 *
 *   palmtrace sweep BASE [--csv]
 *       the §4 case study: 56-configuration miss rates and Eq 2 times
 *
 *   palmtrace sweep --packed FILE [--csv]
 *       the same case study fed from a packed PTPK trace file,
 *       streamed block by block with O(block) memory
 *
 *   palmtrace trace pack IN OUT [--block N]
 *   palmtrace trace pack --synthetic N OUT [--seed S] [--block N]
 *   palmtrace trace unpack IN OUT
 *   palmtrace trace info FILE
 *   palmtrace trace diff A B
 *       packed-trace toolbox: convert Dinero .din traces to/from the
 *       block-compressed PTPK format (--synthetic packs the Figure 7
 *       synthetic desktop trace instead of reading a file),
 *       summarize/verify a trace file, and compare two traces
 *       record by record
 *
 *   palmtrace replay BASE --pack-out FILE
 *       additionally tee the replayed reference stream into a packed
 *       PTPK trace file (composable with --profile)
 *
 *   palmtrace disasm [--count N]
 *       disassemble the front of the PilotOS ROM (sanity/debugging)
 *
 *   palmtrace report [--metrics M.json] [--timeseries T.jsonl]
 *                    [--journal J] [--postmortem P.json] [--out FILE]
 *       join a run's observability artifacts into one markdown
 *       report (any subset of inputs; stdout when --out is omitted)
 *
 * Observability options, accepted by every subcommand:
 *
 *   --jobs N             worker threads for the parallel stages, an
 *                        integer in [1, 1024] (PT_JOBS env var sets
 *                        the default; 1 forces fully sequential
 *                        execution)
 *   --metrics-out FILE   write the metrics registry as JSON on exit
 *   --trace-out FILE     record a Chrome trace-event timeline (open in
 *                        Perfetto / chrome://tracing) and write it
 *   --timeseries-out FILE
 *                        simulated-time telemetry: per-interval
 *                        cycles/instructions/refs/cache/energy rows
 *                        as JSONL (or CSV when FILE ends in .csv);
 *                        accepted by replay and sweep
 *   --ts-interval N      timeseries interval width (cycles; refs for
 *                        the sweep's reference-index domain)
 *   --postmortem FILE    arm the flight recorder: on the first
 *                        failure trigger (divergence, watchdog stall,
 *                        quarantine, crash hook, fatal signal) the
 *                        last moments of every thread dump to FILE
 *   --quiet / --verbose  lower / raise log verbosity (see also the
 *                        PT_LOG_LEVEL environment variable)
 *
 * Exit codes: 0 success, 1 operational failure (corrupt artifact,
 * failed validation), 2 usage error (unknown subcommand, missing
 * operand, unknown or repeated flag, flag without its value).
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

/** Flags that consume the following token as their value. */
const char *const kValueFlags[] = {
    "--out",    "--seed",        "--interactions",
    "--idle",   "--jitter",      "--count",
    "--jobs",   "--scale",
    "--metrics-out", "--trace-out",
    "--packed", "--pack-out",    "--synthetic",
    "--block",
    "--deadline", "--max-retries",
    "--journal",
    "--timeseries-out", "--ts-interval", "--postmortem",
    "--metrics", "--timeseries",
    "--socket", "--tcp", "--max-sessions",
    "--session-timeout", "--scratch", "--remote",
};

/** Flags that stand alone. */
const char *const kBoolFlags[] = {
    "--beams", "--csv", "--import", "--profile", "--recover",
    "--save-sessions", "--quiet", "--verbose",
};

/** Tiny argv scanner. */
struct Args
{
    int argc;
    char **argv;

    static bool
    takesValue(const char *flag)
    {
        for (const char *f : kValueFlags)
            if (!std::strcmp(flag, f))
                return true;
        return false;
    }

    static bool
    known(const char *flag)
    {
        for (const char *f : kBoolFlags)
            if (!std::strcmp(flag, f))
                return true;
        return takesValue(flag);
    }

    const char *
    value(const char *flag, const char *fallback = nullptr) const
    {
        for (int i = 0; i + 1 < argc; ++i)
            if (!std::strcmp(argv[i], flag))
                return argv[i + 1];
        return fallback;
    }

    bool
    has(const char *flag) const
    {
        for (int i = 0; i < argc; ++i)
            if (!std::strcmp(argv[i], flag))
                return true;
        return false;
    }

    /** First non-flag operand after the subcommand. */
    const char *
    operand() const
    {
        auto ops = operands();
        return ops.empty() ? nullptr : ops.front();
    }

    /** All non-flag operands, in order. */
    std::vector<const char *>
    operands() const
    {
        std::vector<const char *> out;
        for (int i = 0; i < argc; ++i) {
            if (argv[i][0] == '-') {
                if (takesValue(argv[i]))
                    ++i; // skip the flag's value
                continue;
            }
            out.push_back(argv[i]);
        }
        return out;
    }
};

const char *const kSubcommands[] = {
    "collect", "info", "replay", "validate", "fsck",  "stats",
    "sweep",   "trace", "resume", "disasm", "report",
    "fleet",   "serve", "submit",
};

void
printUsage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: palmtrace <subcommand> [options]\n"
        "\n"
        "subcommands:\n"
        "  collect --out BASE [--seed N] [--interactions N]\n"
        "          [--idle TICKS] [--beams]\n"
        "                     synthesize a session, save its artifacts\n"
        "  info BASE          summarize a saved session\n"
        "  replay BASE [--import] [--jitter N] [--recover] [--profile]\n"
        "                     replay with profiling measurements\n"
        "  validate BASE [--import]\n"
        "                     the paper's two-fold validation\n"
        "  fsck FILE|BASE     artifact integrity check (exit 0/1)\n"
        "  stats FILE|BASE    summarize any log/snapshot/checkpoint\n"
        "  sweep BASE [--csv] the 56-configuration cache case study\n"
        "  sweep --packed FILE [--csv]\n"
        "                     the case study fed from a packed trace,\n"
        "                     streamed from disk\n"
        "  trace pack IN OUT [--block N]\n"
        "                     convert a Dinero .din trace to the\n"
        "                     packed PTPK format\n"
        "  trace pack --synthetic N OUT [--seed S]\n"
        "                     pack the Fig 7 synthetic desktop trace\n"
        "  trace unpack IN OUT\n"
        "                     expand a packed trace to din\n"
        "  trace info FILE    trace statistics (din or PTPK)\n"
        "  trace diff A B     compare two traces record by record\n"
        "                     (din and/or PTPK); report the\n"
        "                     first divergence; exit 0 identical,\n"
        "                     1 traces differ, 2 unreadable/corrupt\n"
        "  resume JOURNAL [--jobs N]\n"
        "                     resume a journalled job after a crash,\n"
        "                     kill, or Ctrl-C: skips finished items,\n"
        "                     re-runs the rest, finalizes the same\n"
        "                     output an uninterrupted run writes\n"
        "  fleet --out BASE [--count N] [--scale X] [--seed S]\n"
        "        [--block N] [--save-sessions]\n"
        "                     instantiate a fleet of N devices (shared\n"
        "                     ROM, copy-on-write RAM), collect+replay a\n"
        "                     session on each, stream one packed trace\n"
        "                     per session to BASE-session-<i>.ptpk and\n"
        "                     a summary CSV to BASE.csv; traces are\n"
        "                     byte-identical at any --jobs count\n"
        "  serve --socket PATH [--tcp PORT] [--jobs N]\n"
        "        [--max-sessions M] [--session-timeout MS]\n"
        "        [--scratch DIR]\n"
        "                     resident fleet server: accepts session\n"
        "                     jobs over the PTSF socket protocol,\n"
        "                     streams back packed traces and metrics;\n"
        "                     SIGTERM (or a client shutdown frame)\n"
        "                     drains in-flight sessions, then exits\n"
        "  submit --socket PATH --out BASE [--count N] [--scale X]\n"
        "         [--seed S] [--block N] [--journal FILE]\n"
        "                     run a fleet through a resident server;\n"
        "                     artifacts are byte-identical to a local\n"
        "                     'palmtrace fleet' of the same specs\n"
        "                     (--tcp PORT instead of --socket talks\n"
        "                     to a TCP-loopback server)\n"
        "  fleet --remote PATH ...\n"
        "                     same as submit --socket PATH\n"
        "  disasm [--count N] disassemble the PilotOS ROM\n"
        "  report [--metrics M.json] [--timeseries T.jsonl]\n"
        "         [--journal J] [--postmortem P.json] [--out FILE]\n"
        "                     join a run's observability artifacts\n"
        "                     into one markdown run report\n"
        "  help               print this message\n"
        "\n"
        "supervised-job options (sweep --packed, fleet, submit):\n"
        "  --journal FILE       write-ahead job journal; enables\n"
        "                       'palmtrace resume FILE'\n"
        "  --deadline MS        per-item stall deadline enforced by\n"
        "                       the watchdog (0 = off)\n"
        "  --max-retries N      attempts per item before quarantine\n"
        "\n"
        "observability options (any subcommand):\n"
        "  --jobs N             worker threads for parallel stages,\n"
        "                       1..1024 (also: PT_JOBS; 1 forces\n"
        "                       sequential)\n"
        "  --metrics-out FILE   write the metrics registry as JSON\n"
        "  --trace-out FILE     write a Chrome/Perfetto trace timeline\n"
        "  --timeseries-out FILE\n"
        "                       simulated-time telemetry (JSONL, or\n"
        "                       CSV when FILE ends in .csv); replay\n"
        "                       and sweep\n"
        "  --ts-interval N      timeseries interval width in cycles\n"
        "                       (refs for the sweep domain)\n"
        "  --postmortem FILE    arm the flight recorder; failure\n"
        "                       triggers dump the bundle to FILE\n"
        "  --quiet | --verbose  log verbosity (also: PT_LOG_LEVEL=\n"
        "                       quiet|warn|info|debug)\n");
}

int
usage()
{
    printUsage(stderr);
    return 2;
}

/** Levenshtein distance, for the unknown-subcommand hint. */
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

/** @return the candidate within edit distance 2 of @p word that is
 *  closest to it, or nullptr. */
template <std::size_t N>
const char *
closest(const std::string &word, const char *const (&candidates)[N],
        const char *best = nullptr)
{
    std::size_t bestDist =
        best ? editDistance(word, best) : 3; // distance 2 or less
    for (const char *c : candidates) {
        std::size_t d = editDistance(word, c);
        if (d < bestDist) {
            bestDist = d;
            best = c;
        }
    }
    return best;
}

int
unknownSubcommand(const std::string &cmd)
{
    std::fprintf(stderr, "palmtrace: unknown subcommand '%s'\n",
                 cmd.c_str());
    if (const char *best = closest(cmd, kSubcommands))
        std::fprintf(stderr, "did you mean '%s'?\n", best);
    std::fprintf(stderr, "run 'palmtrace help' for the full list\n");
    return 2;
}

/**
 * Refuses an argv that Args would read ambiguously: an unknown flag,
 * a repeated flag (Args::value would silently take the first), or a
 * value flag with no value after it. @return 0, or 2 after naming the
 * offending flag on stderr.
 */
int
checkFlags(const Args &a)
{
    std::vector<std::string> seen;
    for (int i = 0; i < a.argc; ++i) {
        const std::string flag = a.argv[i];
        if (flag[0] != '-')
            continue; // operand
        if (!Args::known(flag.c_str())) {
            std::fprintf(stderr, "palmtrace: unknown flag '%s'\n",
                         flag.c_str());
            if (const char *best = closest(
                    flag, kValueFlags, closest(flag, kBoolFlags)))
                std::fprintf(stderr, "did you mean '%s'?\n", best);
            std::fprintf(stderr,
                         "run 'palmtrace help' for the full list\n");
            return 2;
        }
        if (std::find(seen.begin(), seen.end(), flag) != seen.end()) {
            std::fprintf(stderr, "palmtrace: flag '%s' given more "
                                 "than once\n", flag.c_str());
            return 2;
        }
        seen.push_back(flag);
        if (Args::takesValue(flag.c_str())) {
            // A value may be negative ("--jobs -1" is refused by its
            // own range check) but is never another flag.
            if (i + 1 == a.argc ||
                !std::strncmp(a.argv[i + 1], "--", 2)) {
                std::fprintf(stderr, "palmtrace: flag '%s' needs a "
                                     "value\n", flag.c_str());
                return 2;
            }
            ++i;
        }
    }
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

/** Parses --ts-interval. @return 0 on a bad value (caller reports). */
u64
tsIntervalArg(const Args &a)
{
    const char *arg = a.value("--ts-interval");
    if (!arg)
        return obs::Timeseries::kDefaultIntervalCycles;
    return std::strtoull(arg, nullptr, 0);
}

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

u32 blockCapacityArg(const Args &a); // defined with the trace toolbox

// Supervised-job plumbing, defined with the resume command.
super::JobOptions jobOptionsFrom(const Args &a);
int reportJob(const char *what, const super::JobResult &r);

int
cmdCollect(const Args &a)
{
    const char *out = a.value("--out");
    if (!out) {
        std::fprintf(stderr, "collect: --out BASE is required\n");
        return 2;
    }
    workload::UserModelConfig cfg;
    cfg.seed = std::strtoull(a.value("--seed", "1"), nullptr, 0);
    cfg.interactions = static_cast<u32>(
        std::strtoul(a.value("--interactions", "12"), nullptr, 0));
    cfg.meanIdleTicks = static_cast<Ticks>(
        std::strtoul(a.value("--idle", "30000"), nullptr, 0));
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
    const char *base = a.operand();
    if (!base) {
        std::fprintf(stderr, "missing session BASE operand\n");
        return false;
    }
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
    cfg.options.burstJitterTicks = static_cast<Ticks>(
        std::strtoul(a.value("--jitter", "0"), nullptr, 0));
    cfg.options.recover = a.has("--recover");

    // Profiling mode: run the reference stream through a representative
    // two-level hierarchy so per-level counters land in the registry.
    bool profile = a.has("--profile");
    cache::TwoLevelCache hier = profileHierarchy();
    HierarchySink hierSink(hier);

    // --pack-out tees the replayed reference stream into a packed
    // PTPK trace file; composable with --profile through a TeeSink.
    const char *packOut = a.value("--pack-out");
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
    const char *tsOut = a.value("--timeseries-out");
    std::unique_ptr<obs::Timeseries> ts;
    cache::TwoLevelCache tsHier = profileHierarchy();
    if (tsOut) {
        u64 w = tsIntervalArg(a);
        if (!w) {
            std::fprintf(stderr,
                         "replay: --ts-interval must be positive\n");
            return 2;
        }
        ts = std::make_unique<obs::Timeseries>(w);
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
    const char *target = a.operand();
    if (!target) {
        std::fprintf(stderr,
                     "fsck: missing FILE or session BASE operand\n");
        return 2;
    }
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
    const char *target = a.operand();
    if (!target) {
        std::fprintf(stderr,
                     "stats: missing FILE or session BASE operand\n");
        return 2;
    }
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

/** `sweep --packed`: the 56-configuration case study fed from a
 *  packed PTPK trace instead of a live replay, streamed block by
 *  block from disk with O(block) memory. */
int
cmdSweepPacked(const Args &a, const char *path)
{
    // Journalled mode: each configuration is a supervised work item,
    // results land in a CSV finalized atomically at the end, and the
    // journal makes the sweep resumable after a crash.
    if (a.value("--journal") || a.value("--deadline") ||
        a.value("--max-retries")) {
        if (a.value("--timeseries-out")) {
            std::fprintf(
                stderr,
                "sweep: --timeseries-out is not supported with "
                "supervised (journalled) runs — a resumed run skips "
                "finished configurations; use the plain sweep\n");
            return 2;
        }
        const char *out = a.value("--out");
        if (!out) {
            std::fprintf(stderr,
                         "sweep: supervised mode needs --out CSV "
                         "(the finalized results file)\n");
            return 2;
        }
        super::JobOptions jo = jobOptionsFrom(a);
        return reportJob(
            "sweep", super::runSweepJob(
                         path, cache::CacheSweep::paper56(), out, jo));
    }

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
    if (const char *tsOut = a.value("--timeseries-out")) {
        u64 w = tsIntervalArg(a);
        if (!w) {
            std::fprintf(stderr,
                         "sweep: --ts-interval must be positive\n");
            return 2;
        }
        obs::Timeseries ts(w, obs::Timeseries::Domain::Refs);
        if (!packedTraceToRefSeries(path, ts, "sweep") ||
            !writeTimeseries(ts, tsOut, "sweep"))
            return 1;
    }
    return 0;
}

int
cmdSweep(const Args &a)
{
    if (const char *packed = a.value("--packed"))
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
    const char *tsOut = a.value("--timeseries-out");
    std::unique_ptr<obs::Timeseries> ts;
    std::unique_ptr<RefsTsSink> tsSink;
    if (tsOut) {
        u64 w = tsIntervalArg(a);
        if (!w) {
            std::fprintf(stderr,
                         "sweep: --ts-interval must be positive\n");
            return 2;
        }
        ts = std::make_unique<obs::Timeseries>(
            w, obs::Timeseries::Domain::Refs);
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

/** Parses --block, defaulting and bounds-checking. @return 0 on a
 *  bad value (caller reports). */
u32
blockCapacityArg(const Args &a)
{
    const char *arg = a.value("--block");
    if (!arg)
        return trace::kPackedDefaultBlockCapacity;
    unsigned long v = std::strtoul(arg, nullptr, 0);
    if (v < 1 || v > trace::kPackedMaxBlockCapacity)
        return 0;
    return static_cast<u32>(v);
}

int
cmdTracePack(const Args &a, const std::vector<const char *> &ops)
{
    u32 cap = blockCapacityArg(a);
    if (!cap) {
        std::fprintf(stderr,
                     "trace pack: --block %s: expected an integer in "
                     "[1, %u]\n",
                     a.value("--block"), trace::kPackedMaxBlockCapacity);
        return 2;
    }

    const char *synthetic = a.value("--synthetic");
    const char *in = nullptr;
    const char *out = nullptr;
    if (synthetic) {
        if (ops.size() != 2) {
            std::fprintf(stderr,
                         "usage: palmtrace trace pack --synthetic N "
                         "OUT [--seed S] [--block N]\n");
            return 2;
        }
        out = ops[1];
    } else {
        if (ops.size() != 3) {
            std::fprintf(stderr, "usage: palmtrace trace pack IN OUT "
                                 "[--block N]\n");
            return 2;
        }
        in = ops[1];
        out = ops[2];
    }

    // Refuse bad input before opening OUT: the writer publishes
    // whatever it holds when it goes out of scope.
    workload::DesktopTraceConfig cfg;
    if (synthetic) {
        cfg.refs = std::strtoull(synthetic, nullptr, 0);
        if (!cfg.refs) {
            std::fprintf(stderr,
                         "trace pack: --synthetic needs a positive "
                         "reference count\n");
            return 2;
        }
        cfg.seed = std::strtoull(a.value("--seed", "7"), nullptr, 0);
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

    trace::PackedTraceWriter w(out, cap);
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
cmdTraceUnpack(const Args &, const std::vector<const char *> &ops)
{
    if (ops.size() != 3) {
        std::fprintf(stderr, "usage: palmtrace trace unpack IN OUT\n");
        return 2;
    }
    const char *in = ops[1];
    const char *out = ops[2];

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
cmdTraceInfo(const Args &, const std::vector<const char *> &ops)
{
    if (ops.size() != 2) {
        std::fprintf(stderr, "usage: palmtrace trace info FILE\n");
        return 2;
    }
    const char *path = ops[1];
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
cmdTraceDiff(const Args &, const std::vector<const char *> &ops)
{
    if (ops.size() != 3) {
        std::fprintf(stderr, "usage: palmtrace trace diff A B\n");
        return 2;
    }
    trace::DiffResult d = trace::diffTraces(ops[1], ops[2]);
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

int
cmdTrace(const Args &a)
{
    auto ops = a.operands();
    if (ops.empty()) {
        std::fprintf(stderr, "trace: missing operation (pack, "
                             "unpack, info, diff)\n");
        return 2;
    }
    if (!std::strcmp(ops[0], "pack"))
        return cmdTracePack(a, ops);
    if (!std::strcmp(ops[0], "unpack"))
        return cmdTraceUnpack(a, ops);
    if (!std::strcmp(ops[0], "info"))
        return cmdTraceInfo(a, ops);
    if (!std::strcmp(ops[0], "diff"))
        return cmdTraceDiff(a, ops);
    std::fprintf(stderr,
                 "trace: unknown operation '%s' (want pack, unpack, "
                 "info, or diff)\n",
                 ops[0]);
    return 2;
}

// ---------------------------------------------------------------------
// Supervised jobs: journalled, watchdog-guarded, resumable runs.

/** The shared supervision knobs, straight from the command line. */
super::JobOptions
jobOptionsFrom(const Args &a)
{
    super::JobOptions jo;
    jo.maxAttempts = static_cast<u32>(
        std::strtoul(a.value("--max-retries", "3"), nullptr, 0));
    jo.deadlineMs =
        std::strtoull(a.value("--deadline", "0"), nullptr, 0);
    if (const char *j = a.value("--journal"))
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

/** The most sessions one fleet or submit command may request. */
constexpr u64 kMaxFleetCount = u64{1} << 20;

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
    const char *countArg = a.value("--count", "8");
    const auto count =
        static_cast<unsigned>(parseCount(countArg, kMaxFleetCount));
    if (!count) {
        std::fprintf(stderr,
                     "%s: --count %s: expected an integer in [1, %llu]\n",
                     what, countArg,
                     static_cast<unsigned long long>(kMaxFleetCount));
        return 2;
    }
    const char *scaleArg = a.value("--scale", "1");
    const double scale = parseScale(scaleArg);
    if (!scale) {
        std::fprintf(stderr,
                     "%s: --scale %s: expected a finite number > 0\n",
                     what, scaleArg);
        return 2;
    }
    const u64 seed =
        std::strtoull(a.value("--seed", "1"), nullptr, 0);
    const std::vector<workload::SessionSpec> specs =
        fleetSpecs(count, scale, seed);

    super::JobOptions jo = jobOptionsFrom(a);
    jo.blockCapacity = blockCapacityArg(a);
    if (!jo.blockCapacity) {
        std::fprintf(stderr,
                     "%s: --block %s: expected an integer in [1, %u]\n",
                     what, a.value("--block"),
                     trace::kPackedMaxBlockCapacity);
        return 2;
    }
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
    const char *out = a.value("--out");
    if (!out) {
        std::fprintf(
            stderr,
            "usage: palmtrace fleet --out BASE [--count N] "
            "[--scale X] [--seed S] [--block N] [--save-sessions] "
            "[--journal FILE] [--deadline MS] [--max-retries N]\n");
        return 2;
    }
    const char *remote = a.value("--remote");
    if (remote && a.has("--save-sessions")) {
        std::fprintf(stderr,
                     "fleet: --save-sessions is ignored with "
                     "--remote (sessions live server-side)\n");
    }
    return runFleetCommand("fleet", a, out, remote ? remote : "");
}

/** The server endpoint named by --socket PATH or --tcp PORT. */
std::string
endpointFrom(const Args &a)
{
    if (const char *s = a.value("--socket"))
        return s;
    if (const char *t = a.value("--tcp"))
        return std::string("tcp:") + t;
    return {};
}

/** `submit --socket PATH --out BASE`: a fleet through a resident
 *  server, byte-identical to running it locally. */
int
cmdSubmit(const Args &a)
{
    const std::string endpoint = endpointFrom(a);
    const char *out = a.value("--out");
    if (endpoint.empty() || !out) {
        std::fprintf(
            stderr,
            "usage: palmtrace submit (--socket PATH | --tcp PORT) "
            "--out BASE [--count N] [--scale X] [--seed S] "
            "[--block N] [--journal FILE]\n");
        return 2;
    }
    return runFleetCommand("submit", a, out, endpoint);
}

/** `serve --socket PATH`: the resident fleet server. Runs until
 *  SIGTERM/SIGINT or a client Shutdown frame, then drains. */
int
cmdServe(const Args &a)
{
    const char *socket = a.value("--socket");
    if (!socket) {
        std::fprintf(
            stderr,
            "usage: palmtrace serve --socket PATH [--tcp PORT] "
            "[--jobs N] [--max-sessions M] [--session-timeout MS] "
            "[--scratch DIR]\n");
        return 2;
    }
    serve::ServeOptions so;
    so.socketPath = socket;
    if (const char *t = a.value("--tcp"))
        so.tcpPort = std::atoi(t);
    so.maxSessions = static_cast<u32>(
        std::strtoul(a.value("--max-sessions", "64"), nullptr, 0));
    if (!so.maxSessions)
        so.maxSessions = 64;
    so.sessionTimeoutMs = std::strtoull(
        a.value("--session-timeout", "0"), nullptr, 0);
    so.jobs = parseJobs(a.value("--jobs")); // validated by main()
    if (const char *s = a.value("--scratch"))
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
    const char *journal = a.operand();
    if (!journal) {
        std::fprintf(stderr,
                     "usage: palmtrace resume JOURNAL [--jobs N]\n");
        return 2;
    }
    super::JobOptions jo;
    jo.globalCancel = &gSigint;
    jo.jobs = parseJobs(a.value("--jobs")); // validated by main()
    // Remote-fleet journals are resumed by the serve client (the
    // endpoint travels in the journal; --socket/--tcp override it).
    if (serve::isRemoteFleetJournal(journal)) {
        return reportJob("resume",
                         serve::resumeRemoteFleetJob(
                             journal, endpointFrom(a), jo));
    }
    return reportJob("resume", super::resumeJob(journal, jo));
}

int
cmdDisasm(const Args &a)
{
    u32 count = static_cast<u32>(
        std::strtoul(a.value("--count", "40"), nullptr, 0));
    const os::RomImage &rom = os::builtRom();
    device::Device dev;
    dev.bus().loadRom(os::builtRomPaged());
    std::printf("PilotOS ROM @ 0x%08X (boot 0x%08X, dispatcher "
                "0x%08X)\n\n",
                device::kRomBase, rom.syms.boot, rom.syms.dispatcher);
    Addr pc = rom.syms.dispatcher;
    for (u32 i = 0; i < count; ++i) {
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
    const char *metrics = a.value("--metrics");
    const char *timeseries = a.value("--timeseries");
    const char *journal = a.value("--journal");
    const char *postmortem = a.value("--postmortem");
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

    if (const char *out = a.value("--out")) {
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

int
dispatch(const std::string &cmd, const Args &rest)
{
    if (cmd == "collect")
        return cmdCollect(rest);
    if (cmd == "info")
        return cmdInfo(rest);
    if (cmd == "replay")
        return cmdReplay(rest);
    if (cmd == "validate")
        return cmdValidate(rest);
    if (cmd == "fsck")
        return cmdFsck(rest);
    if (cmd == "stats")
        return cmdStats(rest);
    if (cmd == "sweep")
        return cmdSweep(rest);
    if (cmd == "trace")
        return cmdTrace(rest);
    if (cmd == "resume")
        return cmdResume(rest);
    if (cmd == "fleet")
        return cmdFleet(rest);
    if (cmd == "serve")
        return cmdServe(rest);
    if (cmd == "submit")
        return cmdSubmit(rest);
    if (cmd == "report")
        return cmdReport(rest);
    if (cmd == "disasm")
        return cmdDisasm(rest);
    return unknownSubcommand(cmd);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    std::string cmd = argv[1];
    Args rest{argc - 2, argv + 2};

    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        printUsage(stdout);
        return 0;
    }
    if (int rc = checkFlags(rest))
        return rc;

    // fsck/stats dispatch on artifact magic; the job-journal parser
    // lives above the validate layer and hooks in at startup.
    super::registerFsckParser();

    // Ctrl-C becomes a cooperative stop: journals get their footer,
    // metrics still flush, and the process exits 130.
    std::signal(SIGINT, onSigint);

    // --postmortem FILE arms the flight recorder for the whole run;
    // the fatal-signal handlers flush its rings into FILE before the
    // default action takes over. Installed unconditionally — they are
    // pure no-ops (beyond re-raising) when the recorder stays unarmed.
    if (const char *postmortem = rest.value("--postmortem"))
        obs::FlightRecorder::global().arm(postmortem);
    std::signal(SIGSEGV, onFatalSignal);
    std::signal(SIGABRT, onFatalSignal);
    std::signal(SIGBUS, onFatalSignal);
    std::signal(SIGILL, onFatalSignal);

    // Verbosity: CLI default is quiet (tables are the output), the
    // environment can override, explicit flags win.
    setLogQuiet(true);
    applyLogEnv();
    if (rest.has("--quiet"))
        setLogLevel(LogLevel::Quiet);
    else if (rest.has("--verbose"))
        setLogLevel(LogLevel::Debug);

    // Worker threads for the parallel stages (sweep flushes, fleet
    // items). PT_JOBS is the environment's default; --jobs wins.
    if (const char *jobs = rest.value("--jobs")) {
        unsigned n = parseJobs(jobs);
        if (!n) {
            std::fprintf(stderr,
                         "palmtrace: --jobs %s: expected an integer in "
                         "[1, %u]\n",
                         jobs, kMaxJobs);
            return 2;
        }
        setDefaultJobs(n);
    }

    // Observability surfaces: install the registry sink when metrics
    // are wanted, arm the timeline tracer when a trace is wanted.
    const char *metricsOut = rest.value("--metrics-out");
    const char *traceOut = rest.value("--trace-out");
    obs::RegistrySink sink;
    if (metricsOut || rest.has("--profile"))
        obs::setProfileSink(&sink);
    if (traceOut)
        obs::Tracer::global().setEnabled(true);

    int rc = dispatch(cmd, rest);

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
