/**
 * @file
 * The palmtrace benchmark executable.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--truncate-input]
 *
 * Runs one workload in the current directory (a per-run temporary
 * directory the caller creates and removes, with palmtrace's PT_*
 * environment cleared; see run.py), checks its outputs, and
 * prints a human-readable summary on stderr, a `sim_digest` line and,
 * last, one JSON result line on stdout. --trace 0 reports the
 * end-to-end metrics; --trace 1 runs the traced variant and reports
 * the per-layer metrics. Exits 1 when any output check fails.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace
{

using namespace perfbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed with --trace 0, on every workload. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"refs_per_s", "Mref/s"},
    {"trace_bytes_per_ref", "B"},
    {"peak_rss_mb", "MB"},
};

/** Printed with --trace 1, on every workload; a layer the workload
 *  does not exercise reads 0. Times and volumes are per timed op. */
const MetricDef kPerLayer[] = {
    {"replay.emulate_s", "s"},
    {"m68k.ns_per_instr", "ns"},
    {"replay.instructions", "count"},
    {"replay.refs", "count"},
    {"device.sink_dispatch_ns_per_ref", "ns"},
    {"trace.encode_s", "s"},
    {"trace.encode_ns_per_ref", "ns"},
    {"trace.close_s", "s"},
    {"trace.bytes", "B"},
    {"trace.blocks", "count"},
    {"trace.open_s", "s"},
    {"trace.decode_s", "s"},
    {"trace.decode_ns_per_ref", "ns"},
    {"cache.sweep_s", "s"},
    {"cache.ns_per_access", "ns"},
    {"cache.accesses", "count"},
    {"cache.misses", "count"},
    {"cache.same_line_ratio_16b", "ratio"},
    {"cache.same_line_ratio_32b", "ratio"},
    {"cache.speedup_vs_1job", "x"},
    {"cache.shard_line_offset_b", "B"},
    {"workload.collect_ms", "ms"},
    {"device.restore_ms", "ms"},
    {"device.rss_per_session_kb", "KB"},
    {"serve.admit_ms", "ms"},
    {"serve.first_chunk_ms", "ms"},
    {"serve.stream_ms", "ms"},
    {"serve.verify_ms", "ms"},
    {"serve.bytes_streamed", "B"},
    {"serve.busy_rejects", "count"},
    {"super.fleet_sessions_per_s", "1/s"},
    {"serve.served_vs_local", "ratio"},
    {"host.parallel_capacity", "cores"},
    {"trace_overhead", "ratio"},
    {"span_coverage", "ratio"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload replay_pack|sweep_packed|"
                 "fleet_served --seed N --seconds S --trace 0|1 "
                 "[--truncate-input]\n");
    return 2;
}

/** Prints the metrics of @p defs from @p values as JSON members,
 *  with every digit of the measured value. */
std::string
jsonMetrics(const MetricDef *defs, std::size_t n,
            const std::map<std::string, double> &values)
{
    std::string s;
    for (std::size_t i = 0; i < n; ++i) {
        auto it = values.find(defs[i].name);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", defs[i].name,
                      it == values.end() ? 0.0 : it->second,
                      defs[i].unit);
        s += buf;
    }
    return s;
}

/** Names a workload reported that the tables above do not define. */
std::vector<std::string>
unknownNames(const MetricDef *defs, std::size_t n,
             const std::map<std::string, double> &values)
{
    std::vector<std::string> bad;
    for (const auto &[name, v] : values) {
        bool known = false;
        for (std::size_t i = 0; i < n; ++i)
            known = known || name == defs[i].name;
        if (!known)
            bad.push_back("undeclared metric " + name);
    }
    return bad;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);

    std::string workload;
    RunOptions o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--truncate-input") {
            o.truncateInput = true;
            continue;
        }
        if (!v)
            return usage();
        ++i;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, nullptr, 0);
            haveSeed = true;
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, nullptr);
            haveSeconds = o.seconds > 0;
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
            haveTrace = o.trace || std::strcmp(v, "0") == 0;
        } else {
            return usage();
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage();

    Outcome out;
    try {
        if (workload == "replay_pack")
            out = runReplayPack(o);
        else if (workload == "sweep_packed")
            out = runSweepPacked(o);
        else if (workload == "fleet_served")
            out = runFleetServed(o);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(),
                     e.what());
        return 1;
    }

    const double capacity = probeParallelCapacity();
    out.endToEnd["peak_rss_mb"] = peakRssMb();
    if (o.trace)
        out.perLayer["host.parallel_capacity"] = capacity;
    const std::size_t nE2e = std::size(kEndToEnd);
    const std::size_t nLayer = std::size(kPerLayer);
    for (const std::string &bad : unknownNames(kEndToEnd, nE2e, out.endToEnd))
        out.op({bad});
    for (const std::string &bad : unknownNames(kPerLayer, nLayer, out.perLayer))
        out.op({bad});

    // --- Human-readable summary -----------------------------------
    std::fprintf(stderr, "perfbench %s seed %llu, %.0f s%s\n",
                 workload.c_str(), static_cast<unsigned long long>(o.seed),
                 o.seconds, o.trace ? ", traced" : "");
    for (const MetricDef &m : kEndToEnd) {
        auto it = out.endToEnd.find(m.name);
        if (it != out.endToEnd.end())
            std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name, it->second,
                         m.unit);
    }
    for (const Metric &m : out.extras)
        std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());
    const double failedRatio =
        out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                      : 1.0;
    std::fprintf(stderr, "  %-34s %14.4f ratio (%llu of %llu ops)\n",
                 "ops_failed_ratio", failedRatio,
                 static_cast<unsigned long long>(out.failed),
                 static_cast<unsigned long long>(out.attempted));
    std::fprintf(stderr, "  %-34s %14.4f cores\n", "host.parallel_capacity",
                 capacity);
    if (o.trace) {
        std::fprintf(stderr, "  per-layer:\n");
        for (const MetricDef &m : kPerLayer) {
            auto it = out.perLayer.find(m.name);
            std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name,
                         it == out.perLayer.end() ? 0.0 : it->second,
                         m.unit);
        }
        std::fprintf(stderr, "  span self time per traced op:\n");
        for (const auto &[name, sec] : out.spanSelfPerOp)
            std::fprintf(stderr, "  %-34s %14.6f s\n", name.c_str(), sec);
    }
    for (const std::string &f : out.failures)
        std::fprintf(stderr, "  FAILED: %s\n", f.c_str());

    // --- Result line ----------------------------------------------
    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("sim_digest %s\n", out.digest.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                o.trace ? jsonMetrics(kPerLayer, nLayer, out.perLayer).c_str()
                        : jsonMetrics(kEndToEnd, nE2e, out.endToEnd).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
