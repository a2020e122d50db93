/**
 * @file
 * fleet_served: many tiny sessions (2 interactions, idle 1000)
 * submitted to an in-process serve::Server with 2 workers, over the
 * PTSF wire. A closed loop: one client connection keeps 4 sessions in
 * flight, so the server's admission queue is never empty. Per-session
 * fixed costs dominate: collection, device restore from the shared
 * ROM, framing, streaming and FNV verification.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "base/fdio.h"
#include "base/fnv.h"
#include "obs/hostmem.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "super/jobs.h"
#include "workloads.h"

namespace perfbench
{

namespace
{

using namespace pt;

constexpr int kSetups = 3;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kInFlight = 4;
constexpr u32 kQueueCapacity = 8;
constexpr std::size_t kLocalFleetSessions = 16;
constexpr std::size_t kSampleSessions = 8;
constexpr std::size_t kHeldDevices = 32;
constexpr u64 kDigestSessions = 4;
/** Seed of the fixed set-up sessions, checked against in-process runs. */
constexpr u64 kCanarySeed = 0xCA7A11;

/** Session @p i of the run: perf_serve's shape, seed-derived. */
workload::SessionSpec
specAt(u64 seed, u64 i)
{
    workload::SessionSpec s;
    s.name = "bench-" + std::to_string(i);
    s.config.seed = mixSeed(seed, i);
    s.config.interactions = 2;
    s.config.meanIdleTicks = 1'000;
    return s;
}

/** The in-process run of one spec: what the server must stream. */
struct LocalRun
{
    u64 fnv = 0;
    u64 instructions = 0;
    u64 cycles = 0;
    std::vector<std::string> problems;
};

LocalRun
runLocally(const workload::SessionSpec &spec, const std::string &path)
{
    Packed p = packSession(core::PalmSimulator::collect(spec.config), path);
    std::remove(path.c_str());
    return {p.fnv, p.replay.instructions, p.replay.cycles,
            std::move(p.problems)};
}

/** Connects to the server's Unix socket and says hello. */
int
connectAndGreet(const std::string &path, std::string &err)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)) != 0) {
        err = "connect " + path + ": " + std::strerror(errno);
        if (fd >= 0)
            ::close(fd);
        return -1;
    }
    // A wedged server fails the run instead of hanging it.
    timeval tv{60, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    serve::MsgType type{};
    std::vector<u8> payload;
    serve::HelloOkMsg hello;
    if (!serve::sendFrame(fd, serve::MsgType::Hello, serve::encodeHello()) ||
        !serve::recvFrame(fd, type, payload) ||
        type != serve::MsgType::HelloOk ||
        !serve::HelloOkMsg::decode(payload, hello)) {
        err = "handshake with " + path + " failed";
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Waits until @p fd has a frame to read; false on timeout or error. */
bool
waitReadable(int fd, std::string &err)
{
    pollfd pfd{fd, POLLIN, 0};
    for (;;) {
        const int n = ::poll(&pfd, 1, 60'000);
        if (n > 0)
            return true;
        if (n < 0 && errno == EINTR)
            continue;
        err = n == 0 ? "no reply within 60 s" : std::strerror(errno);
        return false;
    }
}

/** One session's trip through the server, client-side. */
struct Trip
{
    u64 spec = 0;
    Clock::time_point submit, accepted, firstChunk, done, verified;
    bool haveChunk = false;
    std::string path;
    std::FILE *file = nullptr;
    u64 received = 0;
    std::vector<std::string> problems;
};

/** What a closed-loop phase measured. */
struct LoopStats
{
    double wall = 0;
    u64 sessions = 0; ///< verified
    u64 instructions = 0;
    u64 refs = 0;
    u64 traceBytes = 0;
    u64 busy = 0;
    std::map<u64, u64> fnvBySpec; ///< artifact FNV of the first specs
    std::vector<double> latencyMs, admitMs, firstChunkMs, streamMs,
        verifyMs;
    std::string error; ///< connection-level failure
};

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * A closed loop on one connection: keeps kInFlight sessions
 * submitted until @p seconds have passed or @p maxSessions were
 * submitted, then drains. Specs run from @p nextSpec on. Every
 * artifact is written, verified against its JobDone, and removed.
 * The client's calls are spans on @p log; waiting for the server is
 * the op span's own, unattributed time.
 */
class Loop
{
  public:
    Loop(int fd, u64 seed, u64 &nextJob, u64 &nextSpec, Outcome &out,
         const std::vector<LocalRun> *expect, SpanLog &log)
        : fd(fd), seed(seed), nextJob(nextJob), nextSpec(nextSpec),
          out(out), expect(expect), log(log)
    {}

    LoopStats
    run(double seconds, u64 maxSessions)
    {
        const auto t0 = Clock::now();
        u64 submitted = 0;
        {
            SpanLog::Scope op(log, kOpSpan);
            for (;;) {
                while (trips.size() < kInFlight &&
                       submitted < maxSessions &&
                       secondsSince(t0) < seconds && st.error.empty()) {
                    submit();
                    ++submitted;
                }
                if (trips.empty() || !st.error.empty())
                    break;
                receive();
            }
        }
        st.wall = secondsSince(t0);
        for (auto &[id, trip] : trips) {
            if (trip.file)
                std::fclose(trip.file);
            std::remove(trip.path.c_str());
            trip.problems.push_back("lost: " + st.error);
            out.op(trip.problems);
        }
        return st;
    }

  private:
    void
    submit()
    {
        serve::SubmitMsg sub;
        sub.jobId = nextJob++;
        sub.blockCapacity = trace::kPackedDefaultBlockCapacity;
        sub.spec = specAt(seed, nextSpec);
        Trip &t = trips[sub.jobId];
        t.spec = nextSpec++;
        t.path = "served-" + std::to_string(sub.jobId) + ".ptpk";
        t.submit = Clock::now();
        SpanLog::Scope span(log, "serve.submit");
        if (!serve::sendFrame(fd, serve::MsgType::Submit, sub.encode()))
            st.error = "submit: " + std::string(std::strerror(errno));
    }

    void
    receive()
    {
        serve::MsgType type{};
        std::vector<u8> payload;
        if (std::string err; !waitReadable(fd, err)) {
            st.error = "recv: " + err;
            return;
        }
        {
            SpanLog::Scope span(log, "serve.recv");
            if (auto r = serve::recvFrame(fd, type, payload); !r) {
                st.error = "recv: " + r.message();
                return;
            }
        }
        const auto now = Clock::now();
        switch (type) {
          case serve::MsgType::Accepted: {
            u64 id = 0;
            u32 depth = 0;
            serve::decodeJobRef(payload, id, depth);
            if (auto it = trips.find(id); it != trips.end())
                it->second.accepted = now;
            return;
          }
          case serve::MsgType::Busy: {
            serve::BusyMsg busy;
            serve::BusyMsg::decode(payload, busy);
            ++st.busy;
            finish(busy.jobId, {"busy: " + busy.reason});
            return;
          }
          case serve::MsgType::Error: {
            serve::ErrorMsg em;
            serve::ErrorMsg::decode(payload, em);
            finish(em.jobId,
                   {"server error: " + em.err.field + ": " + em.err.reason});
            return;
          }
          case serve::MsgType::TraceChunk:
            chunk(payload, now);
            return;
          case serve::MsgType::JobDone:
            jobDone(payload, now);
            return;
          default:
            st.error = std::string("unexpected ") +
                       serve::msgTypeName(type) + " frame";
        }
    }

    void
    chunk(const std::vector<u8> &payload, Clock::time_point now)
    {
        serve::TraceChunkHeader hdr;
        const u8 *data = nullptr;
        std::size_t len = 0;
        if (!serve::decodeTraceChunk(payload, hdr, &data, &len)) {
            st.error = "malformed trace chunk";
            return;
        }
        auto it = trips.find(hdr.jobId);
        if (it == trips.end()) {
            st.error = "chunk for an unknown job";
            return;
        }
        Trip &t = it->second;
        if (!t.haveChunk) {
            t.haveChunk = true;
            t.firstChunk = now;
        }
        if (hdr.offset != t.received) {
            t.problems.push_back("trace stream out of order");
            return;
        }
        SpanLog::Scope span(log, "base.write");
        if (!t.file)
            t.file = std::fopen(t.path.c_str(), "wb");
        if (!t.file || io::fwriteFull(data, len, t.file) != len) {
            t.problems.push_back("cannot write " + t.path);
            return;
        }
        t.received += len;
    }

    void
    jobDone(const std::vector<u8> &payload, Clock::time_point now)
    {
        serve::JobDoneMsg done;
        if (!serve::JobDoneMsg::decode(payload, done)) {
            st.error = "malformed job-done frame";
            return;
        }
        auto it = trips.find(done.jobId);
        if (it == trips.end()) {
            st.error = "job-done for an unknown job";
            return;
        }
        Trip &t = it->second;
        t.done = now;
        if (t.file && std::fclose(t.file) != 0)
            t.problems.push_back("cannot close " + t.path);
        t.file = nullptr;
        u64 fnv = 0;
        bool readOk = false;
        {
            SpanLog::Scope span(log, "serve.verify");
            fnv = super::fnvFile(t.path, &readOk);
        }
        t.verified = Clock::now();
        if (!readOk || fnv != done.traceFnv)
            t.problems.push_back("artifact FNV differs from JobDone");
        if (t.received != done.traceBytes)
            t.problems.push_back("artifact size differs from JobDone");
        if (done.events != done.ramRefs + done.flashRefs)
            t.problems.push_back("record count differs from the refs");
        if (expect && t.spec < expect->size() &&
            (fnv != (*expect)[t.spec].fnv ||
             done.instructions != (*expect)[t.spec].instructions ||
             done.cycles != (*expect)[t.spec].cycles)) {
            t.problems.push_back(
                "served session differs from its in-process run");
        }
        if (t.spec < kDigestSessions)
            st.fnvBySpec[t.spec] = fnv;
        if (t.problems.empty()) {
            ++st.sessions;
            st.instructions += done.instructions;
            st.refs += done.ramRefs + done.flashRefs;
            st.traceBytes += done.traceBytes;
            st.latencyMs.push_back(msBetween(t.submit, t.verified));
            st.admitMs.push_back(msBetween(t.submit, t.accepted));
            st.firstChunkMs.push_back(msBetween(t.accepted, t.firstChunk));
            st.streamMs.push_back(msBetween(t.firstChunk, t.done));
            st.verifyMs.push_back(msBetween(t.done, t.verified));
        }
        finish(done.jobId, {});
    }

    void
    finish(u64 jobId, std::vector<std::string> problems)
    {
        auto it = trips.find(jobId);
        if (it == trips.end()) {
            st.error = "reply for an unknown job";
            return;
        }
        Trip &t = it->second;
        if (t.file)
            std::fclose(t.file);
        std::remove(t.path.c_str());
        problems.insert(problems.end(), t.problems.begin(),
                        t.problems.end());
        out.op(problems);
        trips.erase(it);
    }

    int fd;
    u64 seed;
    u64 &nextJob;
    u64 &nextSpec;
    Outcome &out;
    /** In-process runs of the first specs, if any. */
    const std::vector<LocalRun> *expect;
    SpanLog &log;
    std::map<u64, Trip> trips;
    LoopStats st;
};

/** A booted server with a greeted client connection. */
struct Served
{
    std::unique_ptr<serve::Server> server;
    int fd = -1;

    ~Served() { close(); }

    void
    close()
    {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
        if (server)
            server->stop();
        server.reset();
    }
};

std::string
boot(Served &s, const std::string &sock)
{
    serve::ServeOptions so;
    so.socketPath = sock;
    so.jobs = kWorkers;
    so.maxSessions = kQueueCapacity;
    so.scratchDir = ".";
    s.server = std::make_unique<serve::Server>(so);
    std::string err;
    if (!s.server->start(&err))
        return "serve: " + err;
    s.fd = connectAndGreet(sock, err);
    return s.fd < 0 ? err : "";
}

/** What a server worker's layers cost, from in-process samples. */
struct WorkerRates
{
    double perInstruction = 0; ///< collect plus replay, seconds
    double perRef = 0;         ///< trace create, encode and close
};

/**
 * In-process samples of the per-session layers a server worker runs:
 * collect, then replay into a PTPK file (with the chunked sink's
 * spans). Fills their per-layer metrics and returns their costs per
 * instruction and per reference.
 */
WorkerRates
sampleSessionLayers(u64 seed, Outcome &out)
{
    SpanLog log;
    std::vector<double> collectMs, restoreMs;
    std::vector<core::Session> sessions;
    double instructions = 0, refs = 0, bytes = 0, blocks = 0;
    double collectSec = 0;
    for (u64 i = 0; i < kSampleSessions; ++i) {
        auto t0 = Clock::now();
        sessions.push_back(
            core::PalmSimulator::collect(specAt(seed, i).config));
        collectSec += secondsSince(t0);
        collectMs.push_back(secondsSince(t0) * 1e3);
        t0 = Clock::now();
        auto dev = std::make_unique<device::Device>();
        sessions.back().initialState.restore(*dev);
        restoreMs.push_back(secondsSince(t0) * 1e3);
        TracedPack tp = tracedPackReplay(sessions.back(), "sample.ptpk", log);
        std::remove("sample.ptpk");
        out.op(tp.ok ? std::vector<std::string>{}
                     : std::vector<std::string>{tp.error});
        instructions += static_cast<double>(tp.replay.instructions);
        refs += static_cast<double>(tp.records);
        bytes += static_cast<double>(tp.bytes);
        blocks += static_cast<double>(
            (tp.records + trace::kPackedDefaultBlockCapacity - 1) /
            trace::kPackedDefaultBlockCapacity);
    }
    const double n = static_cast<double>(kSampleSessions);
    auto self = [&](const char *name) {
        auto it = log.self().find(name);
        return it == log.self().end() ? 0.0 : it->second / n;
    };
    out.perLayer["workload.collect_ms"] = median(collectMs);
    out.perLayer["device.restore_ms"] = median(restoreMs);
    out.perLayer["replay.emulate_s"] = self("replay.emulate");
    out.perLayer["replay.instructions"] = instructions / n;
    out.perLayer["replay.refs"] = refs / n;
    out.perLayer["m68k.ns_per_instr"] =
        instructions > 0 ? self("replay.emulate") * n * 1e9 / instructions
                         : 0.0;
    out.perLayer["trace.encode_s"] = self("trace.encode");
    out.perLayer["trace.encode_ns_per_ref"] =
        refs > 0 ? self("trace.encode") * n * 1e9 / refs : 0.0;
    out.perLayer["trace.close_s"] = self("trace.close");
    out.perLayer["trace.bytes"] = bytes / n;
    out.perLayer["trace.blocks"] = blocks / n;

    // Resident cost of a restored device: hold kHeldDevices at once.
    const u64 before = obs::residentSetBytes();
    std::vector<std::unique_ptr<device::Device>> held;
    for (std::size_t i = 0; i < kHeldDevices; ++i) {
        held.push_back(std::make_unique<device::Device>());
        sessions[i % sessions.size()].initialState.restore(*held.back());
    }
    const u64 after = obs::residentSetBytes();
    out.perLayer["device.rss_per_session_kb"] =
        after > before ? static_cast<double>(after - before) / 1024.0 /
                             static_cast<double>(kHeldDevices)
                       : 0.0;

    WorkerRates rates;
    if (instructions > 0 && refs > 0) {
        rates.perInstruction =
            (collectSec + self("replay.emulate") * n) / instructions;
        rates.perRef = (self("trace.create") + self("trace.encode") +
                        self("trace.close")) *
                       n / refs;
    }
    return rates;
}

/** The same specs through super::runFleetJob, in-process. */
double
localFleetSessionsPerSecond(u64 seed, u64 servedFnv0, Outcome &out)
{
    std::vector<workload::SessionSpec> specs;
    for (u64 i = 0; i < kLocalFleetSessions; ++i)
        specs.push_back(specAt(seed, i));
    super::JobOptions jo;
    jo.jobs = kWorkers;
    const std::string base = "local";
    const auto t0 = Clock::now();
    super::JobResult res = super::runFleetJob(specs, base, jo);
    const double secs = secondsSince(t0);
    std::vector<std::string> problems;
    if (!res.ok)
        problems.push_back("local fleet: " + res.error);
    else if (super::fnvFile(super::fleetTracePath(base, 0)) != servedFnv0)
        problems.push_back("local fleet session 0 differs from served");
    out.op(problems);
    for (u64 i = 0; i < specs.size(); ++i)
        std::remove(super::fleetTracePath(base, i).c_str());
    std::remove((base + ".csv").c_str());
    return static_cast<double>(specs.size()) / secs;
}

} // namespace

Outcome
runFleetServed(const RunOptions &o)
{
    Outcome out;
    if (o.truncateInput) {
        out.op({"--truncate-input applies to sweep_packed only"});
        return out;
    }

    // --- Set-up, repeated: in-process runs of the canary sessions,
    // server boot, and the canaries served once as the warm-up op,
    // each checked against its in-process run. The canary specs are
    // fixed, so set-up does the same work for every seed.
    Served served;
    std::vector<LocalRun> canaries;
    u64 nextJob = 1;
    std::vector<double> setupSecs;
    SpanLog setupLog; // the loops' spans; only the traced loop's are read
    for (int k = 0; k < kSetups; ++k) {
        served.close();
        const auto t0 = Clock::now();
        std::vector<std::string> problems;
        for (u64 i = 0; i < kInFlight; ++i) {
            LocalRun local =
                runLocally(specAt(kCanarySeed, i), "canary.ptpk");
            problems.insert(problems.end(), local.problems.begin(),
                            local.problems.end());
            if (k == 0)
                canaries.push_back(local);
            else if (local.fnv != canaries[i].fnv)
                problems.push_back("in-process run is not deterministic");
        }
        if (std::string err = boot(served, "s" + std::to_string(k) + ".sock");
            !err.empty())
            problems.push_back(err);
        out.op(problems);
        if (!problems.empty())
            return out;
        u64 canarySpec = 0;
        LoopStats ws = Loop(served.fd, kCanarySeed, nextJob, canarySpec, out,
                            &canaries, setupLog)
                           .run(1e9, kInFlight);
        setupSecs.push_back(secondsSince(t0));
        if (ws.sessions != kInFlight) {
            out.op({"canary sessions failed: " + ws.error});
            return out;
        }
    }

    // --- Timed phase: a closed loop of kInFlight sessions ---------
    u64 nextSpec = 0;
    const double plainSeconds = o.trace ? o.seconds / 2 : o.seconds;
    SpanLog plainLog, log;
    LoopStats ls = Loop(served.fd, o.seed, nextJob, nextSpec, out, nullptr,
                        plainLog)
                       .run(plainSeconds, ~u64{0});
    LoopStats traced;
    if (o.trace) {
        traced = Loop(served.fd, o.seed, nextJob, nextSpec, out, nullptr, log)
                     .run(o.seconds / 2, ~u64{0});
    }
    ::close(served.fd);
    served.fd = -1;
    const serve::ServeStats ss = served.server->stop();
    served.server.reset();
    if (!ls.error.empty() || !traced.error.empty())
        out.op({"connection: " + ls.error + traced.error});
    if (ss.badFrames != 0 || ss.sessionsFailed != 0)
        out.op({"server reported failed sessions or bad frames"});

    // The first kDigestSessions specs are always served, so their
    // artifacts fix the digest for a seed.
    Fnv64 d;
    for (u64 i = 0; i < kDigestSessions; ++i) {
        auto it = ls.fnvBySpec.find(i);
        d.updateValue(it == ls.fnvBySpec.end() ? u64{0} : it->second);
    }
    out.digest = hex64(d.value());

    const double wall = ls.wall > 0 ? ls.wall : 1.0;
    const double sessionsPerSec = static_cast<double>(ls.sessions) / wall;
    out.endToEnd["setup_s"] = median(setupSecs);
    out.endToEnd["refs_per_s"] = static_cast<double>(ls.refs) / wall / 1e6;
    out.endToEnd["trace_bytes_per_ref"] =
        ls.refs ? static_cast<double>(ls.traceBytes) /
                      static_cast<double>(ls.refs)
                : 0.0;
    out.extras.push_back({"sessions_per_s", sessionsPerSec, "1/s"});
    out.extras.push_back(
        {"sim_mips", static_cast<double>(ls.instructions) / wall / 1e6,
         "Minstr/s"});
    out.extras.push_back(
        {"session_p50_ms", percentile(ls.latencyMs, 50), "ms"});
    out.extras.push_back(
        {"session_p90_ms", percentile(ls.latencyMs, 90), "ms"});
    out.extras.push_back(
        {"sessions", static_cast<double>(ls.sessions), "count"});

    if (!o.trace)
        return out;

    // --- Traced run: layer attribution ----------------------------
    // The client's own spans cover little of the loop: it mostly waits
    // while the server's workers run the sessions. Coverage is
    // therefore taken over the workers' time, kWorkers x the traced
    // loop's wall: each served session is charged its layers' costs,
    // collect, replay and PTPK writing at the in-process sampled rates
    // scaled by its instructions and references, hashing at the
    // client's verify cost (the same fnvFile over the same bytes), and
    // streaming as observed from the first chunk to JobDone. Workers
    // left idle or server time outside these layers lower it.
    reportSpans(log, traced.sessions, out);
    out.perLayer["serve.admit_ms"] = percentile(traced.admitMs, 50);
    out.perLayer["serve.first_chunk_ms"] = percentile(traced.firstChunkMs, 50);
    out.perLayer["serve.stream_ms"] = percentile(traced.streamMs, 50);
    out.perLayer["serve.verify_ms"] = percentile(traced.verifyMs, 50);
    out.perLayer["serve.bytes_streamed"] =
        traced.sessions ? static_cast<double>(traced.traceBytes) /
                              static_cast<double>(traced.sessions)
                        : 0.0;
    out.perLayer["serve.busy_rejects"] =
        static_cast<double>(ls.busy + traced.busy);
    const double tracedPerSession =
        traced.sessions ? traced.wall / static_cast<double>(traced.sessions)
                        : 0.0;
    out.perLayer["trace_overhead"] =
        ls.sessions ? tracedPerSession * sessionsPerSec : 0.0;
    const double local =
        localFleetSessionsPerSecond(o.seed, ls.fnvBySpec[0], out);
    out.perLayer["super.fleet_sessions_per_s"] = local;
    out.perLayer["serve.served_vs_local"] = sessionsPerSec / local;
    const WorkerRates rates = sampleSessionLayers(o.seed, out);
    double streamSec = 0;
    for (double ms : traced.streamMs)
        streamSec += ms / 1e3;
    const auto verify = log.self().find("serve.verify");
    const double workerSec =
        rates.perInstruction * static_cast<double>(traced.instructions) +
        rates.perRef * static_cast<double>(traced.refs) +
        (verify == log.self().end() ? 0.0 : verify->second) + streamSec;
    out.perLayer["span_coverage"] =
        traced.wall > 0 ? workerSec / (kWorkers * traced.wall) : 0.0;
    return out;
}

} // namespace perfbench
