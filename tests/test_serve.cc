/**
 * @file
 * Serve-subsystem tests: the resident fleet server and its client.
 *
 * The contract under test is the ISSUE's acceptance bar: a remote
 * fleet's artifacts are byte-identical to a local `palmtrace fleet`
 * of the same specs (at any worker count, across concurrent
 * clients); malformed, truncated, and hostile-length frames earn
 * structured rejections and never kill the server; admission is
 * bounded (Busy backpressure); slow sessions hit their timeout as a
 * structured error; and a drain under load leaves no partial
 * artifacts — finished traces plus a journal a resume completes
 * byte-identically. The fleet journals both resume paths read (local
 * Fleet, client-side RemoteFleet) and the sweep journal are mutated
 * field by field: every mutation resumes to a structured error or to
 * the byte-identical CSV, never an abort.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "base/fdio.h"
#include "base/fnv.h"
#include "obs/registry.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "super/jobs.h"
#include "super/journal.h"
#include "workload/sessionrunner.h"

namespace pt
{
namespace
{

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

std::vector<workload::SessionSpec>
serveSpecs(std::size_t n = 3)
{
    std::vector<workload::SessionSpec> specs(n);
    for (std::size_t i = 0; i < n; ++i) {
        specs[i].name = "srv-" + std::to_string(i);
        specs[i].config.seed = 90 + i;
        specs[i].config.interactions = 3;
        specs[i].config.meanIdleTicks = 1'500;
    }
    return specs;
}

std::string
replaceAll(std::string s, const std::string &from, const std::string &to)
{
    std::size_t at = 0;
    while ((at = s.find(from, at)) != std::string::npos) {
        s.replace(at, from.size(), to);
        at += to.size();
    }
    return s;
}

std::string
str(const std::vector<u8> &b)
{
    return std::string(b.begin(), b.end());
}

/** Raw protocol-level client socket (the hostile-input harness). */
int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Runs the remote fleet against @p socketPath and checks that every
 *  trace and the CSV match the local reference run byte for byte. */
void
expectRemoteMatchesLocal(const std::string &socketPath,
                         const std::vector<workload::SessionSpec> &specs,
                         const std::string &remoteBase,
                         const std::string &localBase,
                         const std::vector<u8> &localCsv)
{
    serve::ClientOptions co;
    co.endpoint = socketPath;
    super::JobOptions jo;
    auto res = serve::runRemoteFleet(specs, remoteBase, co, jo);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_FALSE(res.degraded) << res.super.firstError;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto remote =
            readFileBytes(super::fleetTracePath(remoteBase, i));
        auto local = readFileBytes(super::fleetTracePath(localBase, i));
        ASSERT_FALSE(local.empty());
        EXPECT_EQ(remote, local) << "trace " << i << " differs";
    }
    EXPECT_EQ(str(readFileBytes(remoteBase + ".csv")),
              replaceAll(str(localCsv), localBase, remoteBase));
}

TEST(ServeRoundTrip, ByteIdenticalToLocalFleetAtJobs1And8)
{
    auto specs = serveSpecs();
    const std::string localBase = tmpFile("serve_local");
    super::JobOptions ljo;
    ljo.jobs = 2;
    auto local = super::runFleetJob(specs, localBase, ljo);
    ASSERT_TRUE(local.ok) << local.error;
    auto localCsv = readFileBytes(localBase + ".csv");
    ASSERT_FALSE(localCsv.empty());

    for (unsigned jobs : {1u, 8u}) {
        serve::ServeOptions so;
        so.socketPath = tmpFile("serve_rt_" + std::to_string(jobs) +
                                ".sock");
        so.jobs = jobs;
        serve::Server server(so);
        std::string err;
        ASSERT_TRUE(server.start(&err)) << err;

        expectRemoteMatchesLocal(
            so.socketPath, specs,
            tmpFile("serve_remote_j" + std::to_string(jobs)),
            localBase, localCsv);

        auto st = server.stop();
        EXPECT_EQ(st.sessionsDone, specs.size());
        EXPECT_EQ(st.sessionsFailed, 0u);
        EXPECT_EQ(st.badFrames, 0u);
    }
}

TEST(ServeRoundTrip, ConcurrentClientsAllByteIdentical)
{
    auto specs = serveSpecs(2);
    const std::string localBase = tmpFile("serve_cc_local");
    super::JobOptions ljo;
    ljo.jobs = 2;
    auto local = super::runFleetJob(specs, localBase, ljo);
    ASSERT_TRUE(local.ok) << local.error;
    auto localCsv = readFileBytes(localBase + ".csv");

    serve::ServeOptions so;
    so.socketPath = tmpFile("serve_cc.sock");
    so.jobs = 4;
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    constexpr int kClients = 3;
    std::vector<super::JobResult> results(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            serve::ClientOptions co;
            co.endpoint = so.socketPath;
            results[c] = serve::runRemoteFleet(
                specs, tmpFile("serve_cc_r" + std::to_string(c)), co,
                super::JobOptions{});
        });
    }
    for (auto &t : clients)
        t.join();

    for (int c = 0; c < kClients; ++c) {
        ASSERT_TRUE(results[c].ok) << results[c].error;
        const std::string base = tmpFile("serve_cc_r" + std::to_string(c));
        for (std::size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(readFileBytes(super::fleetTracePath(base, i)),
                      readFileBytes(
                          super::fleetTracePath(localBase, i)))
                << "client " << c << " trace " << i;
        }
        EXPECT_EQ(str(readFileBytes(base + ".csv")),
                  replaceAll(str(localCsv), localBase, base));
    }
    auto st = server.stop();
    EXPECT_EQ(st.sessionsDone, specs.size() * kClients);
    EXPECT_EQ(st.connections, static_cast<u64>(kClients));
}

TEST(ServeProtocol, EveryHandshakeByteFlipIsARejection)
{
    serve::ServeOptions so;
    so.socketPath = tmpFile("serve_flip.sock");
    so.jobs = 1;
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    const std::vector<u8> good =
        serve::packFrame(serve::MsgType::Hello, serve::encodeHello());

    for (std::size_t flip = 0; flip < good.size(); ++flip) {
        std::vector<u8> frame = good;
        frame[flip] ^= 0xFF;
        int fd = connectUnix(so.socketPath);
        ASSERT_GE(fd, 0) << "server died before flip " << flip;
        ASSERT_TRUE(io::writeFull(fd, frame.data(), frame.size()));
        // No more bytes are coming: a flipped length that asks for a
        // bigger payload must resolve as a short read, not a hang.
        ::shutdown(fd, SHUT_WR);

        serve::MsgType type{};
        std::vector<u8> payload;
        auto r = serve::recvFrame(fd, type, payload);
        if (r.ok()) {
            // A structured rejection: the error frame names the
            // violated field, and the connection then closes.
            EXPECT_EQ(type, serve::MsgType::Error)
                << "flip " << flip << " got "
                << serve::msgTypeName(type);
            serve::ErrorMsg em;
            EXPECT_TRUE(serve::ErrorMsg::decode(payload, em).ok());
            EXPECT_FALSE(em.err.field.empty());
        }
        // Either way the server must close rather than misparse.
        u8 byte;
        while (io::readFull(fd, &byte, 1)) {
        }
        ::close(fd);
    }

    // The server survived 24 hostile clients: a well-formed session
    // still round-trips.
    auto specs = serveSpecs(1);
    serve::ClientOptions co;
    co.endpoint = so.socketPath;
    auto res = serve::runRemoteFleet(specs, tmpFile("serve_flip_ok"),
                                     co, super::JobOptions{});
    EXPECT_TRUE(res.ok) << res.error;

    auto st = server.stop();
    EXPECT_EQ(st.badFrames, good.size());
    EXPECT_EQ(st.sessionsDone, 1u);
}

TEST(ServeProtocol, HostileLengthIsRejectedBeforeAllocation)
{
    serve::ServeOptions so;
    so.socketPath = tmpFile("serve_len.sock");
    so.jobs = 1;
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // A header claiming a ~2 GiB payload. The server must reject it
    // from the length field alone — a structured "payloadLen" error,
    // no allocation, no waiting for bytes that will never come.
    BinWriter w;
    w.put32(serve::kFrameMagic);
    w.put32(static_cast<u32>(serve::MsgType::Hello));
    w.put32(0x7FFFFFFFu);
    w.put64(0);
    const std::vector<u8> hdr = w.takeBytes();

    int fd = connectUnix(so.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(io::writeFull(fd, hdr.data(), hdr.size()));

    serve::MsgType type{};
    std::vector<u8> payload;
    auto r = serve::recvFrame(fd, type, payload);
    ASSERT_TRUE(r.ok()) << r.message();
    ASSERT_EQ(type, serve::MsgType::Error);
    serve::ErrorMsg em;
    ASSERT_TRUE(serve::ErrorMsg::decode(payload, em).ok());
    EXPECT_EQ(em.err.field, "payloadLen");
    ::close(fd);

    auto st = server.stop();
    EXPECT_EQ(st.badFrames, 1u);
}

TEST(ServeProtocol, TruncatedSubmitPayloadIsAStructuredError)
{
    serve::ServeOptions so;
    so.socketPath = tmpFile("serve_trunc.sock");
    so.jobs = 1;
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    int fd = connectUnix(so.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::sendFrame(fd, serve::MsgType::Hello,
                                 serve::encodeHello()));
    serve::MsgType type{};
    std::vector<u8> payload;
    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::HelloOk);

    // A frame-valid Submit whose payload is cut mid-spec: framing
    // passes (checksum over the short bytes), structure must not.
    serve::SubmitMsg sub;
    sub.jobId = 1;
    sub.blockCapacity = 16;
    sub.spec = serveSpecs(1)[0];
    std::vector<u8> whole = sub.encode();
    whole.resize(whole.size() / 2);
    ASSERT_TRUE(serve::sendFrame(fd, serve::MsgType::Submit, whole));

    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::Error);
    serve::ErrorMsg em;
    ASSERT_TRUE(serve::ErrorMsg::decode(payload, em).ok());
    EXPECT_FALSE(em.err.field.empty());
    ::close(fd);
    server.stop();
}

TEST(AdmissionBackpressure, QueueFullEarnsStructuredBusy)
{
    serve::ServeOptions so;
    so.socketPath = tmpFile("serve_busy.sock");
    so.jobs = 1;
    so.maxSessions = 1; // one slot: the third submit must bounce
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    int fd = connectUnix(so.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::sendFrame(fd, serve::MsgType::Hello,
                                 serve::encodeHello()));
    serve::MsgType type{};
    std::vector<u8> payload;
    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::HelloOk);

    auto submit = [&](u64 jobId) {
        serve::SubmitMsg sub;
        sub.jobId = jobId;
        sub.blockCapacity = trace::kPackedDefaultBlockCapacity;
        sub.spec = serveSpecs(1)[0];
        // Long enough that job 1 is still running when the Busy
        // replies go out: its trace chunks must not overtake them.
        sub.spec.config.interactions = 8;
        ASSERT_TRUE(
            serve::sendFrame(fd, serve::MsgType::Submit, sub.encode()));
    };

    // Job 1 occupies the worker (give it time to dequeue), job 2
    // fills the queue's one slot, jobs 3 and 4 must earn Busy.
    submit(1);
    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::Accepted);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    submit(2);
    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::Accepted);
    submit(3);
    submit(4);

    unsigned busySeen = 0;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
        ASSERT_EQ(type, serve::MsgType::Busy);
        serve::BusyMsg busy;
        ASSERT_TRUE(serve::BusyMsg::decode(payload, busy).ok());
        EXPECT_EQ(busy.field, "queue");
        EXPECT_EQ(busy.reason, "queue full");
        EXPECT_TRUE(busy.jobId == 3 || busy.jobId == 4);
        ++busySeen;
    }
    EXPECT_EQ(busySeen, 2u);
    ::close(fd); // jobs 1 and 2 stream into a dead socket; fine

    auto st = server.stop();
    EXPECT_EQ(st.sessionsRejected, 2u);
}

TEST(AdmissionBackpressure, SessionTimeoutIsAStructuredError)
{
    serve::ServeOptions so;
    so.socketPath = tmpFile("serve_timeout.sock");
    so.jobs = 1;
    so.sessionTimeoutMs = 1; // every session blows this deadline
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    int fd = connectUnix(so.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::sendFrame(fd, serve::MsgType::Hello,
                                 serve::encodeHello()));
    serve::MsgType type{};
    std::vector<u8> payload;
    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::HelloOk);

    serve::SubmitMsg sub;
    sub.jobId = 1;
    sub.blockCapacity = trace::kPackedDefaultBlockCapacity;
    sub.spec = serveSpecs(1)[0];
    ASSERT_TRUE(
        serve::sendFrame(fd, serve::MsgType::Submit, sub.encode()));
    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::Accepted);

    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::Error);
    serve::ErrorMsg em;
    ASSERT_TRUE(serve::ErrorMsg::decode(payload, em).ok());
    EXPECT_EQ(em.err.field, "session");
    EXPECT_NE(em.err.reason.find("timeout"), std::string::npos)
        << em.err.reason;
    ::close(fd);

    auto st = server.stop();
    EXPECT_EQ(st.sessionsDone, 0u);
    EXPECT_EQ(st.sessionsFailed, 1u);
}

TEST(ServeStats, GaugesArePublishedAndScrapeable)
{
    serve::ServeOptions so;
    so.socketPath = tmpFile("serve_stats.sock");
    so.jobs = 1;
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // Run one session so sessions_per_sec has a numerator.
    serve::ClientOptions co;
    co.endpoint = so.socketPath;
    auto res = serve::runRemoteFleet(serveSpecs(1),
                                     tmpFile("serve_stats_out"), co,
                                     super::JobOptions{});
    ASSERT_TRUE(res.ok) << res.error;

    int fd = connectUnix(so.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::sendFrame(fd, serve::MsgType::Hello,
                                 serve::encodeHello()));
    serve::MsgType type{};
    std::vector<u8> payload;
    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::HelloOk);

    ASSERT_TRUE(serve::sendFrame(fd, serve::MsgType::Stats, {}));
    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::StatsOk);
    BinReader r(payload);
    const std::string json = r.getString();
    ASSERT_TRUE(r.ok());
    for (const char *gauge :
         {"serve.active_sessions", "serve.queue_depth",
          "serve.sessions_per_sec", "serve.bytes_streamed",
          "serve.rss"}) {
        EXPECT_NE(json.find(gauge), std::string::npos)
            << "missing " << gauge;
    }
    ::close(fd);
    server.stop();

    obs::Registry &reg = obs::Registry::global();
    EXPECT_GT(reg.gaugeValue("serve.bytes_streamed"), 0.0);
}

TEST(ServeShutdown, ClientShutdownFrameDrainsTheServer)
{
    serve::ServeOptions so;
    so.socketPath = tmpFile("serve_shut.sock");
    so.jobs = 1;
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    int fd = connectUnix(so.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::sendFrame(fd, serve::MsgType::Hello,
                                 serve::encodeHello()));
    serve::MsgType type{};
    std::vector<u8> payload;
    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::HelloOk);

    ASSERT_TRUE(serve::sendFrame(fd, serve::MsgType::Shutdown, {}));
    ASSERT_TRUE(serve::recvFrame(fd, type, payload).ok());
    ASSERT_EQ(type, serve::MsgType::ShutdownOk);
    ::close(fd);

    // The Shutdown frame requested the drain; waitDrained must now
    // complete without any local requestDrain call.
    auto st = server.waitDrained();
    EXPECT_TRUE(server.draining());
    EXPECT_EQ(st.connections, 1u);
}

TEST(ServeDrain, UnderLoadLeavesNoPartialsAndResumeFinishesByteIdentical)
{
    auto specs = serveSpecs(8);
    const std::string localBase = tmpFile("serve_drain_local");
    super::JobOptions ljo;
    ljo.jobs = 2;
    auto local = super::runFleetJob(specs, localBase, ljo);
    ASSERT_TRUE(local.ok) << local.error;
    auto localCsv = readFileBytes(localBase + ".csv");

    const std::string remoteBase = tmpFile("serve_drain_remote");
    const std::string journal = tmpFile("serve_drain.ptjl");
    const std::string sock1 = tmpFile("serve_drain1.sock");

    // This test asserts on file *absence* (no CSV while interrupted,
    // no .tmp litter), so artifacts surviving from a previous run of
    // the binary in the same temp dir would poison it: scrub first.
    std::remove(journal.c_str());
    std::remove((remoteBase + ".csv").c_str());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string trace = super::fleetTracePath(remoteBase, i);
        std::remove(trace.c_str());
        std::remove((trace + ".tmp").c_str());
    }

    serve::ServeOptions so;
    so.socketPath = sock1;
    so.jobs = 2;
    auto *server = new serve::Server(so);
    std::string err;
    ASSERT_TRUE(server->start(&err)) << err;

    super::JobResult res;
    std::thread client([&] {
        serve::ClientOptions co;
        co.endpoint = sock1;
        super::JobOptions jo;
        jo.journalPath = journal;
        res = serve::runRemoteFleet(specs, remoteBase, co, jo);
    });
    // Let some sessions land, then pull the rug.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server->requestDrain();
    client.join();
    server->waitDrained();
    delete server;

    // No partial artifacts: every surviving trace is finished and
    // byte-identical; no .tmp litter anywhere.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(
            readFileBytes(super::fleetTracePath(remoteBase, i) + ".tmp")
                .empty())
            << "partial .tmp survived for item " << i;
        auto remote =
            readFileBytes(super::fleetTracePath(remoteBase, i));
        if (!remote.empty()) {
            EXPECT_EQ(remote, readFileBytes(
                                  super::fleetTracePath(localBase, i)))
                << "trace " << i << " differs after drain";
        }
    }

    if (res.ok && !res.interrupted) {
        // The drain raced the final JobDone and everything finished:
        // the CSV must already match.
        EXPECT_EQ(str(readFileBytes(remoteBase + ".csv")),
                  replaceAll(str(localCsv), localBase, remoteBase));
        return;
    }
    ASSERT_TRUE(res.interrupted) << res.error;
    EXPECT_TRUE(readFileBytes(remoteBase + ".csv").empty())
        << "an interrupted run must not finalize the CSV";

    // A fresh server + `resume` completes the same bytes.
    const std::string sock2 = tmpFile("serve_drain2.sock");
    serve::ServeOptions so2;
    so2.socketPath = sock2;
    so2.jobs = 2;
    serve::Server server2(so2);
    ASSERT_TRUE(server2.start(&err)) << err;
    auto resumed =
        serve::resumeRemoteFleetJob(journal, sock2, super::JobOptions{});
    server2.stop();
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.super.itemsSkipped + resumed.super.itemsDone,
              specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(readFileBytes(super::fleetTracePath(remoteBase, i)),
                  readFileBytes(super::fleetTracePath(localBase, i)))
            << "trace " << i << " differs after resume";
    }
    EXPECT_EQ(str(readFileBytes(remoteBase + ".csv")),
              replaceAll(str(localCsv), localBase, remoteBase));
}

TEST(ServeProtocol, RemoteFleetJournalIsDetected)
{
    // The CLI's resume dispatch: remote-fleet journals route to the
    // serve client, local fleet journals to the supervisor.
    auto specs = serveSpecs(1);
    const std::string jpath = tmpFile("serve_kind.ptjl");
    serve::ServeOptions so;
    so.socketPath = tmpFile("serve_kind.sock");
    so.jobs = 1;
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    serve::ClientOptions co;
    co.endpoint = so.socketPath;
    super::JobOptions jo;
    jo.journalPath = jpath;
    auto res = serve::runRemoteFleet(specs, tmpFile("serve_kind_out"),
                                     co, jo);
    server.stop();
    ASSERT_TRUE(res.ok) << res.error;

    EXPECT_TRUE(serve::isRemoteFleetJournal(jpath));
    EXPECT_FALSE(serve::isRemoteFleetJournal(tmpFile("no_such.ptjl")));

    super::JournalData data;
    ASSERT_TRUE(super::loadJournal(jpath, data).ok());
    EXPECT_EQ(data.spec.kind, super::JobKind::RemoteFleet);
    EXPECT_STREQ(super::jobKindName(data.spec.kind), "remote-fleet");
    EXPECT_TRUE(data.hasFooter);
    EXPECT_EQ(data.footer.status, super::JobStatus::Complete);
    EXPECT_EQ(data.footer.outFnv, res.outFnv);

    // A finalized remote journal resumes to nothing-to-do without
    // touching the network (bad endpoint proves it).
    auto done = serve::resumeRemoteFleetJob(jpath, "tcp:1",
                                            super::JobOptions{});
    EXPECT_TRUE(done.ok);
    EXPECT_TRUE(done.nothingToDo);
}

/** Writes a journal holding @p spec and @p records, no footer — the
 *  state a crash leaves. */
void
writeJournal(const std::string &path, const super::JobSpec &spec,
             const std::vector<super::ItemRecord> &records)
{
    super::JournalWriter w;
    ASSERT_TRUE(w.open(path, spec));
    for (const super::ItemRecord &rec : records)
        ASSERT_TRUE(w.appendItem(rec));
}

/** Resumes @p path through the entry point its kind uses. */
super::JobResult
resumeAny(const std::string &path, super::JobKind kind)
{
    return kind == super::JobKind::RemoteFleet
               ? serve::resumeRemoteFleetJob(path, "", {})
               : super::resumeJob(path, {});
}

void
putLe32(std::vector<u8> &b, std::size_t at, u32 v)
{
    for (int k = 0; k < 4; ++k)
        b[at + k] = static_cast<u8>(v >> (8 * k));
}

TEST(JournalExtraMutation, HostileSpecCountIsAStructuredError)
{
    // A frame-valid journal whose spec count claims 2^32 - 1 specs
    // with no bytes behind it: the decoder must refuse before it
    // allocates, for the remote client and the local fleet alike.
    super::JobSpec spec;
    spec.totalItems = 1;
    for (super::JobKind kind :
         {super::JobKind::RemoteFleet, super::JobKind::Fleet}) {
        BinWriter w;
        if (kind == super::JobKind::RemoteFleet)
            w.putString(tmpFile("hostile.sock"));
        else
            w.put8(0);
        w.put32(0xFFFFFFFFu);
        spec.kind = kind;
        spec.sessionPath = tmpFile("hostile_out");
        spec.outPath = spec.sessionPath + ".csv";
        spec.extra = w.takeBytes();
        spec.bindFingerprint =
            fnv64(spec.extra.data(), spec.extra.size());
        const std::string path = tmpFile("hostile.ptjl");
        writeJournal(path, spec, {});

        auto res = resumeAny(path, kind);
        EXPECT_FALSE(res.ok);
        EXPECT_NE(res.error.find("specs.count"), std::string::npos)
            << super::jobKindName(kind) << ": " << res.error;
    }
}

TEST(JournalExtraMutation, EveryKindResumesOrFailsStructurally)
{
    // The reference run: a journalled local fleet.
    const auto specs = serveSpecs(2);
    const std::string base = tmpFile("mut_fleet");
    super::JobOptions jo;
    jo.jobs = 1;
    jo.journalPath = tmpFile("mut_fleet.ptjl");
    auto fleet = super::runFleetJob(specs, base, jo);
    ASSERT_TRUE(fleet.ok) << fleet.error;
    const std::vector<u8> fleetCsv = readFileBytes(base + ".csv");

    super::JournalData fleetData;
    ASSERT_TRUE(
        super::loadJournal(tmpFile("mut_fleet.ptjl"), fleetData).ok());

    // The remote client resumes the same fleet against a live server:
    // every item is intact on disk, so nothing is submitted.
    serve::ServeOptions so;
    so.socketPath = tmpFile("mut.sock");
    so.jobs = 1;
    serve::Server server(so);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    super::JobSpec remoteSpec = fleetData.spec;
    remoteSpec.kind = super::JobKind::RemoteFleet;
    remoteSpec.maxAttempts = 1;
    remoteSpec.extra = super::remoteFleetExtra(so.socketPath, specs);

    struct Kind
    {
        super::JobSpec spec;
        std::vector<super::ItemRecord> records;
        std::size_t countAt; ///< offset of the u32 count in extra
        u32 count;
        std::vector<u8> csv; ///< what an intact resume must rewrite
    };
    const std::vector<Kind> kinds = {
        {fleetData.spec, fleetData.records, 1, 2, fleetCsv},
        {remoteSpec, fleetData.records, 4 + so.socketPath.size(), 2,
         fleetCsv},
    };

    const std::string path = tmpFile("mut.ptjl");
    u64 cases = 0;
    auto check = [&](const Kind &k, std::vector<u8> extra,
                     const std::string &what) {
        super::JobSpec spec = k.spec;
        spec.extra = std::move(extra);
        // Both kinds bind the extra bytes themselves; recompute so
        // the mutation reaches the decoder instead of the binding.
        spec.bindFingerprint = fnv64(spec.extra.data(), spec.extra.size());
        writeJournal(path, spec, k.records);
        auto res = resumeAny(path, spec.kind);
        ++cases;
        if (res.ok) {
            EXPECT_EQ(readFileBytes(spec.outPath), k.csv)
                << super::jobKindName(spec.kind) << " " << what;
        } else {
            EXPECT_FALSE(res.error.empty())
                << super::jobKindName(spec.kind) << " " << what;
        }
        return res.ok;
    };

    for (const Kind &k : kinds) {
        const std::vector<u8> &extra = k.spec.extra;
        EXPECT_TRUE(check(k, extra, "intact"));
        for (std::size_t len = 0; len < extra.size(); ++len) {
            EXPECT_FALSE(check(k, {extra.begin(), extra.begin() + len},
                               "cut at " + std::to_string(len)));
        }
        for (u32 count : {0u, k.count - 1, k.count + 1, 0xFFFFFFFFu}) {
            std::vector<u8> mutated = extra;
            putLe32(mutated, k.countAt, count);
            EXPECT_FALSE(
                check(k, mutated, "count " + std::to_string(count)));
        }
        for (const Kind &other : kinds) {
            if (&other != &k)
                check(k, other.spec.extra, "spliced extra");
        }
    }
    server.stop();
    EXPECT_GT(cases, 3u * 4u);
}

} // namespace
} // namespace pt
