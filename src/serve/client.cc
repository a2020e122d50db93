#include "client.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "base/fdio.h"
#include "base/fnv.h"
#include "serve/protocol.h"
#include "super/journal.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace pt::serve
{

namespace
{

#ifndef _WIN32

int
connectEndpoint(const std::string &endpoint, std::string &err)
{
    sockaddr_storage addr{};
    socklen_t len = 0;
    if (endpoint.rfind("tcp:", 0) == 0) {
        const int port = std::atoi(endpoint.c_str() + 4);
        if (port <= 0 || port > 65535) {
            err = "bad TCP endpoint '" + endpoint + "'";
            return -1;
        }
        auto *in = reinterpret_cast<sockaddr_in *>(&addr);
        in->sin_family = AF_INET;
        in->sin_port = htons(static_cast<u16>(port));
        in->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        len = sizeof(sockaddr_in);
    } else {
        auto *un = reinterpret_cast<sockaddr_un *>(&addr);
        if (endpoint.size() >= sizeof(un->sun_path)) {
            err = "socket path too long: " + endpoint;
            return -1;
        }
        un->sun_family = AF_UNIX;
        std::memcpy(un->sun_path, endpoint.c_str(), endpoint.size() + 1);
        len = sizeof(sockaddr_un);
    }
    const int fd = ::socket(addr.ss_family, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::strerror(errno);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), len) != 0) {
        err = "connect " + endpoint + ": " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Connects to @p endpoint and runs the version handshake: the
 *  connected fd with @p hello filled, or -1 with @p err set. */
int
openSession(const std::string &endpoint, HelloOkMsg &hello,
            std::string &err)
{
    const int fd = connectEndpoint(endpoint, err);
    if (fd < 0) {
        err = "cannot reach server: " + err;
        return -1;
    }
    MsgType type{};
    std::vector<u8> payload;
    if (!sendFrame(fd, MsgType::Hello, encodeHello())) {
        err = "cannot greet server: " + std::string(std::strerror(errno));
    } else if (auto r = recvFrame(fd, type, payload); !r) {
        err = "handshake failed: " + r.message();
    } else if (ErrorMsg em;
               type == MsgType::Error && ErrorMsg::decode(payload, em)) {
        err = "server refused handshake: " + em.err.field + ": " +
              em.err.reason;
    } else if (type != MsgType::HelloOk ||
               !HelloOkMsg::decode(payload, hello)) {
        err = "handshake failed: unexpected " +
              std::string(msgTypeName(type)) + " frame";
    } else if (hello.version != kProtocolVersion) {
        err = "server speaks protocol version " +
              std::to_string(hello.version) + ", not " +
              std::to_string(kProtocolVersion);
    } else {
        return fd;
    }
    ::close(fd);
    return -1;
}

/** One in-flight (or settled) fleet item on the client side. */
struct ItemCtx
{
    enum class Phase : u8
    {
        Pending,
        Submitted,
        Done,
        Failed,
        Skipped, ///< resume: intact artifact on disk
    };

    Phase phase = Phase::Pending;
    std::FILE *tmp = nullptr;
    std::string tmpPath;
    u64 expect = 0; ///< next expected stream offset
    std::string error;
};

bool
cancelled(const super::JobOptions &jo)
{
    return jo.globalCancel != nullptr && jo.globalCancel->cancelled();
}

/**
 * The shared engine behind runRemoteFleet and resumeRemoteFleetJob.
 * Submits every non-skipped spec (a bounded window in flight),
 * demultiplexes TraceChunk streams into per-item .tmp files, verifies
 * each finished trace's FNV-64 before renaming it into place, then
 * finalizes the local fleet's CSV. A drain, a connection loss, or
 * a cancel leaves finished traces plus a resumable journal — never a
 * partial artifact.
 */
super::JobResult
remoteFleetCore(const std::vector<workload::SessionSpec> &specs,
                const std::string &outBase, const std::string &endpoint,
                unsigned maxInflight, const super::JobSpec &spec,
                super::JournalWriter *journal, std::vector<bool> skip,
                const std::vector<super::ItemRecord> &prior,
                const super::JobOptions &jo)
{
    super::JobResult res;
    res.outPath = spec.outPath;
    const std::size_t n = specs.size();

    // A peer that drops the connection mid-write must surface as a
    // send failure, not a process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    HelloOkMsg hello;
    const int fd = openSession(endpoint, hello, res.error);
    if (fd < 0)
        return res;

    std::vector<ItemCtx> items(n);
    res.super.outcomes.resize(n);
    res.super.quarantined.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
        if (i < skip.size() && skip[i]) {
            items[i].phase = ItemCtx::Phase::Skipped;
            ++res.super.itemsSkipped;
        }
        items[i].tmpPath = super::fleetTracePath(outBase, i) + ".tmp";
    }

    // Failure-path bookkeeping, shared by every early exit: close and
    // remove any half-streamed .tmp so nothing partial survives.
    auto dropTmp = [&](ItemCtx &it) {
        if (it.tmp != nullptr) {
            std::fclose(it.tmp);
            it.tmp = nullptr;
        }
        std::remove(it.tmpPath.c_str());
    };
    auto failItem = [&](std::size_t i, const std::string &why) {
        ItemCtx &it = items[i];
        dropTmp(it);
        it.phase = ItemCtx::Phase::Failed;
        it.error = why;
        res.super.quarantined[i] = true;
        ++res.super.itemsQuarantined;
        res.super.outcomes[i].error = why;
        if (res.super.firstError.empty())
            res.super.firstError = why;
        if (journal != nullptr) {
            super::ItemRecord rec;
            rec.item = i;
            rec.state = super::ItemState::Quarantined;
            rec.attempt = 1;
            rec.error = why;
            journal->appendItem(rec);
        }
    };
    auto closeAll = [&]() {
        for (ItemCtx &it : items) {
            if (it.phase == ItemCtx::Phase::Submitted ||
                it.tmp != nullptr) {
                dropTmp(it);
            }
        }
        ::close(fd);
    };

    MsgType type{};
    std::vector<u8> payload;
    // Keep every worker fed without flooding the admission queue:
    // twice the pool width in flight is enough to hide the stream
    // round-trip, and Busy backpressure absorbs any overshoot.
    unsigned window = maxInflight != 0
                          ? maxInflight
                          : (hello.jobs > 0 ? hello.jobs * 2 : 2);
    if (window == 0)
        window = 1;

    std::size_t nextSubmit = 0;
    u64 inflight = 0;
    bool admissionOpen = true;
    bool drainSeen = false;
    bool connLost = false;
    std::string connError;

    auto pendingLeft = [&]() {
        for (std::size_t i = nextSubmit; i < n; ++i) {
            if (items[i].phase == ItemCtx::Phase::Pending)
                return true;
        }
        return false;
    };

    while (!cancelled(jo)) {
        // Submit up to the window while admission is open.
        while (admissionOpen && inflight < window &&
               nextSubmit < n && !cancelled(jo)) {
            if (items[nextSubmit].phase != ItemCtx::Phase::Pending) {
                ++nextSubmit;
                continue;
            }
            SubmitMsg sub;
            sub.jobId = static_cast<u64>(nextSubmit) + 1;
            sub.blockCapacity = spec.blockCapacity;
            sub.spec = specs[nextSubmit];
            if (!sendFrame(fd, MsgType::Submit, sub.encode())) {
                connLost = true;
                connError = "connection lost on submit: " +
                            std::string(std::strerror(errno));
                break;
            }
            items[nextSubmit].phase = ItemCtx::Phase::Submitted;
            ++inflight;
            ++nextSubmit;
        }
        if (connLost)
            break;
        if (inflight == 0) {
            if (!admissionOpen || !pendingLeft())
                break; // settled (or drained out)
            continue;
        }

        // Wait for traffic in short slices so a SIGINT lands fast.
        pollfd pfd{fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 100);
        if (pr < 0 && errno != EINTR) {
            connLost = true;
            connError = "poll: " + std::string(std::strerror(errno));
            break;
        }
        if (pr <= 0)
            continue;

        if (auto r = recvFrame(fd, type, payload); !r) {
            connLost = true;
            connError = "connection lost: " + r.message();
            break;
        }

        switch (type) {
          case MsgType::Accepted: {
            u64 jobId = 0;
            u32 depth = 0;
            decodeJobRef(payload, jobId, depth);
            break; // the queue took it; results will stream
          }
          case MsgType::Busy: {
            BusyMsg busy;
            if (!BusyMsg::decode(payload, busy) || busy.jobId == 0 ||
                busy.jobId > n) {
                connLost = true;
                connError = "malformed busy frame";
                break;
            }
            const std::size_t i =
                static_cast<std::size_t>(busy.jobId - 1);
            --inflight;
            if (busy.reason == "draining" ||
                busy.field == "server") {
                // The server is shutting down: stop submitting and
                // let in-flight jobs finish; the rest resumes later.
                admissionOpen = false;
                drainSeen = true;
                items[i].phase = ItemCtx::Phase::Pending;
            } else {
                // Queue full: back off briefly and resubmit.
                items[i].phase = ItemCtx::Phase::Pending;
                if (i < nextSubmit)
                    nextSubmit = i;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
            break;
          }
          case MsgType::TraceChunk: {
            TraceChunkHeader hdr;
            const u8 *data = nullptr;
            std::size_t len = 0;
            if (!decodeTraceChunk(payload, hdr, &data, &len) ||
                hdr.jobId == 0 || hdr.jobId > n) {
                connLost = true;
                connError = "malformed trace chunk";
                break;
            }
            const std::size_t i =
                static_cast<std::size_t>(hdr.jobId - 1);
            ItemCtx &it = items[i];
            if (it.phase != ItemCtx::Phase::Submitted ||
                !it.error.empty()) {
                break; // already failing; drain the stream
            }
            if (hdr.offset != it.expect) {
                it.error = "trace stream out of order";
                break;
            }
            if (it.tmp == nullptr) {
                it.tmp = std::fopen(it.tmpPath.c_str(), "wb");
                if (it.tmp == nullptr) {
                    it.error = "cannot open " + it.tmpPath + ": " +
                               std::strerror(errno);
                    break;
                }
            }
            if (io::fwriteFull(data, len, it.tmp) != len) {
                it.error = "write " + it.tmpPath + ": " +
                           std::strerror(errno);
                break;
            }
            it.expect += len;
            break;
          }
          case MsgType::JobDone: {
            JobDoneMsg done;
            if (!JobDoneMsg::decode(payload, done) ||
                done.jobId == 0 || done.jobId > n) {
                connLost = true;
                connError = "malformed job-done frame";
                break;
            }
            const std::size_t i =
                static_cast<std::size_t>(done.jobId - 1);
            ItemCtx &it = items[i];
            --inflight;
            if (!it.error.empty()) {
                failItem(i, it.error);
                break;
            }
            if (it.tmp == nullptr) {
                failItem(i, "job finished without streaming a trace");
                break;
            }
            if (std::fclose(it.tmp) != 0) {
                it.tmp = nullptr;
                failItem(i, "close " + it.tmpPath + ": " +
                                std::strerror(errno));
                break;
            }
            it.tmp = nullptr;
            if (it.expect != done.traceBytes) {
                failItem(i, "trace stream short: got " +
                                std::to_string(it.expect) + " of " +
                                std::to_string(done.traceBytes) +
                                " bytes");
                break;
            }
            bool fnvOk = false;
            const u64 f = super::fnvFile(it.tmpPath, &fnvOk);
            if (!fnvOk || f != done.traceFnv) {
                failItem(i, "trace checksum mismatch after "
                            "streaming");
                break;
            }
            const std::string finalPath =
                super::fleetTracePath(outBase, i);
            if (std::rename(it.tmpPath.c_str(),
                            finalPath.c_str()) != 0) {
                failItem(i, "rename " + finalPath + ": " +
                                std::strerror(errno));
                break;
            }
            it.phase = ItemCtx::Phase::Done;
            ++res.super.itemsDone;
            super::ItemOutcome &oc = res.super.outcomes[i];
            oc.ok = true;
            oc.artifact = finalPath;
            oc.artifactFnv = done.traceFnv;
            oc.blob = done.blob();
            if (journal != nullptr) {
                super::ItemRecord rec;
                rec.item = i;
                rec.state = super::ItemState::Done;
                rec.attempt = 1;
                rec.artifact = finalPath;
                rec.artifactFnv = done.traceFnv;
                rec.blob = oc.blob;
                journal->appendItem(rec);
            }
            break;
          }
          case MsgType::Error: {
            ErrorMsg em;
            if (!ErrorMsg::decode(payload, em)) {
                connLost = true;
                connError = "malformed error frame";
                break;
            }
            if (em.jobId == 0 || em.jobId > n) {
                // Connection-scoped error: the server rejected our
                // framing; nothing else will arrive.
                connLost = true;
                connError = "server error: " + (em.err.field + ": " + em.err.reason);
                break;
            }
            const std::size_t i =
                static_cast<std::size_t>(em.jobId - 1);
            --inflight;
            failItem(i, "server: " + (em.err.field + ": " + em.err.reason));
            break;
          }
          default:
            connLost = true;
            connError = "unexpected " +
                        std::string(msgTypeName(type)) + " frame";
            break;
        }
        if (connLost)
            break;
    }

    const bool wasCancelled = cancelled(jo);
    if (wasCancelled) {
        // Best-effort server-side cancellation, then stop reading:
        // half-streamed tmps are dropped; the journal resumes them.
        for (std::size_t i = 0; i < n; ++i) {
            if (items[i].phase == ItemCtx::Phase::Submitted) {
                sendFrame(fd, MsgType::Cancel,
                          encodeJobRef(static_cast<u64>(i) + 1));
            }
        }
    }
    if (wasCancelled || drainSeen || connLost) {
        closeAll();
        if (journal != nullptr) {
            journal->appendFooter({super::JobStatus::Interrupted, 0,
                                   connLost ? connError : "interrupted"});
        }
        res.interrupted = !connLost;
        res.super.interrupted = res.interrupted;
        if (connLost)
            res.error = connError;
        return res; // finished traces stay for the resume
    }
    ::close(fd);

    // Settled: every item is Done, skipped or quarantined, so the
    // local fleet's CSV renders byte-for-byte.
    res.super.ok = true;
    return super::finishCsv(res, journal,
                            super::fleetCsv(specs, outBase, res.super,
                                            prior));
}

#endif // !_WIN32

} // namespace

#ifndef _WIN32

super::JobResult
runRemoteFleet(const std::vector<workload::SessionSpec> &specs,
               const std::string &outBase, const ClientOptions &co,
               const super::JobOptions &jo)
{
    super::JobResult res;
    res.outPath = outBase + ".csv";

    super::JobSpec spec;
    spec.kind = super::JobKind::RemoteFleet;
    spec.sessionPath = outBase;
    spec.outPath = res.outPath;
    spec.blockCapacity = jo.blockCapacity;
    spec.totalItems = specs.size();
    spec.maxAttempts = 1;
    spec.backoffSeed = jo.backoffSeed;
    spec.jobs = co.maxInflight;
    spec.extra = super::remoteFleetExtra(co.endpoint, specs);
    spec.bindFingerprint =
        fnv64(spec.extra.data(), spec.extra.size());

    super::JournalWriter journal;
    super::JournalWriter *jptr;
    if (!super::openJobJournal(journal, jptr, jo.journalPath, spec, res))
        return res;
    return remoteFleetCore(specs, outBase, co.endpoint, co.maxInflight,
                           spec, jptr, {}, {}, jo);
}

super::JobResult
resumeRemoteFleetJob(const std::string &journalPath,
                     const std::string &endpointOverride,
                     const super::JobOptions &jo)
{
    super::JobResult res;
    super::JournalData data;
    if (!super::loadResumable(journalPath, data, res))
        return res;
    if (data.spec.kind != super::JobKind::RemoteFleet) {
        res.error = "journal records a " +
                    std::string(super::jobKindName(data.spec.kind)) +
                    " job, not a remote fleet";
        return res;
    }

    std::string endpoint;
    std::vector<workload::SessionSpec> specs;
    if (!super::remoteFleetSpecs(data.spec, endpoint, specs, res))
        return res;
    if (!endpointOverride.empty())
        endpoint = endpointOverride;

    super::ResumeState rs;
    super::beginFleetResume(rs, journalPath, data, jo);
    // The in-flight window stays the journalled one: jo.jobs sizes a
    // local pool, which a remote run does not have.
    return remoteFleetCore(specs, data.spec.sessionPath, endpoint,
                           data.spec.jobs, rs.spec, rs.jptr,
                           std::move(rs.skip), rs.latest, jo);
}

#else // _WIN32

super::JobResult
runRemoteFleet(const std::vector<workload::SessionSpec> &,
               const std::string &, const ClientOptions &,
               const super::JobOptions &)
{
    super::JobResult res;
    res.error = "palmtrace serve is not supported on this platform";
    return res;
}

super::JobResult
resumeRemoteFleetJob(const std::string &, const std::string &,
                     const super::JobOptions &)
{
    super::JobResult res;
    res.error = "palmtrace serve is not supported on this platform";
    return res;
}

#endif // _WIN32

bool
isRemoteFleetJournal(const std::string &journalPath)
{
    super::JournalData data;
    if (!super::loadJournal(journalPath, data))
        return false;
    return data.spec.kind == super::JobKind::RemoteFleet;
}

} // namespace pt::serve
