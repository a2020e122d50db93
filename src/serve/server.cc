#include "server.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "base/fdio.h"
#include "base/logging.h"
#include "base/threadpool.h"
#include "obs/hostmem.h"
#include "obs/registry.h"
#include "super/jobs.h"

#if !defined(_WIN32)
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

std::string
errnoStr()
{
    return std::strerror(errno ? errno : EIO);
}

} // namespace

Server::Connection::~Connection()
{
#if !defined(_WIN32)
    if (fd >= 0)
        ::close(fd);
#endif
}

Server::Server(ServeOptions o)
    : opts(std::move(o))
{
    if (!opts.jobs)
        opts.jobs = defaultJobs();
    if (!opts.maxSessions)
        opts.maxSessions = 64;
}

Server::~Server()
{
    if (started)
        stop();
}

bool
Server::start(std::string *errOut)
{
#if defined(_WIN32)
    if (errOut)
        *errOut = "palmtrace serve requires POSIX sockets";
    return false;
#else
    if (opts.socketPath.empty()) {
        if (errOut)
            *errOut = "a --socket path is required";
        return false;
    }

    // A peer that disappears mid-stream must surface as a write
    // error, not a process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts.socketPath.size() >= sizeof(addr.sun_path)) {
        if (errOut)
            *errOut = "socket path too long (max " +
                      std::to_string(sizeof(addr.sun_path) - 1) +
                      " bytes)";
        return false;
    }
    std::memcpy(addr.sun_path, opts.socketPath.c_str(),
                opts.socketPath.size() + 1);

    unixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unixFd < 0) {
        if (errOut)
            *errOut = "socket: " + errnoStr();
        return false;
    }
    ::unlink(opts.socketPath.c_str());
    if (::bind(unixFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(unixFd, 64) != 0) {
        if (errOut)
            *errOut = "bind " + opts.socketPath + ": " + errnoStr();
        ::close(unixFd);
        unixFd = -1;
        return false;
    }

    if (opts.tcpPort >= 0) {
        tcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcpFd < 0) {
            if (errOut)
                *errOut = "tcp socket: " + errnoStr();
            ::close(unixFd);
            unixFd = -1;
            return false;
        }
        int one = 1;
        ::setsockopt(tcpFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in tin{};
        tin.sin_family = AF_INET;
        tin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        tin.sin_port =
            htons(static_cast<unsigned short>(opts.tcpPort));
        if (::bind(tcpFd, reinterpret_cast<sockaddr *>(&tin),
                   sizeof(tin)) != 0 ||
            ::listen(tcpFd, 64) != 0) {
            if (errOut)
                *errOut = "tcp bind 127.0.0.1:" +
                          std::to_string(opts.tcpPort) + ": " +
                          errnoStr();
            ::close(tcpFd);
            ::close(unixFd);
            tcpFd = unixFd = -1;
            return false;
        }
        sockaddr_in bound{};
        socklen_t blen = sizeof(bound);
        if (::getsockname(tcpFd, reinterpret_cast<sockaddr *>(&bound),
                          &blen) == 0)
            boundTcpPort = ntohs(bound.sin_port);
    }

    startTime = std::chrono::steady_clock::now();
    started = true;

    acceptThreads.emplace_back([this] { acceptLoop(unixFd); });
    if (tcpFd >= 0)
        acceptThreads.emplace_back([this] { acceptLoop(tcpFd); });
    for (unsigned i = 0; i < opts.jobs; ++i)
        workerThreads.emplace_back([this] { workerLoop(); });
    monitorThread = std::thread([this] { monitorLoop(); });
    publishGauges();
    return true;
#endif
}

void
Server::requestDrain()
{
    drainFlag.store(true, std::memory_order_relaxed);
    queueCv.notify_all();
}

ServeStats
Server::stop()
{
    requestDrain();
    return waitDrained();
}

ServeStats
Server::waitDrained()
{
#if defined(_WIN32)
    return finalStats;
#else
    {
        std::unique_lock<std::mutex> lk(drainMutex);
        if (drained)
            return finalStats;
        if (joinerActive) {
            drainCv.wait(lk, [this] { return drained; });
            return finalStats;
        }
        joinerActive = true;
    }

    for (std::thread &t : acceptThreads)
        t.join();
    acceptThreads.clear();
    for (std::thread &t : workerThreads)
        t.join();
    workerThreads.clear();
    stopped.store(true, std::memory_order_relaxed);
    if (monitorThread.joinable())
        monitorThread.join();

    closeAllConnections();
    {
        std::lock_guard<std::mutex> lk(connMutex);
        for (std::thread &t : connThreads)
            t.join();
        connThreads.clear();
        conns.clear();
    }

    if (unixFd >= 0) {
        ::close(unixFd);
        unixFd = -1;
        ::unlink(opts.socketPath.c_str());
    }
    if (tcpFd >= 0) {
        ::close(tcpFd);
        tcpFd = -1;
    }

    publishGauges();
    ServeStats st;
    st.sessionsDone = sessionsDone.load();
    st.sessionsFailed = sessionsFailed.load();
    st.sessionsRejected = sessionsRejected.load();
    st.bytesStreamed = bytesStreamed.load();
    st.connections = connectionsSeen.load();
    st.badFrames = badFrames.load();
    {
        std::lock_guard<std::mutex> lk(drainMutex);
        finalStats = st;
        drained = true;
    }
    drainCv.notify_all();
    return st;
#endif
}

#if !defined(_WIN32)

void
Server::acceptLoop(int listenFd)
{
    for (;;) {
        if (draining())
            return;
        pollfd pfd{listenFd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 100);
        if (pr < 0 && errno != EINTR)
            return;
        if (pr <= 0 || !(pfd.revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conn->id = nextConnId.fetch_add(1);
        connectionsSeen.fetch_add(1);
        std::lock_guard<std::mutex> lk(connMutex);
        conns.push_back(conn);
        connThreads.emplace_back(
            [this, conn] { connectionLoop(conn); });
    }
}

bool
Server::sendOnConn(const ConnPtr &conn, MsgType type,
                   const std::vector<u8> &payload)
{
    std::lock_guard<std::mutex> lk(conn->writeMutex);
    if (!conn->alive.load(std::memory_order_relaxed))
        return false;
    if (sendFrame(conn->fd, type, payload))
        return true;
    conn->alive.store(false, std::memory_order_relaxed);
    ::shutdown(conn->fd, SHUT_RDWR);
    return false;
}

void
Server::connectionLoop(ConnPtr conn)
{
    // Handshake: the first frame must be a version-matched Hello.
    MsgType type;
    std::vector<u8> payload;
    if (auto r = recvFrame(conn->fd, type, payload); !r) {
        if (r.error().field != "eof") {
            badFrames.fetch_add(1);
            sendOnConn(conn, MsgType::Error,
                       ErrorMsg{0, r.error()}.encode());
        }
        conn->alive.store(false, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR);
        return;
    }
    u32 version = 0;
    if (type != MsgType::Hello ||
        !decodeHello(payload, version).ok() ||
        version != kProtocolVersion) {
        badFrames.fetch_add(1);
        sendOnConn(conn, MsgType::Error,
                   ErrorMsg{0,
                            {0, "hello",
                             "expected a version-" +
                                 std::to_string(kProtocolVersion) +
                                 " hello frame"}}
                       .encode());
        conn->alive.store(false, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR);
        return;
    }
    HelloOkMsg hello;
    hello.jobs = opts.jobs;
    hello.queueCapacity = opts.maxSessions;
    if (!sendOnConn(conn, MsgType::HelloOk, hello.encode()))
        return;

    for (;;) {
        if (auto r = recvFrame(conn->fd, type, payload); !r) {
            if (r.error().field != "eof") {
                badFrames.fetch_add(1);
                sendOnConn(conn, MsgType::Error,
                           ErrorMsg{0, r.error()}.encode());
            }
            break;
        }
        switch (type) {
          case MsgType::Submit: {
            SubmitMsg sub;
            if (auto r = SubmitMsg::decode(payload, sub); !r) {
                badFrames.fetch_add(1);
                sendOnConn(conn, MsgType::Error,
                           ErrorMsg{0, r.error()}.encode());
                goto out; // framing is fine but the job is garbage;
                          // drop the connection like any bad frame
            }
            if (draining()) {
                sessionsRejected.fetch_add(1);
                BusyMsg busy{sub.jobId, "server", "draining",
                             static_cast<u32>(queuedCount.load())};
                sendOnConn(conn, MsgType::Busy, busy.encode());
                break;
            }
            bool accepted = false;
            u32 depth = 0;
            {
                std::lock_guard<std::mutex> lk(queueMutex);
                if (queue.size() <
                    static_cast<std::size_t>(opts.maxSessions)) {
                    auto job = std::make_shared<Job>();
                    job->conn = conn;
                    job->jobId = sub.jobId;
                    job->blockCapacity = sub.blockCapacity;
                    job->spec = std::move(sub.spec);
                    queue.push_back(std::move(job));
                    queuedCount.store(queue.size());
                    depth = static_cast<u32>(queue.size());
                    accepted = true;
                } else {
                    depth = static_cast<u32>(queue.size());
                }
            }
            if (accepted) {
                queueCv.notify_one();
                publishGauges();
                sendOnConn(conn, MsgType::Accepted,
                           encodeJobRef(sub.jobId, depth));
            } else {
                sessionsRejected.fetch_add(1);
                BusyMsg busy{sub.jobId, "queue", "queue full", depth};
                sendOnConn(conn, MsgType::Busy, busy.encode());
            }
            break;
          }
          case MsgType::Cancel: {
            u64 jobId = 0;
            u32 ignored = 0;
            if (!decodeJobRef(payload, jobId, ignored).ok())
                break;
            JobPtr queuedVictim;
            {
                std::lock_guard<std::mutex> lk(queueMutex);
                for (auto it = queue.begin(); it != queue.end(); ++it) {
                    if ((*it)->conn == conn &&
                        (*it)->jobId == jobId) {
                        queuedVictim = *it;
                        queue.erase(it);
                        queuedCount.store(queue.size());
                        break;
                    }
                }
                if (!queuedVictim) {
                    for (const JobPtr &j : active) {
                        if (j->conn == conn && j->jobId == jobId)
                            j->cancel.requestCancel();
                    }
                }
            }
            if (queuedVictim) {
                sessionsFailed.fetch_add(1);
                sendOnConn(conn, MsgType::Error,
                           ErrorMsg{jobId,
                                    {0, "session", "cancelled"}}
                               .encode());
                publishGauges();
            }
            break;
          }
          case MsgType::Stats: {
            publishGauges();
            const std::string json =
                obs::Registry::global().toJson();
            BinWriter w;
            w.putString(json);
            sendOnConn(conn, MsgType::StatsOk, w.takeBytes());
            break;
          }
          case MsgType::Shutdown: {
            sendOnConn(conn, MsgType::ShutdownOk, {});
            requestDrain();
            break;
          }
          default: {
            badFrames.fetch_add(1);
            sendOnConn(
                conn, MsgType::Error,
                ErrorMsg{0,
                         {4, "type",
                          std::string("unexpected ") +
                              msgTypeName(type) +
                              " frame from a client"}}
                    .encode());
            goto out;
          }
        }
    }
out:
    conn->alive.store(false, std::memory_order_relaxed);
    ::shutdown(conn->fd, SHUT_RDWR);
}

void
Server::workerLoop()
{
    for (;;) {
        JobPtr job;
        {
            std::unique_lock<std::mutex> lk(queueMutex);
            queueCv.wait(lk, [this] {
                return !queue.empty() ||
                       drainFlag.load(std::memory_order_relaxed);
            });
            if (queue.empty()) {
                if (drainFlag.load(std::memory_order_relaxed))
                    return; // drained: admission is closed and the
                            // backlog is finished
                continue;
            }
            job = queue.front();
            queue.pop_front();
            queuedCount.store(queue.size());
            job->started = std::chrono::steady_clock::now();
            job->running.store(true, std::memory_order_relaxed);
            active.push_back(job);
            activeCount.store(active.size());
        }
        publishGauges();
        runJob(job);
        {
            std::lock_guard<std::mutex> lk(queueMutex);
            active.erase(std::find(active.begin(), active.end(), job));
            activeCount.store(active.size());
        }
        publishGauges();
    }
}

void
Server::runJob(const JobPtr &job)
{
    const std::string scratchBase =
        opts.scratchDir.empty() ? opts.socketPath
                                : opts.scratchDir + "/serve";
    const std::string tracePath =
        scratchBase + "-job-" +
        std::to_string(nextScratchId.fetch_add(1)) + ".ptpk";

    auto fail = [&](const std::string &field, const std::string &reason) {
        std::remove(tracePath.c_str());
        sessionsFailed.fetch_add(1);
        sendOnConn(job->conn, MsgType::Error,
                   ErrorMsg{job->jobId, {0, field, reason}}.encode());
    };

    if (job->cancel.cancelled()) {
        fail("session", "cancelled");
        return;
    }

    // The local fleet's item: the session is a pure function of its
    // spec, so the bytes streamed back are byte-identical to
    // `palmtrace fleet` on the same spec.
    super::FleetItemResult item = super::runFleetItem(
        job->spec, tracePath, job->blockCapacity, &job->cancel);
    if (!item.ok) {
        if (!job->cancel.cancelled())
            fail(item.field, item.reason);
        else if (job->timedOut.load(std::memory_order_relaxed))
            fail("session", "session timeout exceeded (" +
                                std::to_string(opts.sessionTimeoutMs) +
                                " ms)");
        else
            fail("session", "cancelled");
        return;
    }
    const JobDoneMsg done{item.measure, job->jobId, item.traceFnv};

    // Stream the finished trace back in framed chunks, then seal the
    // stream with the JobDone carrying the whole-file FNV.
    std::FILE *f = std::fopen(tracePath.c_str(), "rb");
    if (!f) {
        std::remove(tracePath.c_str());
        fail("trace", "cannot reopen " + tracePath);
        return;
    }
    std::vector<u8> chunk(kTraceChunkBytes);
    u64 offset = 0;
    bool sendOk = true;
    for (;;) {
        const std::size_t n =
            io::freadFull(chunk.data(), chunk.size(), f);
        if (n > 0 && sendOk) {
            sendOk = sendOnConn(
                job->conn, MsgType::TraceChunk,
                encodeTraceChunk(job->jobId, offset, chunk.data(), n));
            if (sendOk)
                bytesStreamed.fetch_add(n);
            offset += n;
        }
        if (n < chunk.size())
            break;
    }
    const bool readOk = std::ferror(f) == 0;
    std::fclose(f);
    std::remove(tracePath.c_str());
    if (!readOk) {
        fail("trace", "read error streaming " + tracePath);
        return;
    }
    if (sendOk)
        sendOnConn(job->conn, MsgType::JobDone, done.encode());
    sessionsDone.fetch_add(1);
    publishGauges();
}

void
Server::monitorLoop()
{
    while (!stopped.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (opts.sessionTimeoutMs > 0) {
            const auto now = std::chrono::steady_clock::now();
            std::lock_guard<std::mutex> lk(queueMutex);
            for (const JobPtr &j : active) {
                if (!j->running.load(std::memory_order_relaxed))
                    continue;
                const u64 elapsedMs = static_cast<u64>(
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(now - j->started)
                        .count());
                if (elapsedMs > opts.sessionTimeoutMs &&
                    !j->cancel.cancelled()) {
                    j->timedOut.store(true,
                                      std::memory_order_relaxed);
                    j->cancel.requestCancel();
                }
            }
        }
        publishGauges();
    }
}

void
Server::closeAllConnections()
{
    std::lock_guard<std::mutex> lk(connMutex);
    for (const ConnPtr &c : conns) {
        c->alive.store(false, std::memory_order_relaxed);
        ::shutdown(c->fd, SHUT_RDWR);
    }
}

#else // _WIN32 stubs: serve is POSIX-only.

void
Server::acceptLoop(int)
{}
void
Server::connectionLoop(ConnPtr)
{}
void
Server::workerLoop()
{}
void
Server::monitorLoop()
{}
void
Server::runJob(const JobPtr &)
{}
bool
Server::sendOnConn(const ConnPtr &, MsgType, const std::vector<u8> &)
{
    return false;
}
void
Server::closeAllConnections()
{}

#endif

void
Server::publishGauges()
{
    obs::Registry &reg = obs::Registry::global();
    reg.gauge("serve.active_sessions")
        .set(static_cast<double>(activeCount.load()));
    reg.gauge("serve.queue_depth")
        .set(static_cast<double>(queuedCount.load()));
    reg.gauge("serve.bytes_streamed")
        .set(static_cast<double>(bytesStreamed.load()));
    reg.gauge("serve.rss")
        .set(static_cast<double>(obs::residentSetBytes()));
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - startTime)
            .count();
    if (elapsed > 0) {
        reg.gauge("serve.sessions_per_sec")
            .set(static_cast<double>(sessionsDone.load()) / elapsed);
    }
}

} // namespace pt::serve
