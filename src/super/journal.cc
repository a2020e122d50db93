#include "journal.h"

#include <cerrno>
#include <cstring>

#include <sys/types.h>
#include <unistd.h>

#include "base/fnv.h"
#include "base/iohooks.h"
#include "validate/artifactcheck.h"

namespace pt::super
{

namespace
{

/** Record types inside a journal file. */
constexpr u32 kRecSpec = 1;
constexpr u32 kRecItem = 2;
constexpr u32 kRecFooter = 3;

/** Caps a resume will allocate for, far above any real job. */
constexpr u64 kMaxJournalItems = u64{1} << 24;
constexpr u64 kMaxRecordPayload = u64{1} << 28;

} // namespace

const char *
jobKindName(JobKind k)
{
    switch (k) {
      case JobKind::None:
        return "none";
      case JobKind::RetiredEpochRun:
        return "epoch-run";
      case JobKind::RetiredPackedSweep:
        return "packed-sweep";
      case JobKind::RetiredSessionBatch:
        return "session-batch";
      case JobKind::Fleet:
        return "fleet";
      case JobKind::RemoteFleet:
        return "remote-fleet";
    }
    return "?";
}

const char *
itemStateName(ItemState s)
{
    switch (s) {
      case ItemState::Pending:
        return "pending";
      case ItemState::Running:
        return "running";
      case ItemState::Done:
        return "done";
      case ItemState::Failed:
        return "failed";
      case ItemState::Quarantined:
        return "quarantined";
    }
    return "?";
}

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Complete:
        return "complete";
      case JobStatus::Degraded:
        return "degraded";
      case JobStatus::Interrupted:
        return "interrupted";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Record payloads

std::vector<u8>
JobSpec::serialize() const
{
    BinWriter w;
    w.put32(static_cast<u32>(kind));
    w.putString(sessionPath);
    w.putString({}); // the retired epoch run's plan path
    w.putString(outPath);
    w.put32(blockCapacity);
    w.put64(totalItems);
    w.put32(maxAttempts);
    w.put64(deadlineMs);
    w.put64(backoffSeed);
    w.put64(bindFingerprint);
    w.put32(jobs);
    w.put32(static_cast<u32>(extra.size()));
    w.putBytes(extra.data(), extra.size());
    return w.takeBytes();
}

LoadResult
JobSpec::deserialize(BinReader &r, JobSpec &out)
{
    u32 kind = r.get32();
    if (kind > static_cast<u32>(JobKind::RemoteFleet)) {
        return LoadResult::fail(r.offset(), "spec.kind",
                                "unknown job kind " +
                                    std::to_string(kind));
    }
    out.kind = static_cast<JobKind>(kind);
    out.sessionPath = r.getString();
    r.getString(); // the retired epoch run's plan path
    out.outPath = r.getString();
    out.blockCapacity = r.get32();
    out.totalItems = r.get64();
    out.maxAttempts = r.get32();
    out.deadlineMs = r.get64();
    out.backoffSeed = r.get64();
    out.bindFingerprint = r.get64();
    out.jobs = r.get32();
    u32 extraLen = r.get32();
    if (!r.ok() || extraLen > r.remaining()) {
        return LoadResult::fail(r.offset(), "spec",
                                "truncated job spec");
    }
    out.extra.resize(extraLen);
    r.getBytes(out.extra.data(), extraLen);
    if (out.totalItems > kMaxJournalItems) {
        return LoadResult::fail(r.offset(), "spec.totalItems",
                                "implausible item count " +
                                    std::to_string(out.totalItems));
    }
    return {};
}

std::vector<u8>
ItemRecord::serialize() const
{
    BinWriter w;
    w.put64(item);
    w.put8(static_cast<u8>(state));
    w.put32(attempt);
    w.putString(artifact);
    w.put64(artifactFnv);
    w.putString(error);
    w.put32(static_cast<u32>(blob.size()));
    w.putBytes(blob.data(), blob.size());
    return w.takeBytes();
}

LoadResult
ItemRecord::deserialize(BinReader &r, ItemRecord &out)
{
    out.item = r.get64();
    u8 state = r.get8();
    if (state > static_cast<u8>(ItemState::Quarantined)) {
        return LoadResult::fail(r.offset(), "item.state",
                                "unknown item state " +
                                    std::to_string(state));
    }
    out.state = static_cast<ItemState>(state);
    out.attempt = r.get32();
    out.artifact = r.getString();
    out.artifactFnv = r.get64();
    out.error = r.getString();
    u32 blobLen = r.get32();
    if (!r.ok() || blobLen > r.remaining()) {
        return LoadResult::fail(r.offset(), "item",
                                "truncated item record");
    }
    out.blob.resize(blobLen);
    r.getBytes(out.blob.data(), blobLen);
    return {};
}

std::vector<u8>
JournalFooter::serialize() const
{
    BinWriter w;
    w.put8(static_cast<u8>(status));
    w.put64(outFnv);
    w.putString(note);
    return w.takeBytes();
}

LoadResult
JournalFooter::deserialize(BinReader &r, JournalFooter &out)
{
    u8 status = r.get8();
    if (status > static_cast<u8>(JobStatus::Interrupted)) {
        return LoadResult::fail(r.offset(), "footer.status",
                                "unknown job status " +
                                    std::to_string(status));
    }
    out.status = static_cast<JobStatus>(status);
    out.outFnv = r.get64();
    out.note = r.getString();
    if (!r.ok())
        return LoadResult::fail(r.offset(), "footer",
                                "truncated footer");
    return {};
}

// ---------------------------------------------------------------------
// JournalWriter

JournalWriter::~JournalWriter()
{
    close();
}

bool
JournalWriter::open(const std::string &path, const JobSpec &spec,
                    std::string *errOut)
{
    std::lock_guard<std::mutex> lock(m);
    journalPath = path;
    errno = 0;
    if (io::checkFault(io::Op::Open, path).any()) {
        failed = true;
        if (errOut)
            *errOut = "open " + path + ": fault injected";
        return false;
    }
    file = std::fopen(path.c_str(), "wb");
    if (!file) {
        failed = true;
        if (errOut) {
            *errOut = "open " + path + ": " +
                      std::strerror(errno ? errno : EIO);
        }
        return false;
    }
    BinWriter h;
    h.put32(kJournalMagic);
    h.put32(kJournalVersion);
    if (std::fwrite(h.bytes().data(), 1, h.bytes().size(), file) !=
            h.bytes().size() ||
        std::fflush(file) != 0) {
        failed = true;
        if (errOut)
            *errOut = "write header " + path;
        return false;
    }
    if (!appendRecord(kRecSpec, spec.serialize())) {
        if (errOut)
            *errOut = "write job spec " + path;
        return false;
    }
    return true;
}

bool
JournalWriter::openAppend(const std::string &path, u64 validBytes,
                          std::string *errOut)
{
    std::lock_guard<std::mutex> lock(m);
    journalPath = path;
    errno = 0;
    if (io::checkFault(io::Op::Open, path).any()) {
        failed = true;
        if (errOut)
            *errOut = "open " + path + ": fault injected";
        return false;
    }
    // r+b keeps the valid prefix; the torn tail (if any) is cut off
    // by repositioning and truncating at the last valid boundary.
    file = std::fopen(path.c_str(), "r+b");
    if (!file) {
        failed = true;
        if (errOut) {
            *errOut = "open " + path + ": " +
                      std::strerror(errno ? errno : EIO);
        }
        return false;
    }
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    if (size > 0 && static_cast<u64>(size) > validBytes) {
        // The torn tail must physically go: appending after it would
        // leave unparseable garbage mid-file and poison every later
        // record. stdio cannot shorten a file, so use the POSIX call.
        std::fflush(file);
        if (::truncate(path.c_str(),
                       static_cast<off_t>(validBytes)) != 0) {
            failed = true;
            std::fclose(file);
            file = nullptr;
            if (errOut) {
                *errOut = "truncate torn tail of " + path + ": " +
                          std::strerror(errno ? errno : EIO);
            }
            return false;
        }
    }
    std::fseek(file, static_cast<long>(validBytes), SEEK_SET);
    return true;
}

bool
JournalWriter::appendItem(const ItemRecord &rec)
{
    std::lock_guard<std::mutex> lock(m);
    return appendRecord(kRecItem, rec.serialize());
}

bool
JournalWriter::appendFooter(const JournalFooter &f)
{
    std::lock_guard<std::mutex> lock(m);
    return appendRecord(kRecFooter, f.serialize());
}

bool
JournalWriter::appendRecord(u32 type, const std::vector<u8> &payload)
{
    // Caller holds m (open paths) or took it (append paths).
    if (!file || failed)
        return false;
    io::Fault wf = io::checkFault(io::Op::Write, journalPath);
    if (wf.any()) {
        if (wf.torn) {
            // A crash mid-append: half a frame lands. The loader
            // must drop exactly this tail.
            BinWriter w;
            w.put32(kJournalRecordMagic);
            w.put32(type);
            w.put64(payload.size());
            std::fwrite(w.bytes().data(), 1, w.bytes().size() / 2,
                        file);
            std::fflush(file);
        }
        failed = true;
        return false;
    }
    BinWriter w;
    w.put32(kJournalRecordMagic);
    w.put32(type);
    w.put64(payload.size());
    w.put64(fnv64(payload.data(), payload.size()));
    w.putBytes(payload.data(), payload.size());
    if (std::fwrite(w.bytes().data(), 1, w.bytes().size(), file) !=
            w.bytes().size() ||
        std::fflush(file) != 0 ||
        io::checkFault(io::Op::Flush, journalPath).any()) {
        failed = true;
        return false;
    }
    return true;
}

void
JournalWriter::close()
{
    std::lock_guard<std::mutex> lock(m);
    if (file) {
        std::fclose(file);
        file = nullptr;
    }
}

// ---------------------------------------------------------------------
// Loader

std::vector<ItemRecord>
JournalData::latestPerItem() const
{
    std::vector<ItemRecord> latest(
        static_cast<std::size_t>(spec.totalItems));
    for (std::size_t i = 0; i < latest.size(); ++i)
        latest[i].item = i;
    for (const ItemRecord &r : records) {
        if (r.item < spec.totalItems)
            latest[static_cast<std::size_t>(r.item)] = r;
    }
    return latest;
}

namespace
{

LoadResult
parseJournalBytes(std::vector<u8> bytes, JournalData &out)
{
    BinReader r(std::move(bytes));

    if (r.remaining() < 8) {
        return LoadResult::fail(0, "header",
                                "file too small for a journal header");
    }
    u32 magic = r.get32();
    if (magic != kJournalMagic) {
        return LoadResult::fail(0, "magic",
                                "not a job journal (bad magic)");
    }
    u32 version = r.get32();
    if (version != kJournalVersion) {
        return LoadResult::fail(4, "version",
                                "unsupported journal version " +
                                    std::to_string(version));
    }

    bool sawSpec = false;
    for (;;) {
        const std::size_t recStart = r.offset();
        if (r.remaining() == 0) {
            out.validBytes = recStart;
            break;
        }
        if (r.remaining() < kJournalRecordHeaderBytes) {
            // Torn tail: a crash landed mid-frame.
            out.validBytes = recStart;
            out.truncatedBytes = r.remaining();
            break;
        }
        u32 recMagic = r.get32();
        u32 type = r.get32();
        u64 len = r.get64();
        u64 sum = r.get64();
        if (recMagic != kJournalRecordMagic ||
            len > kMaxRecordPayload || len > r.remaining()) {
            // Torn or half-written frame — drop the tail. (A frame
            // whose bytes are intact but whose checksum fails below
            // is also a torn append: fflush ordering means nothing
            // ever follows a partially-written record.)
            out.validBytes = recStart;
            out.truncatedBytes =
                (r.remaining() + r.offset()) - recStart;
            break;
        }
        std::vector<u8> payload(static_cast<std::size_t>(len));
        r.getBytes(payload.data(), payload.size());
        if (fnv64(payload.data(), payload.size()) != sum) {
            out.validBytes = recStart;
            out.truncatedBytes =
                (r.remaining() + r.offset()) - recStart;
            break;
        }

        // A checksum-valid record that fails structural parsing is
        // real corruption, not a torn append.
        BinReader pr(std::move(payload));
        switch (type) {
          case kRecSpec: {
            if (sawSpec) {
                return LoadResult::fail(recStart, "record",
                                        "duplicate job spec record");
            }
            if (auto res = JobSpec::deserialize(pr, out.spec); !res)
                return LoadResult::nested(res, recStart, "spec.");
            sawSpec = true;
            break;
          }
          case kRecItem: {
            ItemRecord rec;
            if (auto res = ItemRecord::deserialize(pr, rec); !res)
                return LoadResult::nested(res, recStart, "item.");
            out.records.push_back(std::move(rec));
            break;
          }
          case kRecFooter: {
            JournalFooter f;
            if (auto res = JournalFooter::deserialize(pr, f); !res)
                return LoadResult::nested(res, recStart, "footer.");
            out.footer = std::move(f);
            out.hasFooter = true;
            break;
          }
          default:
            return LoadResult::fail(recStart, "record.type",
                                    "unknown record type " +
                                        std::to_string(type));
        }
        if (!sawSpec) {
            return LoadResult::fail(recStart, "record",
                                    "first record is not a job spec");
        }
    }
    if (!sawSpec) {
        return LoadResult::fail(8, "spec",
                                "journal holds no job spec record");
    }
    for (const ItemRecord &rec : out.records) {
        if (rec.item >= out.spec.totalItems) {
            return LoadResult::fail(0, "item.index",
                                    "item " + std::to_string(rec.item) +
                                        " out of range (job has " +
                                        std::to_string(
                                            out.spec.totalItems) +
                                        ")");
        }
    }
    return {};
}

} // namespace

LoadResult
loadJournal(const std::string &path, JournalData &out)
{
    BinReader r({});
    if (auto res = BinReader::readFile(path, r); !res)
        return res;
    std::vector<u8> bytes(r.remaining());
    r.getBytes(bytes.data(), bytes.size());
    return parseJournalBytes(std::move(bytes), out);
}

void
registerFsckParser()
{
    validate::registerPayloadParser(
        kJournalMagic,
        [](const std::vector<u8> &file) -> LoadResult {
            JournalData data;
            return parseJournalBytes(file, data);
        },
        /*selfChecksummed=*/true);
}

} // namespace pt::super
