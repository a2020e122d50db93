#include "artifactcheck.h"

#include <map>

#include "base/binio.h"
#include "device/checkpoint.h"
#include "device/snapshot.h"
#include "trace/activitylog.h"

namespace pt::validate
{

namespace
{

/** A parser registered by a higher layer, keyed by artifact magic. */
struct ExtraParser
{
    PayloadParser parse = nullptr;
    bool selfChecksummed = false;
};

std::map<u32, ExtraParser> &
extraParsers()
{
    static std::map<u32, ExtraParser> parsers;
    return parsers;
}

u32
sniffMagic(const std::vector<u8> &bytes)
{
    if (bytes.size() < 4)
        return 0;
    return static_cast<u32>(bytes[0]) |
           (static_cast<u32>(bytes[1]) << 8) |
           (static_cast<u32>(bytes[2]) << 16) |
           (static_cast<u32>(bytes[3]) << 24);
}

LoadResult
parsePayload(u32 magic, const std::vector<u8> &bytes)
{
    switch (magic) {
      case artifact::kLogMagic: {
        trace::ActivityLog log;
        return trace::ActivityLog::deserialize(bytes, log);
      }
      case artifact::kSnapshotMagic: {
        device::Snapshot snap;
        return device::Snapshot::deserialize(bytes, snap);
      }
      case artifact::kCheckpointMagic: {
        device::Checkpoint cp;
        return device::Checkpoint::deserialize(bytes, cp);
      }
      case artifact::kEpochPlanMagic:
        return LoadResult::fail(0, "magic",
                                "epoch plans belong to the retired "
                                "epoch-parallel replay; no command "
                                "reads them any more");
      default: {
        auto it = extraParsers().find(magic);
        if (it != extraParsers().end())
            return it->second.parse(bytes);
        return LoadResult::fail(0, "magic",
                                "unrecognized artifact magic");
      }
    }
}

} // namespace

void
registerPayloadParser(u32 magic, PayloadParser parser,
                      bool selfChecksummed)
{
    extraParsers()[magic] = {parser, selfChecksummed};
}

FsckReport
fsckArtifact(const std::string &path)
{
    FsckReport rep;
    rep.path = path;

    BinReader r({});
    if (auto res = BinReader::readFile(path, r); !res) {
        rep.result = res;
        rep.summary = path + ": CORRUPT — " + res.message();
        return rep;
    }
    std::vector<u8> bytes(r.remaining());
    r.getBytes(bytes.data(), bytes.size());
    rep.sizeBytes = bytes.size();

    u32 magic = sniffMagic(bytes);
    rep.kind = artifact::magicName(magic);

    // The header details are informational even when the payload
    // later fails, so record them before the full parse.
    artifact::FrameInfo fi;
    if (artifact::unframe(bytes, magic, fi)) {
        rep.version = fi.version;
        rep.checksummed = fi.checksummed;
    }
    // Formats with per-record integrity framing (the job journal)
    // never carry the whole-file checksum but still verify every byte
    // they parse.
    if (auto it = extraParsers().find(magic);
        it != extraParsers().end() && it->second.selfChecksummed)
        rep.checksummed = true;

    rep.result = parsePayload(magic, bytes);
    if (rep.clean()) {
        rep.summary = path + ": OK — " + rep.kind + ", format v" +
                      std::to_string(rep.version) + ", " +
                      std::to_string(rep.sizeBytes) + " bytes, " +
                      (rep.checksummed ? "checksum verified"
                                       : "legacy (no checksum), "
                                         "structurally valid");
    } else {
        rep.summary =
            path + ": CORRUPT — " + rep.kind + ", " +
            std::to_string(rep.sizeBytes) + " bytes: " +
            rep.result.message();
    }
    return rep;
}

} // namespace pt::validate
