/**
 * @file
 * Artifact integrity tests: the corruption contract. Every prefix
 * truncation and every single-bit flip of a framed artifact must be
 * rejected with a structured LoadError — never a crash, a hang, or a
 * silent success. Seed-era (version 1) unframed files must still load,
 * and `fsck` must pass clean files and fail corrupt ones with useful
 * diagnostics.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "base/artifact.h"
#include "base/binio.h"
#include "device/checkpoint.h"
#include "device/snapshot.h"
#include "fault/faultplan.h"
#include "trace/activitylog.h"
#include "validate/artifactcheck.h"

namespace pt
{
namespace
{

trace::ActivityLog
sampleLog()
{
    trace::ActivityLog log;
    for (u32 i = 0; i < 6; ++i) {
        trace::LogRecord r;
        r.tick = 100 + i * 7;
        r.rtc = 1000 + i;
        r.type = hacks::LogType::PenPoint;
        r.data = 1;
        r.isLong = true;
        r.extra = (static_cast<u32>(10 + i) << 16) | (20 + i);
        log.records.push_back(r);
    }
    trace::LogRecord key;
    key.tick = 200;
    key.rtc = 1010;
    key.type = hacks::LogType::Key;
    key.data = 0x0002;
    log.records.push_back(key);
    return log;
}

device::Snapshot
sampleSnapshot()
{
    device::Snapshot s;
    s.ram.assign(512, 0);
    s.ram[10] = 0xAB;
    s.ram[11] = 0xCD;
    s.ram[300] = 0x7F;
    s.rom.assign(256, 0);
    s.rom[0] = 0x4E;
    s.rom[1] = 0x75;
    s.rtcBase = 0x12345678;
    return s;
}

device::Checkpoint
sampleCheckpoint()
{
    device::Checkpoint c;
    c.memory = sampleSnapshot();
    for (int i = 0; i < 8; ++i) {
        c.cpu.d[i] = 0x1000u + static_cast<u32>(i);
        c.cpu.a[i] = 0x2000u + static_cast<u32>(i);
    }
    c.cpu.pc = 0x10C00400;
    c.cpu.sr = 0x2700;
    c.io.serialFifo = {0x41, 0x42};
    c.io.btnState = 0x0004;
    c.cycleCount = 123456789;
    c.nextPenSample = 333;
    return c;
}

/** Converts a framed (v2) artifact into its seed-era v1 byte layout:
 *  same magic and payload, version 1, no length/checksum fields. */
std::vector<u8>
asLegacyV1(const std::vector<u8> &v2)
{
    EXPECT_GE(v2.size(), 24u);
    std::vector<u8> v1(v2.begin(), v2.begin() + 4);
    v1.push_back(artifact::kLegacyVersion);
    v1.push_back(0);
    v1.push_back(0);
    v1.push_back(0);
    v1.insert(v1.end(), v2.begin() + 24, v2.end());
    return v1;
}

void
writeRaw(const std::string &path, const std::vector<u8> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

template <typename T>
using Deserializer = LoadResult (*)(const std::vector<u8> &, T &);

/** The corruption contract, checked exhaustively for one artifact:
 *  every prefix truncation and every single-bit flip must yield a
 *  structured failure. */
template <typename T>
void
expectAllCorruptionsRejected(const std::vector<u8> &bytes,
                             Deserializer<T> deserialize)
{
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        auto cut = fault::FaultPlan::truncatedAt(bytes, keep);
        T out;
        LoadResult res = deserialize(cut, out);
        ASSERT_FALSE(res.ok())
            << "truncation to " << keep << " bytes was accepted";
        ASSERT_FALSE(res.error().reason.empty());
    }
    for (std::size_t off = 0; off < bytes.size(); ++off) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            auto flipped =
                fault::FaultPlan::bitFlippedAt(bytes, off, bit);
            T out;
            LoadResult res = deserialize(flipped, out);
            ASSERT_FALSE(res.ok()) << "bit " << bit << " of byte "
                                   << off << " flipped undetected";
            ASSERT_FALSE(res.error().field.empty());
        }
    }
}

TEST(IntegrityFrame, RoundTripAndHeaderFields)
{
    std::vector<u8> payload = {1, 2, 3, 4, 5};
    auto framed = artifact::frame(artifact::kLogMagic, payload);
    ASSERT_EQ(framed.size(), 24u + payload.size());
    artifact::FrameInfo fi;
    ASSERT_TRUE(artifact::unframe(framed, artifact::kLogMagic, fi));
    EXPECT_EQ(fi.version, artifact::kFramedVersion);
    EXPECT_TRUE(fi.checksummed);
    EXPECT_EQ(fi.payloadOffset, 24u);
    EXPECT_EQ(fi.payloadLen, payload.size());

    // The wrong magic is named in the diagnostic.
    artifact::FrameInfo fi2;
    auto res = artifact::unframe(framed, artifact::kSnapshotMagic, fi2);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().field, "magic");
    EXPECT_NE(res.message().find("snapshot"), std::string::npos);
}

TEST(IntegrityLog, SerializeRoundTrip)
{
    trace::ActivityLog log = sampleLog();
    auto bytes = log.serialize();
    trace::ActivityLog back;
    ASSERT_TRUE(trace::ActivityLog::deserialize(bytes, back));
    ASSERT_EQ(back.records.size(), log.records.size());
    for (std::size_t i = 0; i < log.records.size(); ++i) {
        EXPECT_EQ(back.records[i].tick, log.records[i].tick);
        EXPECT_EQ(back.records[i].type, log.records[i].type);
        EXPECT_EQ(back.records[i].extra, log.records[i].extra);
    }
}

TEST(IntegrityLog, AllTruncationsAndBitFlipsRejected)
{
    auto bytes = sampleLog().serialize();
    expectAllCorruptionsRejected<trace::ActivityLog>(
        bytes, &trace::ActivityLog::deserialize);
}

TEST(IntegritySnapshot, AllTruncationsAndBitFlipsRejected)
{
    auto bytes = sampleSnapshot().serialize();
    expectAllCorruptionsRejected<device::Snapshot>(
        bytes, &device::Snapshot::deserialize);
}

TEST(IntegrityCheckpoint, AllTruncationsAndBitFlipsRejected)
{
    auto bytes = sampleCheckpoint().serialize();
    expectAllCorruptionsRejected<device::Checkpoint>(
        bytes, &device::Checkpoint::deserialize);
}

/** A checksum-valid framed snapshot whose RAM image claims
 *  @p ramSize bytes; the capacity check must fire before any RLE
 *  record is read (none follow). */
std::vector<u8>
snapshotClaimingRamSize(u32 ramSize)
{
    BinWriter w;
    w.put32(0x11223344); // rtcBase
    w.put32(ramSize);    // ram image size
    return artifact::frame(artifact::kSnapshotMagic, w.takeBytes());
}

TEST(IntegritySnapshot, OversizedRamImageRejectedStructured)
{
    // The seed-era loader let an oversized image through to
    // Bus::loadRam, which aborted the process. It must now be a
    // structured LoadError naming the field.
    device::Snapshot out;
    auto res = device::Snapshot::deserialize(
        snapshotClaimingRamSize(device::kRamSize + 1), out);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().field, "ram");
    EXPECT_NE(res.error().reason.find("capacity"), std::string::npos);
}

TEST(IntegritySnapshot, HostileRamSizeCannotDriveAllocation)
{
    // A ~4 GB claim is refused by the capacity check up front — it
    // must never reach an allocator.
    device::Snapshot out;
    auto res = device::Snapshot::deserialize(
        snapshotClaimingRamSize(0xFFFFFFFFu), out);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().field, "ram");
}

TEST(IntegritySnapshot, OversizedRomImageRejectedStructured)
{
    BinWriter w;
    w.put32(0);                    // rtcBase
    w.put32(0);                    // ram: empty image, no records
    w.put32(device::kRomSize + 1); // hostile ROM size
    device::Snapshot out;
    auto res = device::Snapshot::deserialize(
        artifact::frame(artifact::kSnapshotMagic, w.takeBytes()), out);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().field, "rom");
    EXPECT_NE(res.error().reason.find("capacity"), std::string::npos);
}

TEST(IntegritySnapshot, FullCapacityImagesStillAccepted)
{
    // Exactly-at-capacity sizes are legitimate (a real device dump).
    BinWriter w;
    w.put32(7);                // rtcBase
    w.put32(device::kRamSize); // ram: one maximal zero run
    w.put32(device::kRamSize);
    w.put32(0);
    w.put32(device::kRomSize); // rom: likewise
    w.put32(device::kRomSize);
    w.put32(0);
    device::Snapshot out;
    auto res = device::Snapshot::deserialize(
        artifact::frame(artifact::kSnapshotMagic, w.takeBytes()), out);
    ASSERT_TRUE(res.ok()) << res.error().reason;
    EXPECT_EQ(out.ram.size(), device::kRamSize);
    EXPECT_EQ(out.rom.size(), device::kRomSize);
}

TEST(IntegrityLog, SeededSmashRejected)
{
    auto bytes = sampleLog().serialize();
    for (u64 seed = 1; seed <= 64; ++seed) {
        fault::FaultPlan plan(seed);
        auto bad = plan.smashed(bytes, 3);
        if (bad == bytes)
            continue; // the smash may rewrite bytes with themselves
        trace::ActivityLog out;
        EXPECT_FALSE(trace::ActivityLog::deserialize(bad, out).ok())
            << "seed " << seed;
    }
}

TEST(IntegrityLog, TrailingGarbageRejected)
{
    auto bytes = sampleLog().serialize();
    bytes.push_back(0x00);
    trace::ActivityLog out;
    auto res = trace::ActivityLog::deserialize(bytes, out);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().field, "payloadLen");
}

TEST(IntegrityLegacy, V1LogStillLoads)
{
    trace::ActivityLog log = sampleLog();
    auto v1 = asLegacyV1(log.serialize());
    trace::ActivityLog back;
    ASSERT_TRUE(trace::ActivityLog::deserialize(v1, back));
    ASSERT_EQ(back.records.size(), log.records.size());
    EXPECT_EQ(back.records.back().data, log.records.back().data);

    // And through the file path, as a seed-era file on disk would.
    std::string path = testing::TempDir() + "/pt_legacy_log.bin";
    writeRaw(path, v1);
    trace::ActivityLog fromFile;
    ASSERT_TRUE(trace::ActivityLog::load(path, fromFile));
    EXPECT_EQ(fromFile.records.size(), log.records.size());
    std::remove(path.c_str());
}

TEST(IntegrityLegacy, V1SnapshotAndCheckpointStillLoad)
{
    device::Snapshot snap = sampleSnapshot();
    auto v1snap = asLegacyV1(snap.serialize());
    device::Snapshot backSnap;
    ASSERT_TRUE(device::Snapshot::deserialize(v1snap, backSnap));
    EXPECT_EQ(backSnap.fingerprint(), snap.fingerprint());

    device::Checkpoint cp = sampleCheckpoint();
    auto v1cp = asLegacyV1(cp.serialize());
    device::Checkpoint backCp;
    ASSERT_TRUE(device::Checkpoint::deserialize(v1cp, backCp));
    EXPECT_EQ(backCp.fingerprint(), cp.fingerprint());
}

TEST(IntegrityLegacy, TruncatedV1Rejected)
{
    auto v1 = asLegacyV1(sampleLog().serialize());
    // Legacy files carry no checksum, so rejection rests entirely on
    // strict structural parsing: every truncation must still fail.
    for (std::size_t keep = 0; keep < v1.size(); ++keep) {
        auto cut = fault::FaultPlan::truncatedAt(v1, keep);
        trace::ActivityLog out;
        EXPECT_FALSE(trace::ActivityLog::deserialize(cut, out).ok())
            << "legacy truncation to " << keep << " bytes accepted";
    }
}

TEST(IntegrityErrors, OffsetsAndFieldsAreMeaningful)
{
    auto bytes = sampleLog().serialize();
    // Flip one payload byte: the checksum catches it and names the
    // stored/computed values.
    auto bad = fault::FaultPlan::bitFlippedAt(bytes, 30, 0);
    trace::ActivityLog out;
    auto res = trace::ActivityLog::deserialize(bad, out);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().field, "payloadFnv");
    EXPECT_EQ(res.error().offset, 16u);
    EXPECT_NE(res.message().find("checksum mismatch"),
              std::string::npos);
}

TEST(IntegrityAtomicSave, FailureReportsContextAndLeavesNoFile)
{
    trace::ActivityLog log = sampleLog();
    std::string bad =
        testing::TempDir() + "/pt_no_such_dir/deep/log.bin";
    std::string err;
    EXPECT_FALSE(log.save(bad, &err));
    EXPECT_NE(err.find(bad), std::string::npos);
    EXPECT_FALSE(err.empty());
}

TEST(IntegrityAtomicSave, SuccessLeavesNoTempFile)
{
    trace::ActivityLog log = sampleLog();
    std::string path = testing::TempDir() + "/pt_atomic_log.bin";
    ASSERT_TRUE(log.save(path));
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);
    trace::ActivityLog back;
    EXPECT_TRUE(trace::ActivityLog::load(path, back));
    std::remove(path.c_str());
}

TEST(IntegrityFsck, CleanFilePasses)
{
    std::string path = testing::TempDir() + "/pt_fsck_clean.bin";
    ASSERT_TRUE(sampleLog().save(path));
    validate::FsckReport rep = validate::fsckArtifact(path);
    EXPECT_TRUE(rep.clean()) << rep.summary;
    EXPECT_EQ(rep.kind, "activity log");
    EXPECT_EQ(rep.version, artifact::kFramedVersion);
    EXPECT_TRUE(rep.checksummed);
    EXPECT_NE(rep.summary.find("OK"), std::string::npos);
    std::remove(path.c_str());
}

TEST(IntegrityFsck, CorruptAndMissingFilesFail)
{
    std::string path = testing::TempDir() + "/pt_fsck_bad.bin";
    auto bytes = sampleSnapshot().serialize();
    writeRaw(path, fault::FaultPlan::bitFlippedAt(bytes, 40, 3));
    validate::FsckReport rep = validate::fsckArtifact(path);
    EXPECT_FALSE(rep.clean());
    EXPECT_EQ(rep.kind, "snapshot");
    EXPECT_NE(rep.summary.find("CORRUPT"), std::string::npos);
    std::remove(path.c_str());

    validate::FsckReport missing = validate::fsckArtifact(
        testing::TempDir() + "/pt_fsck_missing.bin");
    EXPECT_FALSE(missing.clean());

    std::string junk = testing::TempDir() + "/pt_fsck_junk.bin";
    writeRaw(junk, {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4});
    validate::FsckReport unknown = validate::fsckArtifact(junk);
    EXPECT_FALSE(unknown.clean());
    EXPECT_EQ(unknown.kind, "unknown");
    std::remove(junk.c_str());
}

TEST(IntegrityFsck, RetiredEpochPlanIsAStructuredError)
{
    // Epoch plans ("PTEP") are still recognized by magic, so a file
    // left behind by an older build is named and refused, not parsed.
    std::string path = testing::TempDir() + "/pt_fsck_retired.ptep";
    writeRaw(path, artifact::frame(artifact::kEpochPlanMagic,
                                   {1, 2, 3, 4, 5, 6, 7, 8}));
    validate::FsckReport rep = validate::fsckArtifact(path);
    EXPECT_FALSE(rep.clean());
    EXPECT_EQ(rep.kind, "epoch plan");
    EXPECT_EQ(rep.result.error().field, "magic");
    EXPECT_NE(rep.summary.find("retired"), std::string::npos)
        << rep.summary;
    std::remove(path.c_str());
}

TEST(IntegrityFault, SeededPlansAreDeterministic)
{
    auto bytes = sampleLog().serialize();
    fault::FaultPlan a(42), b(42);
    EXPECT_EQ(a.truncated(bytes), b.truncated(bytes));
    EXPECT_EQ(a.bitFlipped(bytes), b.bitFlipped(bytes));
    EXPECT_EQ(a.smashed(bytes, 5), b.smashed(bytes, 5));
    fault::FaultPlan c(43);
    // A different seed corrupts differently (overwhelmingly likely).
    EXPECT_NE(a.truncated(bytes).size(), 0u);
    (void)c;
}

} // namespace
} // namespace pt
