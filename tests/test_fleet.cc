/**
 * @file
 * Fleet-job tests: per-session packed traces must be byte-identical
 * at any job count, identical to a plain sequential replay of the
 * same spec, and identical across a crash/resume — the determinism
 * contract that makes fleet output trustworthy regardless of how the
 * work was scheduled.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fnv.h"
#include "core/palmsim.h"
#include "super/jobs.h"
#include "super/journal.h"
#include "trace/packedtrace.h"
#include "workload/sessionrunner.h"
#include "workload/usermodel.h"

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
fleetSpecs()
{
    std::vector<workload::SessionSpec> specs(3);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].name = "dev-" + std::to_string(i);
        specs[i].config.seed = 40 + i;
        specs[i].config.interactions = 3;
        specs[i].config.meanIdleTicks = 1'500;
    }
    return specs;
}

/** Replaces every occurrence of @p from in @p s with @p to. */
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

TEST(FleetJob, TracesByteIdenticalAcrossJobCounts)
{
    auto specs = fleetSpecs();
    const std::string baseA = tmpFile("fleet_j1");
    const std::string baseB = tmpFile("fleet_j3");

    super::JobOptions jo;
    jo.jobs = 1;
    auto one = super::runFleetJob(specs, baseA, jo);
    ASSERT_TRUE(one.ok) << one.error;

    jo.jobs = 3;
    auto many = super::runFleetJob(specs, baseB, jo);
    ASSERT_TRUE(many.ok) << many.error;

    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto a = readFileBytes(super::fleetTracePath(baseA, i));
        auto b = readFileBytes(super::fleetTracePath(baseB, i));
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "trace " << i
                        << " differs between --jobs 1 and --jobs 3";
    }

    // The CSVs differ only in the embedded trace paths.
    auto csvA = readFileBytes(baseA + ".csv");
    auto csvB = readFileBytes(baseB + ".csv");
    ASSERT_FALSE(csvA.empty());
    EXPECT_EQ(replaceAll(std::string(csvA.begin(), csvA.end()), baseA,
                         baseB),
              std::string(csvB.begin(), csvB.end()));
}

TEST(FleetJob, TraceMatchesPlainSequentialReplay)
{
    auto specs = fleetSpecs();
    const std::string base = tmpFile("fleet_seq");
    super::JobOptions jo;
    jo.jobs = 2;
    auto res = super::runFleetJob(specs, base, jo);
    ASSERT_TRUE(res.ok) << res.error;

    // Replay spec 1 by hand, streaming through the same packed writer
    // — the fleet trace must be exactly this, no scheduling artifacts.
    core::Session sess = core::PalmSimulator::collect(specs[1].config);
    const std::string ref = tmpFile("fleet_seq_ref.ptpk");
    trace::PackedTraceWriter writer(ref,
                                    trace::kPackedDefaultBlockCapacity);
    ASSERT_TRUE(writer.ok());
    trace::PackedWriterSink sink(writer);
    core::ReplayConfig cfg;
    cfg.extraRefSink = &sink;
    auto rr = core::PalmSimulator::replaySession(sess, cfg);
    ASSERT_FALSE(rr.replayStats.interrupted);
    ASSERT_TRUE(writer.close());

    EXPECT_EQ(readFileBytes(super::fleetTracePath(base, 1)),
              readFileBytes(ref));
}

TEST(FleetJob, SavedSessionsRoundTrip)
{
    auto specs = fleetSpecs();
    specs.resize(1);
    const std::string base = tmpFile("fleet_save");
    super::JobOptions jo;
    jo.jobs = 1;
    super::FleetOptions fo;
    fo.saveSessions = true;
    auto res = super::runFleetJob(specs, base, jo, fo);
    ASSERT_TRUE(res.ok) << res.error;

    core::Session back;
    ASSERT_TRUE(core::Session::load(base + "-session-0", back).ok());
    core::Session want = core::PalmSimulator::collect(specs[0].config);
    EXPECT_EQ(back.initialState.fingerprint(),
              want.initialState.fingerprint());
    EXPECT_EQ(back.finalState.fingerprint(),
              want.finalState.fingerprint());
}

TEST(FleetJob, ResumedRunIsByteIdentical)
{
    auto specs = fleetSpecs();
    const std::string base = tmpFile("fleet_resume");
    const std::string csv = base + ".csv";
    const std::string j1 = tmpFile("fleet_resume.ptjl");

    super::JobOptions jo;
    jo.jobs = 2;
    jo.journalPath = j1;
    auto full = super::runFleetJob(specs, base, jo);
    ASSERT_TRUE(full.ok) << full.error;
    std::vector<u8> refCsv = readFileBytes(csv);
    ASSERT_FALSE(refCsv.empty());
    std::vector<std::vector<u8>> refTraces;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        refTraces.push_back(
            readFileBytes(super::fleetTracePath(base, i)));
        ASSERT_FALSE(refTraces.back().empty());
    }

    // Craft the journal a crash after one Done item would leave, drop
    // the finalized CSV and the unfinished items' traces, and resume.
    super::JournalData data;
    ASSERT_TRUE(super::loadJournal(j1, data).ok());
    const std::string j2 = tmpFile("fleet_resume_partial.ptjl");
    {
        super::JournalWriter w;
        ASSERT_TRUE(w.open(j2, data.spec));
        for (const auto &rec : data.records) {
            if (rec.state == super::ItemState::Done && rec.item == 0) {
                ASSERT_TRUE(w.appendItem(rec));
                break;
            }
        }
    }
    std::remove(csv.c_str());
    for (std::size_t i = 1; i < specs.size(); ++i)
        std::remove(super::fleetTracePath(base, i).c_str());

    auto resumed = super::resumeJob(j2, super::JobOptions{});
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.super.itemsSkipped, 1u);
    EXPECT_EQ(resumed.super.itemsDone, specs.size() - 1);
    EXPECT_EQ(readFileBytes(csv), refCsv);
    EXPECT_EQ(resumed.outFnv, full.outFnv);
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(readFileBytes(super::fleetTracePath(base, i)),
                  refTraces[i])
            << "trace " << i << " differs after resume";

    // The finalized journal reports nothing left to do.
    auto done = super::resumeJob(j1, super::JobOptions{});
    EXPECT_TRUE(done.ok);
    EXPECT_TRUE(done.nothingToDo);
}

TEST(FleetJob, ResumeRefusesChangedSpecs)
{
    // The specs travel inside the journal and the binding fingerprint
    // covers their bytes: a journal whose specs changed after it was
    // written is refused, not resumed into a different fleet.
    BinWriter w;
    w.put8(0); // saveSessions
    w.put32(1);
    super::putSessionSpec(w, fleetSpecs()[0]);
    super::JobSpec spec;
    spec.kind = super::JobKind::Fleet;
    spec.sessionPath = tmpFile("fleet_changed");
    spec.outPath = spec.sessionPath + ".csv";
    spec.totalItems = 1;
    spec.extra = w.takeBytes();
    spec.bindFingerprint = fnv64(spec.extra.data(), spec.extra.size());
    spec.extra.back() ^= 1; // the last weight's top byte
    const std::string path = tmpFile("fleet_changed.ptjl");
    {
        super::JournalWriter jw;
        ASSERT_TRUE(jw.open(path, spec));
    }

    auto res = super::resumeJob(path, super::JobOptions{});
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("fingerprint"), std::string::npos)
        << res.error;
}

} // namespace
} // namespace pt
