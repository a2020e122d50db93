/**
 * @file
 * The chaos harness: hundreds of seeded fault schedules driven
 * through the supervised-job machinery, asserting the robustness
 * contract — every run ends in clean success, structured degradation
 * (quarantine), or a resumable journal state. Never a hang, never a
 * crash, never a silently wrong artifact.
 *
 * Two layers, 108 schedules total:
 *  - 100 supervisor schedules: file-writing items under seeded I/O
 *    faults (failed and torn atomic writes, including on the journal
 *    itself) plus seeded worker misbehaviour (throws, bad_alloc,
 *    heartbeat stalls caught by the watchdog, plain failures).
 *  - 8 fleet job schedules under seeded I/O faults, each checked
 *    byte-identical against a fault-free reference fleet (the CSV
 *    and every per-session trace) after resume.
 */

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/binio.h"
#include "base/iohooks.h"
#include "fault/chaos.h"
#include "super/jobs.h"
#include "super/journal.h"
#include "super/supervisor.h"
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

/** Installs an injector for one scope; uninstalls even on assert. */
class FaultScope
{
  public:
    explicit FaultScope(io::FaultInjector *inj)
    {
        io::setFaultInjector(inj);
    }
    ~FaultScope() { io::setFaultInjector(nullptr); }
};

// ---------------------------------------------------------------------
// Layer 1: supervisor schedules (I/O + worker fault matrix)

/** Deterministic artifact payload for (schedule, item). */
std::vector<u8>
artifactPayload(u64 schedule, u64 item)
{
    BinWriter w;
    for (u64 k = 0; k < 16; ++k)
        w.put64(schedule * 1'000'003 + item * 97 + k);
    return w.takeBytes();
}

TEST(ChaosHarness, SupervisorSchedulesTerminateCleanly)
{
    constexpr u64 kSchedules = 100;
    constexpr u64 kItems = 6;
    u64 resumableJournals = 0;
    u64 faultsInjected = 0;

    for (u64 schedule = 0; schedule < kSchedules; ++schedule) {
        SCOPED_TRACE("schedule " + std::to_string(schedule));
        const std::string dir =
            tmpFile("chaos_sup_" + std::to_string(schedule));
        const std::string journalPath = dir + ".ptjl";

        fault::IoFaultScript io;
        io.seedRandom(schedule, /*faultPerMille=*/60,
                      /*tornPerMille=*/300);
        fault::WorkerFaultScript workers(schedule,
                                         /*faultPerMille=*/250);
        std::vector<std::atomic<u32>> attempts(kItems);

        // The fault-free item body, also the resume pass below.
        auto cleanFn = [&](u64 i) {
            super::ItemOutcome out;
            const std::string path =
                dir + "." + std::to_string(i) + ".art";
            BinWriter w;
            std::vector<u8> payload = artifactPayload(schedule, i);
            w.putBytes(payload.data(), payload.size());
            if (!w.writeFile(path)) {
                out.error = "artifact write failed";
                return out;
            }
            out.ok = true;
            out.artifact = path;
            out.artifactFnv = super::fnvFile(path);
            return out;
        };
        // decide() keys on (item, attempt), so a retry of a
        // misbehaving attempt rolls a fresh decision and every
        // schedule terminates (or quarantines, which also counts).
        auto itemFn = [&](u64 i, CancelToken &tok) {
            u32 attempt = attempts[i].fetch_add(1);
            auto kind = workers.decide(i, attempt);
            fault::WorkerFaultScript::act(kind, tok,
                                          /*maxStallMs=*/3000);
            if (kind == fault::WorkerFaultScript::Kind::Fail) {
                super::ItemOutcome out;
                out.error = "scripted failure";
                return out;
            }
            if (tok.cancelled()) {
                super::ItemOutcome out;
                out.error = "stalled until cancelled";
                return out;
            }
            return cleanFn(i);
        };

        super::JournalWriter journal;
        super::JobSpec spec;
        spec.kind = super::JobKind::None;
        spec.totalItems = kItems;
        super::SuperOptions opts;
        opts.jobs = 1 + static_cast<unsigned>(schedule % 3);
        opts.maxAttempts = 3;
        opts.deadlineMs = 80;
        opts.watchdogPollMs = 10;
        opts.backoffBaseMs = 1;
        opts.backoffSeed = schedule;

        super::SuperResult res;
        {
            FaultScope scope(&io);
            bool journalOk = journal.open(journalPath, spec);
            opts.journal = journalOk ? &journal : nullptr;
            res = super::superviseItems(
                kItems,
                [&](u64 i, CancelToken &tok) {
                    return itemFn(i, tok);
                },
                opts);
            journal.close();
        }
        faultsInjected += io.injected();

        // Contract: no hang (we got here), no interruption (no global
        // cancel), every item accounted for.
        EXPECT_FALSE(res.interrupted);
        EXPECT_TRUE(res.ok);
        EXPECT_EQ(res.itemsDone + res.itemsQuarantined, kItems);

        // If the journal survived its own faults, it must be
        // resumable: parse it, skip verified Done items, and finish
        // the job fault-free.
        super::JournalData data;
        if (!super::loadJournal(journalPath, data).ok())
            continue; // journal lost to injected faults — no resume
        ++resumableJournals;
        std::vector<bool> skip(kItems, false);
        u64 expectSkipped = 0;
        for (const auto &rec : data.latestPerItem()) {
            if (rec.state != super::ItemState::Done)
                continue;
            bool readable = false;
            u64 f = super::fnvFile(rec.artifact, &readable);
            if (readable && f == rec.artifactFnv) {
                skip[static_cast<std::size_t>(rec.item)] = true;
                ++expectSkipped;
            }
        }
        super::SuperOptions cleanOpts;
        cleanOpts.jobs = 2;
        cleanOpts.skip = skip;
        auto clean = super::superviseItems(
            kItems,
            [&](u64 i, CancelToken &) { return cleanFn(i); },
            cleanOpts);
        EXPECT_FALSE(clean.interrupted);
        EXPECT_TRUE(clean.ok);
        EXPECT_EQ(clean.itemsQuarantined, 0u);
        EXPECT_EQ(clean.itemsSkipped, expectSkipped);
        EXPECT_EQ(clean.itemsSkipped + clean.itemsDone, kItems);
    }

    // The matrix must actually bite: most schedules journal, and the
    // seeded roll injects a healthy number of faults overall.
    EXPECT_GE(resumableJournals, kSchedules / 2);
    EXPECT_GT(faultsInjected, kSchedules);
}

// ---------------------------------------------------------------------
// Layer 2: fleet job schedules

std::vector<workload::SessionSpec>
chaosFleetSpecs()
{
    std::vector<workload::SessionSpec> specs(3);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].name = "chaos-" + std::to_string(i);
        specs[i].config.seed = 21 + i;
        specs[i].config.interactions = 2;
        specs[i].config.meanIdleTicks = 1'000;
    }
    return specs;
}

/** A fleet's artifacts: its CSV, with the output base replaced by a
 *  fixed token (the CSV names each trace by path), then every
 *  per-session trace. */
std::vector<std::vector<u8>>
fleetArtifacts(const std::string &base, std::size_t sessions)
{
    std::vector<std::vector<u8>> out;
    std::vector<u8> csv = readFileBytes(base + ".csv");
    std::string text(csv.begin(), csv.end());
    for (std::size_t at = 0;
         (at = text.find(base, at)) != std::string::npos;)
        text.replace(at, base.size(), "BASE");
    out.emplace_back(text.begin(), text.end());
    for (std::size_t i = 0; i < sessions; ++i)
        out.push_back(readFileBytes(super::fleetTracePath(base, i)));
    return out;
}

TEST(ChaosHarness, FleetJobSchedulesResumeByteIdentical)
{
    const auto specs = chaosFleetSpecs();

    // Fault-free reference fleet.
    const std::string refBase = tmpFile("chaos_fleet_ref");
    {
        super::JobOptions jo;
        jo.jobs = 2;
        auto ref = super::runFleetJob(specs, refBase, jo);
        ASSERT_TRUE(ref.ok) << ref.error;
    }
    const auto refBytes = fleetArtifacts(refBase, specs.size());
    for (const auto &bytes : refBytes)
        ASSERT_FALSE(bytes.empty());

    constexpr u64 kSchedules = 8;
    u64 clean = 0, resumed = 0;
    for (u64 schedule = 0; schedule < kSchedules; ++schedule) {
        SCOPED_TRACE("schedule " + std::to_string(schedule));
        const std::string base =
            tmpFile("chaos_fleet_" + std::to_string(schedule));
        const std::string journalPath = base + ".ptjl";

        fault::IoFaultScript io;
        io.seedRandom(schedule * 104'729 + 3, /*faultPerMille=*/25,
                      /*tornPerMille=*/400);
        super::JobOptions jo;
        jo.jobs = (schedule % 2) ? 2 : 1;
        jo.maxAttempts = 4;
        jo.backoffBaseMs = 1;
        jo.backoffSeed = schedule;
        jo.journalPath = journalPath;

        super::JobResult full;
        {
            FaultScope scope(&io);
            full = super::runFleetJob(specs, base, jo);
        }

        if (full.ok && !full.degraded) {
            EXPECT_EQ(fleetArtifacts(base, specs.size()), refBytes);
            ++clean;
            continue;
        }
        if (!full.ok) {
            EXPECT_FALSE(full.error.empty());
        }
        // Anything else must leave a resumable (or finalized)
        // journal; the fault-free resume must converge on the
        // reference bytes unless items were quarantined.
        super::JournalData data;
        if (!super::loadJournal(journalPath, data).ok())
            continue; // journal itself lost to faults
        auto r2 = super::resumeJob(journalPath, super::JobOptions{});
        EXPECT_TRUE(r2.ok || r2.nothingToDo) << r2.error;
        if (r2.ok && !r2.degraded && !r2.nothingToDo) {
            EXPECT_EQ(fleetArtifacts(base, specs.size()), refBytes);
            ++resumed;
        }
    }
    EXPECT_GT(clean + resumed, 0u)
        << "no schedule reached a checkable fleet";
}

} // namespace
} // namespace pt
