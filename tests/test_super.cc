/**
 * @file
 * Supervised-job tests: journal round-trip and torn-tail contracts,
 * the supervisor's retry/quarantine/watchdog/cancel behaviors, and
 * the tentpole theorem — a resumed job's output is byte-identical to
 * an uninterrupted run's (packed cache sweep; the fleet's proof
 * lives in test_fleet.cc) — plus the structured refusals of journals
 * a resume must not run.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/fnv.h"
#include "cache/cache.h"
#include "super/jobs.h"
#include "super/journal.h"
#include "super/supervisor.h"
#include "trace/packedtrace.h"
#include "validate/artifactcheck.h"

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

void
appendRawBytes(const std::string &path, const std::vector<u8> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

super::JobSpec
sampleSpec()
{
    super::JobSpec spec;
    spec.kind = super::JobKind::PackedSweep;
    spec.sessionPath = "trace.ptpk";
    spec.outPath = "sweep.csv";
    spec.blockCapacity = 4096;
    spec.totalItems = 4;
    spec.maxAttempts = 2;
    spec.deadlineMs = 1500;
    spec.backoffSeed = 7;
    spec.bindFingerprint = 0xABCDEF0123456789ull;
    spec.jobs = 2;
    spec.extra = {1, 2, 3, 4, 5};
    return spec;
}

// ---------------------------------------------------------------------
// Backoff

TEST(Backoff, DeterministicSeededExponential)
{
    // Pure function of (base, seed, item, attempt).
    u64 a = super::backoffDelayMs(25, 1, 3, 2);
    EXPECT_EQ(a, super::backoffDelayMs(25, 1, 3, 2));

    // Exponential base part plus jitter strictly below base.
    for (u32 attempt = 0; attempt < 6; ++attempt) {
        u64 d = super::backoffDelayMs(25, 9, 0, attempt);
        EXPECT_GE(d, u64{25} << attempt);
        EXPECT_LT(d, (u64{25} << attempt) + 25);
    }

    // Different seeds and items move the jitter.
    EXPECT_EQ(super::backoffDelayMs(0, 1, 0, 4), 0u);

    // The exponent is capped so huge attempt numbers can't overflow
    // into a near-infinite wait.
    EXPECT_EQ(super::backoffDelayMs(25, 1, 0, 40) & ~u64{31},
              super::backoffDelayMs(25, 1, 0, 10) & ~u64{31});
}

// ---------------------------------------------------------------------
// Journal

TEST(Journal, RoundTripPreservesEverything)
{
    const std::string path = tmpFile("journal_rt.ptjl");
    super::JobSpec spec = sampleSpec();

    super::JournalWriter w;
    ASSERT_TRUE(w.open(path, spec));
    ASSERT_TRUE(w.appendItem({0, super::ItemState::Running, 0,
                              {}, 0, {}, {}}));
    ASSERT_TRUE(w.appendItem({0, super::ItemState::Done, 0,
                              "shard.0", 0x1111, {}, {9, 9, 9}}));
    ASSERT_TRUE(w.appendItem({1, super::ItemState::Failed, 0,
                              {}, 0, "io fault", {}}));
    ASSERT_TRUE(w.appendItem({1, super::ItemState::Quarantined, 1,
                              {}, 0, "io fault", {}}));
    ASSERT_TRUE(w.appendFooter(
        {super::JobStatus::Degraded, 0x2222, "one bad item"}));
    w.close();

    super::JournalData data;
    LoadResult res = super::loadJournal(path, data);
    ASSERT_TRUE(res.ok()) << res.message();

    EXPECT_EQ(data.spec.kind, spec.kind);
    EXPECT_EQ(data.spec.sessionPath, spec.sessionPath);
    EXPECT_EQ(data.spec.outPath, spec.outPath);
    EXPECT_EQ(data.spec.totalItems, spec.totalItems);
    EXPECT_EQ(data.spec.maxAttempts, spec.maxAttempts);
    EXPECT_EQ(data.spec.deadlineMs, spec.deadlineMs);
    EXPECT_EQ(data.spec.backoffSeed, spec.backoffSeed);
    EXPECT_EQ(data.spec.bindFingerprint, spec.bindFingerprint);
    EXPECT_EQ(data.spec.extra, spec.extra);

    ASSERT_EQ(data.records.size(), 4u);
    EXPECT_EQ(data.records[1].state, super::ItemState::Done);
    EXPECT_EQ(data.records[1].artifact, "shard.0");
    EXPECT_EQ(data.records[1].artifactFnv, 0x1111u);
    EXPECT_EQ(data.records[1].blob, (std::vector<u8>{9, 9, 9}));
    EXPECT_EQ(data.records[3].error, "io fault");

    ASSERT_TRUE(data.hasFooter);
    EXPECT_EQ(data.footer.status, super::JobStatus::Degraded);
    EXPECT_EQ(data.footer.outFnv, 0x2222u);
    EXPECT_EQ(data.footer.note, "one bad item");
    EXPECT_EQ(data.truncatedBytes, 0u);

    // latestPerItem: last record per item wins, untouched items are
    // Pending.
    auto latest = data.latestPerItem();
    ASSERT_EQ(latest.size(), 4u);
    EXPECT_EQ(latest[0].state, super::ItemState::Done);
    EXPECT_EQ(latest[1].state, super::ItemState::Quarantined);
    EXPECT_EQ(latest[2].state, super::ItemState::Pending);
    EXPECT_EQ(latest[3].state, super::ItemState::Pending);
}

TEST(Journal, TornTailDroppedThenAppendResumes)
{
    const std::string path = tmpFile("journal_torn.ptjl");
    super::JobSpec spec = sampleSpec();
    {
        super::JournalWriter w;
        ASSERT_TRUE(w.open(path, spec));
        ASSERT_TRUE(w.appendItem({0, super::ItemState::Done, 0,
                                  "a", 1, {}, {}}));
    }

    // A crash mid-append: half a record frame lands at the tail.
    BinWriter torn;
    torn.put32(super::kJournalRecordMagic);
    torn.put32(2);
    appendRawBytes(path, torn.takeBytes());

    super::JournalData data;
    LoadResult res = super::loadJournal(path, data);
    ASSERT_TRUE(res.ok()) << res.message();
    ASSERT_EQ(data.records.size(), 1u);
    EXPECT_FALSE(data.hasFooter);
    EXPECT_GT(data.truncatedBytes, 0u);

    // openAppend truncates the torn tail and appends on the valid
    // boundary; the reloaded journal is whole again.
    {
        super::JournalWriter w;
        std::string err;
        ASSERT_TRUE(w.openAppend(path, data.validBytes, &err)) << err;
        ASSERT_TRUE(w.appendItem({1, super::ItemState::Done, 0,
                                  "b", 2, {}, {}}));
        ASSERT_TRUE(w.appendFooter(
            {super::JobStatus::Complete, 3, {}}));
    }
    super::JournalData again;
    res = super::loadJournal(path, again);
    ASSERT_TRUE(res.ok()) << res.message();
    EXPECT_EQ(again.records.size(), 2u);
    EXPECT_TRUE(again.hasFooter);
    EXPECT_EQ(again.truncatedBytes, 0u);
}

TEST(Journal, ChecksumMismatchTreatedAsTornTail)
{
    const std::string path = tmpFile("journal_sum.ptjl");
    {
        super::JournalWriter w;
        ASSERT_TRUE(w.open(path, sampleSpec()));
        ASSERT_TRUE(w.appendItem({0, super::ItemState::Done, 0,
                                  "a", 1, {}, {}}));
    }
    // Flip the last payload byte: the frame is intact but the
    // checksum no longer matches — by the append-flush ordering that
    // can only be a torn append, so the loader drops the record.
    std::vector<u8> bytes = readFileBytes(path);
    ASSERT_FALSE(bytes.empty());
    bytes.back() ^= 0xFF;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);

    super::JournalData data;
    LoadResult res = super::loadJournal(path, data);
    ASSERT_TRUE(res.ok()) << res.message();
    EXPECT_EQ(data.records.size(), 0u);
    EXPECT_GT(data.truncatedBytes, 0u);
}

TEST(Journal, StructurallyCorruptRecordRejected)
{
    const std::string path = tmpFile("journal_bad.ptjl");
    {
        super::JournalWriter w;
        ASSERT_TRUE(w.open(path, sampleSpec()));
    }
    // A checksum-valid item record whose state byte is garbage is
    // real corruption, not a torn append — the loader must refuse.
    BinWriter payload;
    payload.put64(0);  // item
    payload.put8(99);  // invalid state
    payload.put32(0);  // attempt
    payload.putString("");
    payload.put64(0);
    payload.putString("");
    payload.put32(0);
    std::vector<u8> p = payload.takeBytes();
    BinWriter rec;
    rec.put32(super::kJournalRecordMagic);
    rec.put32(2); // item record
    rec.put64(p.size());
    rec.put64(fnv64(p.data(), p.size()));
    rec.putBytes(p.data(), p.size());
    appendRawBytes(path, rec.takeBytes());

    super::JournalData data;
    LoadResult res = super::loadJournal(path, data);
    EXPECT_FALSE(res.ok());
}

TEST(Journal, NotAJournalRejected)
{
    const std::string path = tmpFile("journal_not.ptjl");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a journal", f);
    std::fclose(f);
    super::JournalData data;
    EXPECT_FALSE(super::loadJournal(path, data).ok());
    EXPECT_FALSE(super::loadJournal(tmpFile("nope.ptjl"), data).ok());
}

// ---------------------------------------------------------------------
// Supervisor

TEST(Supervisor, AllItemsSucceed)
{
    super::SuperOptions opts;
    opts.jobs = 4;
    std::atomic<u64> calls{0};
    auto res = super::superviseItems(
        16,
        [&](u64, CancelToken &tok) {
            tok.beat();
            calls.fetch_add(1);
            super::ItemOutcome out;
            out.ok = true;
            return out;
        },
        opts);
    EXPECT_TRUE(res.ok);
    EXPECT_FALSE(res.degraded());
    EXPECT_EQ(res.itemsDone, 16u);
    EXPECT_EQ(res.retries, 0u);
    EXPECT_EQ(calls.load(), 16u);
}

TEST(Supervisor, TransientFailureRetriesThenSucceeds)
{
    super::SuperOptions opts;
    opts.jobs = 2;
    opts.maxAttempts = 3;
    opts.backoffBaseMs = 1;
    std::vector<std::atomic<int>> attempts(8);
    auto res = super::superviseItems(
        8,
        [&](u64 i, CancelToken &) {
            super::ItemOutcome out;
            // Every odd item fails its first attempt.
            if (attempts[i].fetch_add(1) == 0 && (i & 1)) {
                out.error = "transient";
                return out;
            }
            out.ok = true;
            return out;
        },
        opts);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.itemsDone, 8u);
    EXPECT_EQ(res.retries, 4u);
    EXPECT_EQ(res.itemsQuarantined, 0u);
}

TEST(Supervisor, PersistentFailureQuarantinesAndDegrades)
{
    super::SuperOptions opts;
    opts.jobs = 2;
    opts.maxAttempts = 2;
    opts.backoffBaseMs = 1;
    auto res = super::superviseItems(
        4,
        [&](u64 i, CancelToken &) {
            super::ItemOutcome out;
            out.ok = i != 2;
            if (!out.ok)
                out.error = "broken forever";
            return out;
        },
        opts);
    EXPECT_TRUE(res.ok) << "quarantine degrades, it does not fail";
    EXPECT_TRUE(res.degraded());
    EXPECT_EQ(res.itemsDone, 3u);
    EXPECT_EQ(res.itemsQuarantined, 1u);
    ASSERT_EQ(res.quarantined.size(), 4u);
    EXPECT_TRUE(res.quarantined[2]);
    EXPECT_NE(res.firstError.find("broken forever"),
              std::string::npos);
}

TEST(Supervisor, WorkerExceptionsBecomeFailures)
{
    super::SuperOptions opts;
    opts.jobs = 2;
    opts.maxAttempts = 1;
    auto res = super::superviseItems(
        3,
        [&](u64 i, CancelToken &) -> super::ItemOutcome {
            if (i == 0)
                throw std::runtime_error("chaos");
            if (i == 1)
                throw std::bad_alloc();
            super::ItemOutcome out;
            out.ok = true;
            return out;
        },
        opts);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.itemsDone, 1u);
    EXPECT_EQ(res.itemsQuarantined, 2u);
    EXPECT_TRUE(res.outcomes[0].error.find("chaos") !=
                std::string::npos)
        << res.outcomes[0].error;
    EXPECT_EQ(res.outcomes[1].error, "allocation failure");
}

TEST(Supervisor, SkipListShortCircuitsItems)
{
    super::SuperOptions opts;
    opts.jobs = 2;
    opts.skip = {true, false, true, false};
    std::atomic<u64> ran{0};
    auto res = super::superviseItems(
        4,
        [&](u64 i, CancelToken &) {
            EXPECT_TRUE(i == 1 || i == 3) << "skipped item ran";
            ran.fetch_add(1);
            super::ItemOutcome out;
            out.ok = true;
            return out;
        },
        opts);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.itemsDone, 2u);
    EXPECT_EQ(res.itemsSkipped, 2u);
    EXPECT_EQ(ran.load(), 2u);
}

TEST(Supervisor, WatchdogCancelsBeatlessItem)
{
    super::SuperOptions opts;
    opts.jobs = 2;
    opts.maxAttempts = 1;
    opts.deadlineMs = 40;
    opts.watchdogPollMs = 10;
    auto res = super::superviseItems(
        2,
        [&](u64 i, CancelToken &tok) {
            super::ItemOutcome out;
            if (i == 0) {
                out.ok = true;
                return out;
            }
            // Item 1 wedges: no beats, only a cancel poll. Bounded so
            // a broken watchdog fails the test instead of hanging it.
            for (int spin = 0; spin < 5000; ++spin) {
                if (tok.cancelled())
                    return out; // ok=false, error filled by caller
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
            out.error = "watchdog never fired";
            return out;
        },
        opts);
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(res.degraded());
    EXPECT_GE(res.watchdogFires, 1u);
    EXPECT_EQ(res.itemsQuarantined, 1u);
    EXPECT_NE(res.outcomes[1].error.find("deadline exceeded"),
              std::string::npos)
        << res.outcomes[1].error;
}

TEST(Supervisor, BeatingItemOutlivesItsDeadline)
{
    // A slow item that keeps beating must NOT be shot: the deadline
    // measures stall, not total runtime.
    super::SuperOptions opts;
    opts.jobs = 1;
    opts.maxAttempts = 1;
    opts.deadlineMs = 30;
    opts.watchdogPollMs = 5;
    auto res = super::superviseItems(
        1,
        [&](u64, CancelToken &tok) {
            // Runs ~6x the deadline, beating the whole way.
            for (int step = 0; step < 60; ++step) {
                tok.beat();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(3));
            }
            super::ItemOutcome out;
            out.ok = !tok.cancelled();
            return out;
        },
        opts);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.itemsDone, 1u);
    EXPECT_EQ(res.watchdogFires, 0u);
}

TEST(Supervisor, GlobalCancelInterruptsResumably)
{
    CancelToken stop;
    super::SuperOptions opts;
    opts.jobs = 1;
    opts.maxAttempts = 3;
    opts.globalCancel = &stop;

    const std::string path = tmpFile("journal_int.ptjl");
    super::JournalWriter w;
    super::JobSpec spec = sampleSpec();
    spec.totalItems = 4;
    ASSERT_TRUE(w.open(path, spec));
    opts.journal = &w;

    auto res = super::superviseItems(
        4,
        [&](u64 i, CancelToken &) {
            super::ItemOutcome out;
            if (i >= 1) {
                stop.requestCancel();
                return out; // not ok: caller marks it interrupted
            }
            out.ok = true;
            return out;
        },
        opts);
    w.close();
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.interrupted);

    // The journal stays resumable: interrupted items are Failed (re-
    // runnable), never Quarantined, and no footer was written.
    super::JournalData data;
    ASSERT_TRUE(super::loadJournal(path, data).ok());
    EXPECT_FALSE(data.hasFooter);
    for (const auto &rec : data.latestPerItem())
        EXPECT_NE(rec.state, super::ItemState::Quarantined);
}

TEST(Supervisor, JournalFailureDoesNotFailTheJob)
{
    // A journal that cannot be written degrades to a counter, never
    // to a dead job.
    super::JournalWriter w;
    std::string err;
    EXPECT_FALSE(
        w.open("/nonexistent-dir-xyz/j.ptjl", sampleSpec(), &err));
    EXPECT_FALSE(w.ok());

    super::SuperOptions opts;
    opts.jobs = 2;
    opts.journal = &w;
    auto res = super::superviseItems(
        4,
        [&](u64, CancelToken &) {
            super::ItemOutcome out;
            out.ok = true;
            return out;
        },
        opts);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.itemsDone, 4u);
    EXPECT_GT(res.journalWriteFailures, 0u);
}

// ---------------------------------------------------------------------
// Supervised jobs: resume is byte-identical

std::string
writeSyntheticPacked(const std::string &path, u64 records, u64 seed)
{
    trace::PackedTraceWriter w(path, 512);
    u64 x = seed ? seed : 1;
    for (u64 i = 0; i < records; ++i) {
        // xorshift64* — cheap deterministic address stream.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        u64 v = x * 0x2545F4914F6CDD1Dull;
        w.add(static_cast<u32>(v), static_cast<u8>(v >> 32) % 3,
              static_cast<u8>(v >> 40) % 2);
    }
    EXPECT_TRUE(w.close());
    return path;
}

std::vector<cache::CacheConfig>
sweepConfigs()
{
    std::vector<cache::CacheConfig> configs;
    for (u32 size : {256u, 512u, 1024u, 2048u}) {
        for (u32 assoc : {1u, 2u}) {
            cache::CacheConfig c;
            c.sizeBytes = size;
            c.lineBytes = 16;
            c.assoc = assoc;
            configs.push_back(c);
        }
    }
    return configs;
}

TEST(SweepJob, ResumedRunIsByteIdentical)
{
    const std::string trace =
        writeSyntheticPacked(tmpFile("super_sweep.ptpk"), 3'000, 42);
    const std::string csv = tmpFile("super_sweep.csv");
    const std::string j1 = tmpFile("super_sweep_full.ptjl");
    auto configs = sweepConfigs();

    super::JobOptions jo;
    jo.jobs = 2;
    jo.journalPath = j1;
    auto full = super::runSweepJob(trace, configs, csv, jo);
    ASSERT_TRUE(full.ok) << full.error;
    std::vector<u8> refBytes = readFileBytes(csv);
    ASSERT_FALSE(refBytes.empty());

    // Crash after three Done items, then resume.
    super::JournalData data;
    ASSERT_TRUE(super::loadJournal(j1, data).ok());
    const std::string j2 = tmpFile("super_sweep_partial.ptjl");
    {
        super::JournalWriter w;
        ASSERT_TRUE(w.open(j2, data.spec));
        u64 kept = 0;
        for (const auto &rec : data.records) {
            if (rec.state == super::ItemState::Done && kept < 3) {
                ASSERT_TRUE(w.appendItem(rec));
                ++kept;
            }
        }
        ASSERT_EQ(kept, 3u);
    }
    std::remove(csv.c_str());

    auto resumed = super::resumeJob(j2, super::JobOptions{});
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.super.itemsSkipped, 3u);
    EXPECT_EQ(resumed.super.itemsDone, configs.size() - 3);
    EXPECT_EQ(readFileBytes(csv), refBytes);
    EXPECT_EQ(resumed.outFnv, full.outFnv);
}

TEST(SweepJob, ResumeRefusesModifiedTrace)
{
    const std::string trace =
        writeSyntheticPacked(tmpFile("super_sweep_mod.ptpk"), 800, 5);
    const std::string csv = tmpFile("super_sweep_mod.csv");
    const std::string j1 = tmpFile("super_sweep_mod.ptjl");
    auto configs = sweepConfigs();

    super::JobOptions jo;
    jo.jobs = 1;
    jo.journalPath = j1;
    auto full = super::runSweepJob(trace, configs, csv, jo);
    ASSERT_TRUE(full.ok) << full.error;

    // Rebuild an unfinished journal, then swap the trace underneath.
    super::JournalData data;
    ASSERT_TRUE(super::loadJournal(j1, data).ok());
    const std::string j2 = tmpFile("super_sweep_mod2.ptjl");
    {
        super::JournalWriter w;
        ASSERT_TRUE(w.open(j2, data.spec));
    }
    writeSyntheticPacked(trace, 800, 6); // different content

    auto resumed = super::resumeJob(j2, super::JobOptions{});
    EXPECT_FALSE(resumed.ok);
    EXPECT_NE(resumed.error.find("fingerprint"), std::string::npos)
        << resumed.error;
}

/** A frame-valid sweep journal over @p trace holding one config. */
std::string
sweepJournalWith(const std::string &name, const std::string &trace,
                 u32 size, u32 line, u32 assoc, u8 policy)
{
    super::JobSpec spec;
    spec.kind = super::JobKind::PackedSweep;
    spec.sessionPath = trace;
    spec.outPath = tmpFile(name + ".csv");
    spec.totalItems = 1;
    spec.bindFingerprint = super::fnvFile(trace);
    BinWriter w;
    w.put32(1);
    w.put32(size);
    w.put32(line);
    w.put32(assoc);
    w.put8(policy);
    spec.extra = w.takeBytes();
    const std::string path = tmpFile(name + ".ptjl");
    super::JournalWriter jw;
    EXPECT_TRUE(jw.open(path, spec));
    return path;
}

TEST(SweepJob, ResumeRefusesInvalidJournalledConfig)
{
    // Run and resume share one input check: a journalled config the
    // run would have refused is a structured error on resume too,
    // not an assertion inside the cache model.
    const std::string trace =
        writeSyntheticPacked(tmpFile("super_sweep_bad.ptpk"), 200, 3);
    auto res = super::resumeJob(
        sweepJournalWith("super_sweep_badline", trace, 1024, 3, 1, 0),
        super::JobOptions{});
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("lineBytes"), std::string::npos)
        << res.error;

    // A policy byte outside the enum is refused by the decoder.
    res = super::resumeJob(
        sweepJournalWith("super_sweep_badpolicy", trace, 1024, 16, 1, 7),
        super::JobOptions{});
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("configs.policy"), std::string::npos)
        << res.error;
}

TEST(RetiredJobKind, JournalsLoadButDoNotResume)
{
    // Kinds 1 and 3 stay reserved so later kinds keep their numbers:
    // their journals still load and pass fsck, and a resume names the
    // kind it refuses.
    const struct
    {
        super::JobKind kind;
        u32 number;
        const char *name;
    } retired[] = {
        {super::JobKind::RetiredEpochRun, 1, "epoch-run"},
        {super::JobKind::RetiredSessionBatch, 3, "session-batch"},
    };
    super::registerFsckParser();
    for (const auto &r : retired) {
        SCOPED_TRACE(r.name);
        super::JobSpec spec;
        spec.kind = r.kind;
        spec.outPath = tmpFile(std::string("super_retired_") + r.name);
        spec.totalItems = 1;
        spec.extra = {0, 0, 0, 0};
        const std::string path =
            tmpFile(std::string("super_retired_") + r.name + ".ptjl");
        {
            super::JournalWriter w;
            ASSERT_TRUE(w.open(path, spec));
        }

        super::JournalData data;
        ASSERT_TRUE(super::loadJournal(path, data).ok());
        EXPECT_EQ(static_cast<u32>(data.spec.kind), r.number);
        EXPECT_STREQ(super::jobKindName(data.spec.kind), r.name);

        validate::FsckReport rep = validate::fsckArtifact(path);
        EXPECT_TRUE(rep.clean()) << rep.summary;

        auto res = super::resumeJob(path, super::JobOptions{});
        EXPECT_FALSE(res.ok);
        EXPECT_NE(res.error.find(r.name), std::string::npos)
            << res.error;
    }
}

} // namespace
} // namespace pt
