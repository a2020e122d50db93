/**
 * @file
 * Simulated-time telemetry tests: the interval sampler's exact-split
 * algebra, the refs-domain variant, the RateWindow behind the
 * heartbeat's windowed rates, and scoped-metric merge semantics.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/ratewindow.h"
#include "obs/registry.h"
#include "obs/timeseries.h"

namespace pt
{
namespace
{

using obs::Timeseries;
using obs::TsRef;

u64
totalInstructions(const Timeseries &ts)
{
    u64 n = 0;
    for (const auto &[idx, row] : ts.rows())
        n += row.instructions;
    return n;
}

TEST(Timeseries, FirstObserveOnlySetsBaseline)
{
    Timeseries ts(100);
    ts.observe(250, 10);
    EXPECT_TRUE(ts.rows().empty());
    ts.observe(250, 10); // duplicate: still a no-op
    EXPECT_TRUE(ts.rows().empty());
}

TEST(Timeseries, DeltaSplitsExactlyAcrossIntervals)
{
    Timeseries ts(100);
    ts.observe(0, 0);
    ts.observe(250, 10);
    // Cycles split exactly: 100 + 100 + 50.
    ASSERT_EQ(ts.rows().size(), 3u);
    EXPECT_EQ(ts.rows().at(0).cycles, 100u);
    EXPECT_EQ(ts.rows().at(1).cycles, 100u);
    EXPECT_EQ(ts.rows().at(2).cycles, 50u);
    // Instructions sum exactly to the delta whatever the rounding.
    EXPECT_EQ(totalInstructions(ts), 10u);
}

TEST(Timeseries, OutOfOrderObservationIsANoOp)
{
    Timeseries ts(100);
    ts.observe(0, 0);
    ts.observe(500, 50);
    const std::string before = ts.toJsonl();
    ts.observe(300, 20); // rewind: ignored
    EXPECT_EQ(ts.toJsonl(), before);
}

TEST(Timeseries, RefsAndEventsLandInTheirCycleInterval)
{
    Timeseries ts(100);
    ts.addRef(5, TsRef::Ifetch, false);
    ts.addRef(105, TsRef::Dread, true);
    ts.addRef(105, TsRef::Dwrite, true);
    ts.noteEvent(205);
    EXPECT_EQ(ts.rows().at(0).ifetch, 1u);
    EXPECT_EQ(ts.rows().at(0).ramRefs, 1u);
    EXPECT_EQ(ts.rows().at(1).dread, 1u);
    EXPECT_EQ(ts.rows().at(1).dwrite, 1u);
    EXPECT_EQ(ts.rows().at(1).flashRefs, 2u);
    EXPECT_EQ(ts.rows().at(2).events, 1u);
}

TEST(Timeseries, RefsDomainBucketsByReferenceIndex)
{
    Timeseries ts(2, Timeseries::Domain::Refs);
    ts.addRef(0, TsRef::Ifetch, false);
    ts.addRef(0, TsRef::Dread, true);
    ts.addRef(0, TsRef::Dwrite, false); // third ref: next interval
    ASSERT_EQ(ts.rows().size(), 2u);
    EXPECT_EQ(ts.rows().at(0).ramRefs + ts.rows().at(0).flashRefs, 2u);
    EXPECT_EQ(ts.rows().at(1).ramRefs, 1u);
    EXPECT_NE(ts.toJsonl().find("\"domain\": \"refs\""),
              std::string::npos);
}

TEST(Timeseries, JsonlHeaderAndCsvShapeAgree)
{
    Timeseries ts(100);
    ts.observe(0, 0);
    ts.observe(100, 7);
    ts.addRef(5, TsRef::Ifetch, true);
    const std::string jsonl = ts.toJsonl();
    EXPECT_NE(jsonl.find("\"schema\": \"palmtrace-timeseries-v1\""),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"interval\": 100"), std::string::npos);
    EXPECT_NE(jsonl.find("\"start\": 0"), std::string::npos);
    const std::string csv = ts.toCsv();
    EXPECT_EQ(csv.rfind("interval,start,cycles,instructions,ipc,", 0),
              0u);
}

TEST(RateWindow, NeedsTwoSamplesThenTracksTheWindow)
{
    obs::RateWindow w;
    EXPECT_DOUBLE_EQ(w.rate(), 0.0);
    w.add(0.0, 0.0);
    EXPECT_DOUBLE_EQ(w.rate(), 0.0);
    w.add(2.0, 100.0);
    EXPECT_DOUBLE_EQ(w.rate(), 50.0);
    EXPECT_DOUBLE_EQ(w.etaSeconds(200.0), 2.0);
}

TEST(RateWindow, WindowForgetsTheColdStart)
{
    // A long stall followed by fast progress: the whole-run average
    // would stay pessimistic forever; the window must recover. Ring
    // is 16 deep, so 20 fast samples fully evict the stall.
    obs::RateWindow w;
    w.add(0.0, 0.0);
    w.add(100.0, 1.0); // 100 s for 1 unit: terrible
    double t = 100.0;
    double p = 1.0;
    for (int i = 0; i < 20; ++i) {
        t += 1.0;
        p += 10.0;
        w.add(t, p);
    }
    EXPECT_NEAR(w.rate(), 10.0, 1e-9);
}

TEST(RateWindow, ZeroElapsedOrRegressIsSafe)
{
    obs::RateWindow w;
    w.add(1.0, 10.0);
    w.add(1.0, 10.0); // no time passed
    EXPECT_DOUBLE_EQ(w.rate(), 0.0);
    w.reset();
    w.add(1.0, 10.0);
    w.add(2.0, 5.0); // position regressed
    EXPECT_DOUBLE_EQ(w.rate(), 0.0);
    EXPECT_DOUBLE_EQ(w.etaSeconds(100.0), 0.0);
}

TEST(MetricScope, PublishMergesCountersHistogramsAndGauges)
{
    obs::Registry parent;
    parent.counter("cache.l1.hits").inc(5);

    obs::MetricScope scope("sweep/8KB-32B-4way");
    scope.registry().counter("cache.l1.hits").inc(7);
    scope.registry().gauge("cache.l1.miss_rate").set(0.25);
    scope.registry().histogram("sweep.config_seconds").add(2.0);

    scope.publish(parent);
    EXPECT_EQ(parent.counterValue("cache.l1.hits"), 12u);
    EXPECT_DOUBLE_EQ(parent.gaugeValue("cache.l1.miss_rate"), 0.25);
    EXPECT_EQ(parent.histogram("sweep.config_seconds").count(), 1u);

    scope.publishLabeled(parent);
    EXPECT_EQ(parent.counterValue(
                  "sweep/8KB-32B-4way.cache.l1.hits"),
              7u);
    // The unprefixed totals are untouched by the labeled view.
    EXPECT_EQ(parent.counterValue("cache.l1.hits"), 12u);
}

TEST(MetricScope, LabelRidesInTheScopedJson)
{
    obs::MetricScope scope("epoch/3");
    scope.registry().counter("epoch.refs").inc(9);
    const std::string doc = scope.toJson();
    EXPECT_NE(doc.find("\"label\": \"epoch/3\""), std::string::npos)
        << doc;
}

TEST(LogHistogram, PercentilesAreOrderedAndClamped)
{
    obs::LogHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.add(static_cast<double>(i));
    const double p50 = h.percentile(0.50);
    const double p95 = h.percentile(0.95);
    const double p99 = h.percentile(0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p99, 1000.0);
    EXPECT_NEAR(p50, 500.0, 260.0); // log-bucket estimate, coarse
}

} // namespace
} // namespace pt
