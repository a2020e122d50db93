/**
 * @file
 * Profiling hooks: the interface instrumented components report
 * through when profiling mode is on.
 *
 * The paper's profiling mode ("Profiling enabled" in POSE) observes
 * every instruction; palmtrace components therefore keep their own
 * always-on cheap counters (Cpu::instructionsRetired, Bus ref counts,
 * ReplayStats, CacheStats) and, when a ProfileSink is installed,
 * additionally publish named observations through it — per-event
 * latency samples, queue depths, phase totals. The default sink
 * forwards into the global metrics Registry.
 *
 * The sink pointer is process-global and null by default: an
 * uninstrumented run pays one pointer test per reporting site, and
 * reporting sites are per event / per phase, never per instruction.
 */

#ifndef PT_OBS_PROFILE_H
#define PT_OBS_PROFILE_H

#include "registry.h"

namespace pt::obs
{

/** Receives named profiling observations from instrumented code. */
class ProfileSink
{
  public:
    virtual ~ProfileSink() = default;

    /** Adds @p delta to the named cumulative count. */
    virtual void count(const char *metric, u64 delta = 1) = 0;

    /** Publishes a point-in-time scalar. */
    virtual void gauge(const char *metric, double value) = 0;

    /** Adds one sample to the named distribution. */
    virtual void sample(const char *metric, double value) = 0;
};

/** The default sink: forwards every observation into a Registry. */
class RegistrySink final : public ProfileSink
{
  public:
    explicit RegistrySink(Registry &r = Registry::global())
        : reg(r)
    {}

    void
    count(const char *metric, u64 delta = 1) override
    {
        reg.counter(metric).inc(delta);
    }

    void
    gauge(const char *metric, double value) override
    {
        reg.gauge(metric).set(value);
    }

    void
    sample(const char *metric, double value) override
    {
        reg.histogram(metric).add(value);
    }

  private:
    Registry &reg;
};

/**
 * @return the effective profile sink for the calling thread: the
 * thread-local override when one is installed (scoped metrics on a
 * pool worker), else the process-global sink, or nullptr (off).
 */
ProfileSink *profileSink();

/** Installs (or clears, with nullptr) the process profile sink. */
void setProfileSink(ProfileSink *sink);

/**
 * Installs (or clears) a sink override for the calling thread only.
 * Instrumented code running on this thread reports here instead of
 * the process sink; other threads are unaffected. Prefer the RAII
 * ScopedProfileSink over calling this directly.
 */
void setThreadProfileSink(ProfileSink *sink);

/** @return the calling thread's override sink, or nullptr. */
ProfileSink *threadProfileSink();

/**
 * RAII thread-local sink override: routes the calling thread's
 * observations into a scope's registry for the object's lifetime,
 * restoring the previous override on destruction. This is how a pool
 * worker isolates one sweep config's / session's
 * metrics into its MetricScope while other workers keep publishing
 * to their own.
 */
class ScopedProfileSink
{
  public:
    explicit ScopedProfileSink(ProfileSink &sink)
        : prev(threadProfileSink())
    {
        setThreadProfileSink(&sink);
    }

    /** Convenience: route straight into a scope's registry. */
    explicit ScopedProfileSink(MetricScope &scope)
        : prev(threadProfileSink()), owned(scope.registry())
    {
        setThreadProfileSink(&owned);
    }

    ~ScopedProfileSink() { setThreadProfileSink(prev); }

    ScopedProfileSink(const ScopedProfileSink &) = delete;
    ScopedProfileSink &operator=(const ScopedProfileSink &) = delete;

  private:
    ProfileSink *prev;
    RegistrySink owned{Registry::global()};
};

} // namespace pt::obs

#endif // PT_OBS_PROFILE_H
