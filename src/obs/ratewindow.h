/**
 * @file
 * A windowed rate estimator for progress heartbeats.
 *
 * The heartbeat used to project ETA from the lifetime average
 * (delivered / elapsed), which a long warmup or slow first phase
 * skews for the whole run. RateWindow keeps a small ring of
 * (time, position) samples and reports the rate across the window —
 * the slope of the last K observations — so the projection tracks
 * current throughput and converges after a phase change.
 */

#ifndef PT_OBS_RATEWINDOW_H
#define PT_OBS_RATEWINDOW_H

#include <cstddef>

#include "base/types.h"

namespace pt::obs
{

/**
 * Windowed rate over the last kWindow samples. Single-threaded: each
 * progress loop owns its own instance.
 */
class RateWindow
{
  public:
    static constexpr std::size_t kWindow = 16;

    /** Records that @p position units were done as of @p seconds. */
    void
    add(double seconds, double position)
    {
        samples[head] = {seconds, position};
        head = (head + 1) % kWindow;
        if (n < kWindow)
            ++n;
    }

    /**
     * Units per second across the window: (last - oldest position) /
     * (last - oldest time). 0 until two samples with distinct times
     * exist or while position is not advancing.
     */
    double
    rate() const
    {
        if (n < 2)
            return 0.0;
        const Sample &newest =
            samples[(head + kWindow - 1) % kWindow];
        const Sample &oldest = samples[(head + kWindow - n) % kWindow];
        const double dt = newest.seconds - oldest.seconds;
        const double dp = newest.position - oldest.position;
        if (dt <= 0.0 || dp <= 0.0)
            return 0.0;
        return dp / dt;
    }

    /**
     * Seconds until @p target at the windowed rate, measured from the
     * newest sample. Negative when already past target; 0 when the
     * rate is unknown (caller should omit the ETA).
     */
    double
    etaSeconds(double target) const
    {
        const double r = rate();
        if (r <= 0.0)
            return 0.0;
        const Sample &newest =
            samples[(head + kWindow - 1) % kWindow];
        return (target - newest.position) / r;
    }

    std::size_t count() const { return n; }

    void
    reset()
    {
        head = 0;
        n = 0;
    }

  private:
    struct Sample
    {
        double seconds = 0.0;
        double position = 0.0;
    };

    Sample samples[kWindow];
    std::size_t head = 0;
    std::size_t n = 0;
};

} // namespace pt::obs

#endif // PT_OBS_RATEWINDOW_H
