/**
 * @file
 * Cooperative cancellation and liveness reporting.
 *
 * Work items running on the thread pool cannot be forcibly killed —
 * a wedged replay would otherwise hang the whole batch. A
 * CancelToken is the contract between a supervised item and its
 * supervisor: the item calls beat() as it makes progress and polls
 * cancelled() at its loop boundaries; the watchdog observes the beat
 * counter to detect stalls and flips the cancel flag to request a
 * cooperative stop (deadline exceeded, SIGINT, job abort).
 *
 * Both sides are lock-free relaxed atomics: beat() sits on the replay
 * hot path (once per delivered event) and a signal handler may call
 * requestCancel(), so neither may block or allocate.
 */

#ifndef PT_BASE_CANCEL_H
#define PT_BASE_CANCEL_H

#include <atomic>

#include "base/types.h"

namespace pt
{

/** A cancel flag plus a heartbeat counter, shared between one work
 *  item and its supervisor/watchdog. */
class CancelToken
{
  public:
    /** Requests a cooperative stop. Async-signal-safe. */
    void
    requestCancel() noexcept
    {
        flag.store(true, std::memory_order_relaxed);
    }

    /** Polled by the work item at its loop boundaries. */
    bool
    cancelled() const noexcept
    {
        return flag.load(std::memory_order_relaxed);
    }

    /** Progress heartbeat; the watchdog watches this advance. */
    void
    beat() noexcept
    {
        beatCount.fetch_add(1, std::memory_order_relaxed);
    }

    u64
    beats() const noexcept
    {
        return beatCount.load(std::memory_order_relaxed);
    }

    /** Rearms the token for a retry attempt of the same item. Only
     *  safe while no worker is running against it. */
    void
    reset() noexcept
    {
        flag.store(false, std::memory_order_relaxed);
        beatCount.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> flag{false};
    std::atomic<u64> beatCount{0};
};

} // namespace pt

#endif // PT_BASE_CANCEL_H
