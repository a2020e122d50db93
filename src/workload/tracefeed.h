/**
 * @file
 * Feed-from-reader glue between the packed trace format and the
 * parallel cache sweep: a pull-source adapter that decodes PTPK
 * blocks on demand, and a one-call driver that streams a packed
 * trace file through a CacheSweep with O(block) memory.
 *
 * This is the one decode path for a packed sweep (`sweep --packed`,
 * the sweep job). Its results are bit-identical to decoding the whole
 * trace up front and feeding it record by record (the §9 determinism
 * contract); tests/test_packedtrace.cc keeps that buffered feed as
 * the oracle and proves the two equal at jobs in {1, 8}.
 */

#ifndef PT_WORKLOAD_TRACEFEED_H
#define PT_WORKLOAD_TRACEFEED_H

#include <algorithm>
#include <string>
#include <vector>

#include "base/loaderror.h"
#include "base/types.h"
#include "cache/cache.h"
#include "trace/packedtrace.h"

namespace pt::workload
{

/**
 * cache::RefSource over a PackedTraceReader: pulls decoded blocks
 * lazily and hands classified references to the sweep. A mid-stream
 * corruption ends the stream; check status() after the sweep.
 */
class PackedRefSource : public cache::RefSource
{
  public:
    explicit PackedRefSource(trace::PackedTraceReader &r)
        : reader(r)
    {}

    std::size_t
    pull(cache::ClassifiedRef *out, std::size_t max) override
    {
        std::size_t produced = 0;
        while (produced < max) {
            if (pos >= block.size()) {
                if (!reader.nextBlock(block))
                    break; // end of stream or sticky error
                pos = 0;
            }
            std::size_t take =
                std::min(max - produced, block.size() - pos);
            for (std::size_t i = 0; i < take; ++i) {
                const trace::TraceRecord &r = block[pos + i];
                out[produced + i] = {r.addr, r.cls == 1};
            }
            pos += take;
            produced += take;
        }
        return produced;
    }

    /** Healthy unless the reader hit corruption mid-stream. */
    const LoadResult &status() const { return reader.status(); }

  private:
    trace::PackedTraceReader &reader;
    std::vector<trace::TraceRecord> block;
    std::size_t pos = 0;
};

/** Everything a packed-fed sweep produces. */
struct PackedSweepResult
{
    std::vector<cache::Cache> caches; ///< empty on failure
    u64 refs = 0;                     ///< references consumed
    LoadResult status;                ///< first trace error, if any
    bool interrupted = false; ///< a CancelToken stopped the drain
};

/**
 * Streams the packed trace at @p path through a sweep of
 * @p configs. @p jobs as in CacheSweep (0 = shared-pool default,
 * 1 = inline sequential). A cancellation (via @p cancel) stops the
 * drain between batches; the partial stats are withheld (caches
 * stays empty) and interrupted is set.
 */
PackedSweepResult
sweepPackedFile(const std::string &path,
                const std::vector<cache::CacheConfig> &configs,
                unsigned jobs = 0, CancelToken *cancel = nullptr);

} // namespace pt::workload

#endif // PT_WORKLOAD_TRACEFEED_H
