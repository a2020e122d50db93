/**
 * @file
 * The benchmark's workloads and the host parallel-capacity probe.
 * Each workload derives its inputs from the run seed, sets its own
 * worker count, and writes its artifacts into the current directory
 * (a per-run temporary directory the caller owns).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench
{

/** One long session replayed into a PTPK file (single thread). */
Outcome runReplayPack(const RunOptions &o);

/** The paper's 56-config sweep fed from a PTPK file: 1 worker timed,
 *  2 workers measured in traced runs. */
Outcome runSweepPacked(const RunOptions &o);

/** Tiny sessions through an in-process serve::Server, 2 workers. */
Outcome runFleetServed(const RunOptions &o);

/**
 * K concurrent copies of a fixed single-config cache kernel timed
 * against one copy (K = the hardware thread count). @return
 * K * t(1) / t(K): about the number of cores the host really gives.
 */
double probeParallelCapacity();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
