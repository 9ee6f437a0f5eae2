/**
 * @file
 * The traced run's stand-in for rt::Runtime::run(const JobSpec &): the
 * same public calls in the same order — nn model build, rt::lower /
 * rt::lowerRnn, one sim::Gpu::launch per kernel — with a span around
 * each, so per-launch and per-layer host time is visible.  The benchmark
 * checks that the NetRun it assembles equals the untraced one bit for
 * bit, which proves the traced run did the same work.
 */

#ifndef PERFBENCH_MIRROR_HH
#define PERFBENCH_MIRROR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/job.hh"
#include "spans.hh"

namespace perfbench {

/** One Gpu::launch as the traced run saw it. */
struct LaunchRecord
{
    std::string family;   ///< the layer's figType
    bool replayed = false;
    double hostSec = 0.0;
    double issuedWinst = 0.0;   ///< scaled "issued" stat
    double gpuCycles = 0.0;
    uint64_t smCycles = 0;      ///< cycles simulated on the one SM
};

/** Host-side record of one traced job. */
struct TracedJob
{
    double buildSec = 0.0;
    double lowerSec = 0.0;
    uint64_t kernels = 0;
    std::vector<LaunchRecord> launches;
};

/**
 * Run @p spec (a sim-tier, timing-only job: no functional outputs, no
 * output check) on @p gpu, which the Engine has configured to
 * spec.gpuConfig().  Spans open under @p parent in @p group.
 */
tango::rt::NetRun tracedRun(tango::sim::Gpu &gpu,
                            const tango::rt::JobSpec &spec, SpanLog &log,
                            uint64_t parent, uint64_t group, TracedJob &rec);

} // namespace perfbench

#endif // PERFBENCH_MIRROR_HH
