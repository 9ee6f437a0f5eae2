/**
 * @file
 * Output checks: a compact summary of a NetRun's simulated statistics,
 * and the reference file (perfbench/reference.json) every cold job and
 * every serve_hits prefill job is compared against.
 */

#ifndef PERFBENCH_CHECK_HH
#define PERFBENCH_CHECK_HH

#include <cstdint>
#include <map>
#include <string>

#include "runtime/runtime.hh"

namespace perfbench {

/** What a job simulated, reduced to a few exact numbers. */
struct StatsSummary
{
    double issuedWinst = 0.0;   ///< totals "issued" (warp instructions)
    double gpuCycles = 0.0;     ///< sum of kernel gpuCycles
    double l2Misses = 0.0;      ///< totals "mem.l2.misses"
    /** Bit-pattern digest of every statistic a NetRun carries (per-kernel
     *  cycles, time, energy and stat maps, merged totals, footprints).
     *  How a launch was served (KernelStats::replayed) and profiles are
     *  left out; NetRun holds no host-time fields. */
    uint64_t digest = 0;

    bool operator==(const StatsSummary &o) const;
};

StatsSummary summarize(const tango::rt::NetRun &run);

/** Reference summaries by Engine cache key (JobSpec::cacheKey()). */
using References = std::map<std::string, StatsSummary>;

/** Parse a reference file.  @return false with @p err set on failure. */
bool loadReferences(const std::string &path, References &out,
                    std::string &err);

/** The reference file's JSON text (keys sorted, one job per line). */
std::string referencesToJson(const References &refs);

/** @return "" when @p got matches the reference for @p key, else a
 *  one-line reason (a missing reference is a mismatch). */
std::string checkAgainst(const References &refs, const std::string &key,
                         const StatsSummary &got);

} // namespace perfbench

#endif // PERFBENCH_CHECK_HH
