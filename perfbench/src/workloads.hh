/**
 * @file
 * The three workloads.  Each runs in this process against the tango
 * libraries; see perfbench/README.md for why each exists.
 *
 *  - cnn_sweep_cold: the Fig 2/15 grid, 12 cold bench-policy jobs on a
 *    fresh 2-worker Engine per round (timing core).
 *  - rnn_replay_cold: GRU then LSTM, exact policy, seqLen 1024, on a
 *    fresh 1-worker Engine per round (launch memoization and replay).
 *  - serve_hits: an in-process serve::Server with 2 Engine workers,
 *    prefilled with 10 jobs, then closed-loop rounds of memory hits from
 *    2 serve::Client connections (hit path, serialization, sockets).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check.hh"
#include "runtime/job.hh"
#include "spans.hh"

namespace perfbench {

struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;         ///< first few failure reasons
    std::map<std::string, double> metrics;   ///< by catalog name
    std::string report;                      ///< traced run: the table
    std::vector<Span> spans;                 ///< traced run: every span
};

/** Engine workers per workload (sim shards stay at K=1 everywhere). */
unsigned engineWorkers(const std::string &workload);

/** The fixed job list of a cold workload, or the serve_hits job mix. */
std::vector<tango::rt::JobSpec> jobList(const std::string &workload);

/** serve_hits: how many of each jobList() entry one round of @p n
 *  requests holds — a Zipf(1) law over the list order, rounded so the
 *  counts sum to @p n.  The seed only shuffles the order. */
std::vector<uint32_t> serveComposition(uint32_t n);

/** Run one workload; the metrics are the end-to-end set, or the
 *  per-layer set when args.trace. */
Outcome runWorkload(const RunArgs &args, const References &refs);

/** Simulate every job the workloads check once and summarize it. */
References recordReferences();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
