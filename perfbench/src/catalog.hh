/**
 * @file
 * The benchmark's metric catalog: every end-to-end and per-layer metric
 * tango-perfbench can print, with its unit, the tango module it measures, and
 * — for per-layer metrics — the end-to-end metric and workload it is
 * expected to move.  BENCHMARK.json at the repository root lists the
 * same names and units; tests/test_perfbench.cc keeps the two in step.
 */

#ifndef PERFBENCH_CATALOG_HH
#define PERFBENCH_CATALOG_HH

#include <string>
#include <vector>

namespace perfbench {

/** The workloads, in BENCHMARK.json order. */
inline constexpr const char *kWorkloads[] = {
    "cnn_sweep_cold", "rnn_replay_cold", "serve_hits"};

/** Kernel families (layer figTypes) the cold workloads launch. */
inline constexpr const char *kFamilies[] = {
    "Conv", "Pooling", "FC", "Norm", "Relu",
    "Scale", "Eltwise", "Others", "GRU", "LSTM"};

/** Networks of the serve_hits job mix (each at the sim and estimate
 *  tier). */
inline constexpr const char *kServeNets[] = {
    "cifarnet", "resnet", "mobilenet", "gru", "lstm"};

struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better;   ///< "lower" | "higher"
    /** The tango module the metric measures ("" for end-to-end). */
    std::string layer;
    /** Per-layer only: the end-to-end metric this number should move
     *  and the workload on which it should move it. */
    std::string moves;
    std::string workload;
};

/** End-to-end metrics: printed by every untraced run. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics: printed by every traced run (0 where the
 *  workload does not exercise the layer). */
const std::vector<MetricDef> &perLayerMetrics();

/** @return whether @p name is 1-64 of [A-Za-z0-9_.-], starting with a
 *  letter or digit. */
bool validMetricName(const std::string &name);

/** @return @p family lowercased, as in "sim.conv.host_s". */
std::string familyKey(const std::string &family);

} // namespace perfbench

#endif // PERFBENCH_CATALOG_HH
