/**
 * @file
 * The Tango runtime: runs a network on a virtual GPU and collects the
 * per-layer and whole-network statistics the paper's figures are built
 * from.
 *
 * Two execution modes compose:
 *  - functional: the CPU reference computes each layer's true output and
 *    writes it into device memory after the layer's kernels run, so CTA
 *    sampling never corrupts downstream inputs; with `check`, simulated
 *    outputs are instead compared against the reference (small networks,
 *    fullSim).
 *  - timing-only (functional=false): buffers hold garbage, which is fine —
 *    the kernels' control flow and addresses are data-independent.  That
 *    claim is checked, not assumed: lowering runs sim::valueOblivious on
 *    every distinct program, and only a run whose programs all pass
 *    splices its armed memo replays without executing them.
 */

#ifndef TANGO_RUNTIME_RUNTIME_HH
#define TANGO_RUNTIME_RUNTIME_HH

#include <string>
#include <vector>

#include "nn/network.hh"
#include "runtime/lowering.hh"
#include "sim/gpu.hh"

namespace tango::rt {

struct JobSpec; // runtime/job.hh

/** Execution policy for one network run. */
struct RunPolicy
{
    sim::SimPolicy sim;
    bool functional = false;   ///< write reference outputs after each layer
    bool check = false;        ///< compare device outputs vs the reference
    float tolerance = 1e-4f;   ///< relative tolerance for check
    /** Timing-only loop-channel sampling (see rt::lower); ignored when
     *  functional or check is set. */
    uint32_t maxLoopChannels = 0;

    /**
     * Look up a policy in the named-policy registry.  Built-ins:
     *  - "bench": the harness sampling policy — ~16-warp budget per SM,
     *    6 sampled warps per CTA; seconds per network, every statistic
     *    extrapolated to the full grid.
     *  - "mem":   memory-locality studies (Figs 13/14) — many
     *    co-resident CTAs with few warps each, so cross-CTA data reuse
     *    reaches the shared L2 the way it does on hardware.
     *  - "stall": stall-cycle studies (Fig 7) — near-hardware warp
     *    residency so latency hiding and the stall mix are realistic.
     *  - "exact": full cycle-accurate simulation of every CTA, no
     *    sampling (small networks only).
     * fatal()s on an unknown name.
     */
    static RunPolicy named(const std::string &name);

    /** Register (or replace) a named policy. */
    static void registerPolicy(const std::string &name, const RunPolicy &p);

    /** @return all registered policy names, sorted. */
    static std::vector<std::string> names();
};

/** Statistics of one layer (possibly several kernels). */
struct LayerRun
{
    int layerIndex = -1;
    std::string name;
    std::string figType;
    std::vector<sim::KernelStats> kernels;

    double timeSec() const;
    double energyJ() const;
    double gpuCycles() const;
};

/** Statistics of a full network run. */
struct NetRun
{
    std::string netName;
    std::vector<LayerRun> layers;
    uint64_t deviceBytes = 0;
    StatSet totals;          ///< merged op/dtype/evt/stall counters
    double totalTimeSec = 0.0;
    double totalEnergyJ = 0.0;
    double peakPowerW = 0.0;      ///< max over kernels (paper Fig 3)
    uint32_t maxRegsPerThread = 0;
    uint32_t maxLiveRegs = 0;
    uint32_t maxResidentWarps = 0;   ///< warps/SM at the widest kernel
    uint64_t checkFailures = 0;   ///< mismatches found in check mode

    /** Whether these statistics are model predictions (estimate tier,
     *  see estimate/estimator.hh) rather than simulation output.  When
     *  set, estErrP50/estErrP95 carry the fitted models' validated
     *  relative cycle error bounds (the worst family used). */
    bool estimated = false;
    double estErrP50 = 0.0;
    double estErrP95 = 0.0;

    /** Sum a counter over layers whose figType is @p fig. */
    double figTypeStat(const std::string &fig,
                       const std::string &stat) const;
    /** Total time of layers with figType @p fig. */
    double figTypeTime(const std::string &fig) const;
    /** All distinct figTypes in first-appearance order. */
    std::vector<std::string> figTypes() const;
};

/** Optional inputs/outputs of one model run. */
struct RunIo
{
    /** CNN input image (nullptr = synthetic; CNN runs only). */
    const nn::Tensor *image = nullptr;
    /** RNN input sequence (nullptr = synthetic; RNN runs only). */
    const std::vector<float> *sequence = nullptr;
    /** If set, receives the RNN's device-predicted value. */
    float *prediction = nullptr;
};

/** Runs models on a Gpu. */
class Runtime
{
  public:
    explicit Runtime(sim::Gpu &gpu) : gpu_(gpu) {}

    /**
     * Run a model of either kind — THE entry point.  CNNs consume
     * io.image, RNNs io.sequence/io.prediction; unused RunIo fields are
     * ignored.  This is what rt::Engine jobs call, which is why it is
     * model-kind-agnostic.
     */
    NetRun run(const nn::AnyModel &model, const RunPolicy &policy,
               const RunIo &io = {});

    /**
     * Run a JobSpec (runtime/job.hh): builds the model it names
     * (honouring seqLen), generates weights only when the resolved
     * policy needs functional outputs, and runs it.  The Gpu this
     * Runtime wraps must already match spec.gpuConfig().  fatal()s on
     * an invalid spec — validate() first.
     */
    NetRun run(const JobSpec &spec);

  private:
    NetRun cnnRun(const nn::Network &net, const RunPolicy &policy,
                  const nn::Tensor *input);
    NetRun rnnRun(const nn::RnnModel &model, const RunPolicy &policy,
                  const std::vector<float> *sequence, float *prediction);

    sim::Gpu &gpu_;
};

/** Build + run a network by name ("gru", "lstm", or a CNN name) with
 *  weights generated only when the policy needs functional outputs —
 *  the standard timing-study entry point (and the rt::Engine job body). */
NetRun runNetworkByName(sim::Gpu &gpu, const std::string &name,
                        const RunPolicy &policy);

} // namespace tango::rt

#endif // TANGO_RUNTIME_RUNTIME_HH
