/**
 * @file
 * Lowering: turn a network description into device buffers and a sequence
 * of kernel launches, honouring each layer's Table-III launch hint
 * (including AlexNet's four-way output tiling and two-way filter splits,
 * and SqueezeNet's zero-copy expand-into-concat outputs).
 */

#ifndef TANGO_RUNTIME_LOWERING_HH
#define TANGO_RUNTIME_LOWERING_HH

#include <string>
#include <vector>

#include "nn/network.hh"
#include "sim/memory.hh"
#include "sim/program.hh"

namespace tango::rt {

/** One kernel of a lowered network. */
struct LoweredKernel
{
    sim::KernelLaunch launch;
    int layerIndex = -1;
    std::string figType;
    /** Work scale for timing-only loop-channel sampling: the kernel was
     *  lowered with fewer in-thread loop channels; every statistic must
     *  be multiplied by this factor (1.0 = exact). */
    double workScale = 1.0;
};

/** A network lowered onto a device. */
struct LoweredNet
{
    std::vector<LoweredKernel> kernels;
    uint32_t inputAddr = 0;
    std::vector<uint32_t> layerOut;   ///< device address per layer output
    uint64_t deviceBytes = 0;         ///< total footprint (weights + maps)
};

/**
 * Lower a CNN.
 * @param net the network (weights may be absent for timing-only studies).
 * @param mem device memory to allocate from.
 * @param upload_weights copy parameter tensors into device memory
 *        (requires initWeights() to have been called).  Without it the
 *        lowering is timing-only: when every distinct program passes
 *        sim::valueOblivious, each launch carries
 *        KernelLaunch::valuesUnobserved.
 * @param max_loop_channels timing-only: kernels that loop over output
 *        filters/channels *inside each thread* (CifarNet/SqueezeNet
 *        mappings) are lowered with at most this many loop channels and
 *        their statistics scaled back up (0 = exact lowering).  The loop
 *        iterations are homogeneous, so the extrapolation is tight; never
 *        use together with functional output checking.
 */
LoweredNet lower(const nn::Network &net, sim::DeviceMemory &mem,
                 bool upload_weights, uint32_t max_loop_channels = 0);

/** A lowered RNN model: per-time-step cell kernels plus the readout. */
struct LoweredRnn
{
    std::vector<LoweredKernel> kernels;   ///< seqLen cells + 1 FC
    /** Staging slot for the current step's input vector.  One slot shared
     *  by every timestep (the runtime copies x[t] in before each cell
     *  launch) so that all even-t cell launches — and all odd-t ones —
     *  carry identical parameter vectors, which is what lets the
     *  launch-memoization layer (sim/gpu.cc) recognize them as repeats. */
    uint32_t xAddr = 0;
    uint32_t hAddr[2] = {0, 0};           ///< ping-pong hidden state
    uint32_t cAddr[2] = {0, 0};           ///< ping-pong cell state (LSTM)
    uint32_t outAddr = 0;                 ///< predicted value
    uint32_t finalH = 0;                  ///< device address of last hidden
    uint64_t deviceBytes = 0;
};

/** Lower an RNN model (see lower()). */
LoweredRnn lowerRnn(const nn::RnnModel &model, sim::DeviceMemory &mem,
                    bool upload_weights);

/** @return parameter bytes a layer needs on the device. */
uint64_t layerWeightBytes(const nn::Layer &l);

} // namespace tango::rt

#endif // TANGO_RUNTIME_LOWERING_HH
