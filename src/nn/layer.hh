/**
 * @file
 * Layer and network descriptions.
 *
 * A Layer couples three things:
 *  1. the layer's mathematical definition (kind + hyper-parameters +
 *     weight tensors) used by the CPU reference implementation;
 *  2. the dataflow graph edge list (producer indices);
 *  3. the *launch hint*: the grid/block mapping this layer uses on the
 *     GPU, reproducing the per-network kernel geometries of the paper's
 *     Table III (including AlexNet's multi-kernel output tiling).
 */

#ifndef TANGO_NN_LAYER_HH
#define TANGO_NN_LAYER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/kernels.hh"
#include "nn/tensor.hh"

namespace tango::nn {

/** Layer kinds implemented by the suite. */
enum class LayerKind : uint8_t {
    Input,      ///< placeholder for the network input
    Conv,
    Depthwise,  ///< per-channel conv (MobileNet extension)
    Pool,
    FC,
    LRN,        ///< AlexNet's across-channel normalization
    BatchNorm,
    Scale,
    ReLU,
    Eltwise,    ///< two-input addition (ResNet shortcut)
    Softmax,
    Concat      ///< channel concatenation (implemented as aliased outputs)
};

/** @return printable kind name. */
const char *layerKindName(LayerKind k);

/** One output-tile partition for multi-kernel launches (AlexNet conv1). */
struct TileSplit
{
    uint32_t tileX = 0, tileY = 0;  ///< output tile origin
    uint32_t bw = 0, bh = 0;        ///< blockDim for this partition
};

/** How a layer maps onto kernels (Table III geometry). */
struct LaunchHint
{
    kern::ChannelSrc chanSrc = kern::ChannelSrc::GridX;
    kern::PixelMap pixMap = kern::PixelMap::TileOrigin;
    kern::Dim3 grid{1, 1, 1};
    kern::Dim3 block{1, 1, 1};
    /** Output-tile partitions; empty = single kernel. */
    std::vector<TileSplit> tiles;
    /** Filter partitions (count per kernel); 0 = all in one kernel. */
    uint32_t filtersPerKernel = 0;
};

/** One network layer. */
struct Layer
{
    LayerKind kind = LayerKind::Input;
    std::string name;       ///< e.g. "conv2_1"
    std::string figType;    ///< figure bucket: Conv/Pooling/FC/Norm/Fire_*/...

    // Shapes: input (C,H,W) and output (K,P,Q); FC uses inN/outN.
    uint32_t C = 0, H = 0, W = 0;
    uint32_t K = 0, R = 0, S = 0;
    uint32_t stride = 1, pad = 0;
    uint32_t P = 0, Q = 0;
    uint32_t inN = 0, outN = 0;

    bool relu = false;      ///< fused ReLU
    bool avg = false;       ///< average pooling
    bool globalAvg = false;
    bool bias = true;

    // LRN / BatchNorm parameters.
    uint32_t localSize = 5;
    float alpha = 1e-4f, beta = 0.75f, lrnK = 2.0f;
    float eps = 1e-5f;

    /** Quantization extension (conv): weights shipped to the device as
     *  s16 Q-format with a per-layer scale; `weights` then holds the
     *  *dequantized* values so the CPU reference matches the kernel
     *  bit-for-bit. */
    bool quantWeights = false;
    float weightScale = 0.0f;
    Tensor weightsQ;        ///< integer weight values (stored as floats)

    // Parameters (filled by the weight store).
    Tensor weights;         ///< conv: (K,C,R,S); fc: (outN,inN)
    Tensor biasT;           ///< (K) or (outN)
    Tensor mean, var;       ///< BatchNorm
    Tensor gamma, betaT;    ///< Scale

    /** Producer layer indices (-1 = the network input). */
    std::vector<int> inputs{-1};

    /** Concat-target layer index: when >= 0 this layer's device output is
     *  written directly into that Concat layer's buffer (zero-copy). */
    int concatInto = -1;
    /** Channel offset within the concat target's buffer. */
    uint32_t outChannelOffset = 0;

    LaunchHint hint;

    /** @return output element count. */
    uint64_t outputSize() const;
    /** @return output shape (C,H,W) or (N). */
    std::vector<uint32_t> outputShape() const;
    /** @return multiply-accumulate count of this layer. */
    uint64_t macs() const;
    /** @return parameter (weight + bias) element count, from the layer
     *  shape: the elements initWeights() allocates, without allocating. */
    uint64_t paramCount() const;
};

} // namespace tango::nn

#endif // TANGO_NN_LAYER_HH
