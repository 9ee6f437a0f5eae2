/**
 * @file
 * Golden-statistics regression harness.
 *
 * For each of the suite's seven networks a *reduced-geometry* variant
 * (same layer structure, same launch-hint style, tiny planes so the
 * "exact" full simulation finishes in milliseconds; the RNNs are cheap
 * enough to run unreduced) is simulated once and every NetRun counter —
 * cycles, stalls per reason, cache hits/misses, DRAM traffic, energy,
 * instruction mix — is compared field-by-field against a committed JSON
 * fixture in tests/golden/.
 *
 * The fixtures pin the simulator's statistics bit-for-bit: any change to
 * the timing model, the coalescer, the caches or the interpreter that
 * moves a single counter fails here with a per-field diff.  Intentional
 * model changes regenerate the corpus:
 *
 *     TANGO_UPDATE_GOLDEN=1 ctest -L golden
 *
 * (or the `golden-refresh` CMake preset), then commit tests/golden/.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics.hh"
#include "nn/models/models.hh"
#include "nn/weights.hh"
#include "runtime/run_cache.hh"
#include "runtime/runtime.hh"
#include "sim/gpu.hh"
#include "sim/shard.hh"

#ifndef TANGO_GOLDEN_DIR
#error "TANGO_GOLDEN_DIR must point at tests/golden"
#endif

namespace tango {
namespace {

using nn::Layer;
using nn::LayerKind;
using nn::LaunchHint;
using nn::Network;
using rt::NetRun;

// ------------------------------------------------------- reduced networks
//
// Each builder mirrors the real model's structure and Table III launch
// mapping (channel source, pixel map, tile splits, filter partitions) at
// a geometry small enough for exact simulation.  They intentionally
// exercise every layer kind the full suite uses: Conv, Pool, FC, LRN,
// BatchNorm, Scale, ReLU, Eltwise, Softmax and Concat.

/** CifarNet style: one block per layer, filters looped in-thread. */
LaunchHint
loopHint(uint32_t bx, uint32_t by)
{
    LaunchHint h;
    h.chanSrc = kern::ChannelSrc::Loop;
    h.pixMap = kern::PixelMap::TileOrigin;
    h.grid = {1, 1, 1};
    h.block = {bx, by, 1};
    return h;
}

/** SqueezeNet style: one block per output row, columns as threads. */
LaunchHint
rowHint(uint32_t p, uint32_t q)
{
    LaunchHint h;
    h.chanSrc = kern::ChannelSrc::Loop;
    h.pixMap = kern::PixelMap::RowBlock;
    h.grid = {p, 1, 1};
    h.block = {q, 1, 1};
    return h;
}

/** ResNet style: one block per channel, block strides over the plane. */
LaunchHint
strideHint(uint32_t channels, uint32_t bx, uint32_t by)
{
    LaunchHint h;
    h.chanSrc = kern::ChannelSrc::GridX;
    h.pixMap = kern::PixelMap::StrideLoop;
    h.grid = {channels, 1, 1};
    h.block = {bx, by, 1};
    return h;
}

/** VGG style: plane tiled over grid (x,y), channel on grid z. */
LaunchHint
gridXyHint(uint32_t channels, uint32_t p, uint32_t q, uint32_t tile)
{
    LaunchHint h;
    h.chanSrc = kern::ChannelSrc::GridZ;
    h.pixMap = kern::PixelMap::FromGridXY;
    h.grid = {(q + tile - 1) / tile, (p + tile - 1) / tile, channels};
    h.block = {tile, tile, 1};
    return h;
}

Network
goldenCifarNet()
{
    // conv -> maxpool -> conv+relu -> avgpool -> fc -> fc -> softmax on a
    // 3x8x8 input (real model: 3x32x32).
    Network net;
    net.name = "cifarnet";
    net.inC = 3;
    net.inH = net.inW = 8;

    int prev = -1;
    auto conv = [&](const std::string &name, uint32_t c, uint32_t hw,
                    uint32_t k, bool relu) {
        Layer l;
        l.kind = LayerKind::Conv;
        l.name = name;
        l.figType = "Conv";
        l.C = c;
        l.H = l.W = hw;
        l.K = k;
        l.R = l.S = 5;
        l.stride = 1;
        l.pad = 2;
        l.P = l.Q = hw;
        l.relu = relu;
        l.inputs = {prev};
        l.hint = loopHint(hw, hw);
        prev = net.add(l);
    };
    auto pool = [&](const std::string &name, uint32_t c, uint32_t hw,
                    bool avg) {
        Layer l;
        l.kind = LayerKind::Pool;
        l.name = name;
        l.figType = "Pooling";
        l.C = c;
        l.H = l.W = hw;
        l.R = l.S = 3;
        l.stride = 2;
        l.P = l.Q = (hw - 3) / 2 + 1;
        l.avg = avg;
        l.inputs = {prev};
        l.hint = loopHint(hw, hw);
        prev = net.add(l);
    };

    conv("conv1", 3, 8, 8, false);
    pool("pool1", 8, 8, false);   // -> 3x3
    conv("conv2", 8, 3, 8, true);
    pool("pool2", 8, 3, true);    // -> 1x1

    Layer fc1;
    fc1.kind = LayerKind::FC;
    fc1.name = "fc1";
    fc1.figType = "FC";
    fc1.inN = 8;
    fc1.outN = 8;
    fc1.inputs = {prev};
    fc1.hint.grid = {1, 1, 1};
    fc1.hint.block = {8, 1, 1};
    prev = net.add(fc1);

    Layer fc2;
    fc2.kind = LayerKind::FC;
    fc2.name = "fc2";
    fc2.figType = "FC";
    fc2.inN = 8;
    fc2.outN = 4;
    fc2.inputs = {prev};
    fc2.hint.grid = {1, 1, 1};
    fc2.hint.block = {32, 1, 1};
    prev = net.add(fc2);

    Layer sm;
    sm.kind = LayerKind::Softmax;
    sm.name = "softmax";
    sm.figType = "Others";
    sm.inN = sm.outN = 4;
    sm.inputs = {prev};
    sm.hint.grid = {1, 1, 1};
    sm.hint.block = {32, 1, 1};
    net.add(sm);
    return net;
}

Network
goldenAlexNet()
{
    // conv1(+tiles) -> LRN(+tiles) -> pool -> conv2 (filter split) ->
    // fc -> fc -> softmax on a 3x15x15 input (real model: 3x227x227,
    // 55x55 plane split into four tiles).
    Network net;
    net.name = "alexnet";
    net.inC = 3;
    net.inH = net.inW = 15;

    // 6x6 first-stage plane tiled 4+2 in both axes.
    const std::vector<nn::TileSplit> split6 = {
        {0, 0, 4, 4}, {4, 0, 2, 4}, {0, 4, 4, 2}, {4, 4, 2, 2}};

    int prev = -1;
    auto conv = [&](const std::string &name, uint32_t c, uint32_t hw,
                    uint32_t k, uint32_t rs, uint32_t stride, uint32_t pad,
                    uint32_t filtersPerKernel, uint32_t blockHw,
                    const std::vector<nn::TileSplit> &tiles) {
        Layer l;
        l.kind = LayerKind::Conv;
        l.name = name;
        l.figType = "Conv";
        l.C = c;
        l.H = l.W = hw;
        l.K = k;
        l.R = l.S = rs;
        l.stride = stride;
        l.pad = pad;
        l.P = l.Q = (hw + 2 * pad - rs) / stride + 1;
        l.relu = true;
        l.inputs = {prev};
        l.hint.chanSrc = kern::ChannelSrc::GridX;
        l.hint.pixMap = kern::PixelMap::TileOrigin;
        l.hint.filtersPerKernel = filtersPerKernel;
        l.hint.grid = {filtersPerKernel ? filtersPerKernel : k, 1, 1};
        l.hint.block = {blockHw, blockHw, 1};
        l.hint.tiles = tiles;
        prev = net.add(l);
    };

    conv("conv1", 3, 15, 8, 5, 2, 0, 0, 4, split6);   // -> 6x6

    Layer lrn;
    lrn.kind = LayerKind::LRN;
    lrn.name = "norm1";
    lrn.figType = "Norm";
    lrn.C = 8;
    lrn.H = lrn.W = 6;
    lrn.localSize = 5;
    lrn.inputs = {prev};
    lrn.hint.chanSrc = kern::ChannelSrc::GridX;
    lrn.hint.pixMap = kern::PixelMap::TileOrigin;
    lrn.hint.grid = {8, 1, 1};
    lrn.hint.block = {4, 4, 1};
    lrn.hint.tiles = split6;
    prev = net.add(lrn);

    Layer pool;
    pool.kind = LayerKind::Pool;
    pool.name = "pool1";
    pool.figType = "Pooling";
    pool.C = 8;
    pool.H = pool.W = 6;
    pool.R = pool.S = 3;
    pool.stride = 2;
    pool.P = pool.Q = 2;
    pool.inputs = {prev};
    pool.hint.chanSrc = kern::ChannelSrc::GridX;
    pool.hint.pixMap = kern::PixelMap::TileOrigin;
    pool.hint.grid = {8, 1, 1};
    pool.hint.block = {2, 2, 1};
    prev = net.add(pool);

    conv("conv2", 8, 2, 8, 3, 1, 1, 4, 2, {});

    auto fc = [&](const std::string &name, uint32_t in, uint32_t out,
                  bool relu) {
        Layer l;
        l.kind = LayerKind::FC;
        l.name = name;
        l.figType = "FC";
        l.inN = in;
        l.outN = out;
        l.relu = relu;
        l.inputs = {prev};
        l.hint.grid = {out, 1, 1};   // one single-thread block per neuron
        l.hint.block = {1, 1, 1};
        prev = net.add(l);
    };
    fc("fc6", 8 * 2 * 2, 8, true);
    fc("fc7", 8, 4, false);

    Layer sm;
    sm.kind = LayerKind::Softmax;
    sm.name = "softmax";
    sm.figType = "Others";
    sm.inN = sm.outN = 4;
    sm.inputs = {prev};
    sm.hint.grid = {1, 1, 1};
    sm.hint.block = {32, 1, 1};
    net.add(sm);
    return net;
}

Network
goldenSqueezeNet()
{
    // conv1 -> pool -> one fire module (squeeze + two expands + Concat)
    // -> conv10 -> global average pool on a 3x9x9 input.
    Network net;
    net.name = "squeezenet";
    net.inC = 3;
    net.inH = net.inW = 9;

    int prev = -1;
    auto conv = [&](const std::string &name, const std::string &fig,
                    uint32_t c, uint32_t hw, uint32_t k, uint32_t rs,
                    uint32_t pad, int from) {
        Layer l;
        l.kind = LayerKind::Conv;
        l.name = name;
        l.figType = fig;
        l.C = c;
        l.H = l.W = hw;
        l.K = k;
        l.R = l.S = rs;
        l.stride = 1;
        l.pad = pad;
        l.P = l.Q = hw + 2 * pad - rs + 1;
        l.relu = true;
        l.inputs = {from};
        l.hint = rowHint(l.P, l.Q);
        return net.add(l);
    };

    prev = conv("conv1", "Conv", 3, 9, 8, 3, 0, -1);   // -> 7x7

    Layer pl;
    pl.kind = LayerKind::Pool;
    pl.name = "pool1";
    pl.figType = "Pooling";
    pl.C = 8;
    pl.H = pl.W = 7;
    pl.R = pl.S = 3;
    pl.stride = 2;
    pl.P = pl.Q = 3;
    pl.inputs = {prev};
    pl.hint = rowHint(3, 3);
    prev = net.add(pl);

    // fire: squeeze 1x1 (4) -> expand 1x1 (8) || expand 3x3 (8) -> 16.
    const int sq = conv("fire2_squeeze1x1", "Fire_Squeeze", 8, 3, 4, 1, 0,
                        prev);
    const int x1 = conv("fire2_expand1x1", "Fire_Expand", 4, 3, 8, 1, 0,
                        sq);
    const int x3 = conv("fire2_expand3x3", "Fire_Expand", 4, 3, 8, 3, 1,
                        sq);
    Layer cc;
    cc.kind = LayerKind::Concat;
    cc.name = "fire2_concat";
    cc.figType = "Fire_Expand";
    cc.K = 16;
    cc.P = cc.Q = 3;
    cc.inputs = {x1, x3};
    const int cat = net.add(cc);
    net.layers()[x1].concatInto = cat;
    net.layers()[x1].outChannelOffset = 0;
    net.layers()[x3].concatInto = cat;
    net.layers()[x3].outChannelOffset = 8;
    prev = cat;

    prev = conv("conv10", "Conv", 16, 3, 10, 1, 0, prev);

    Layer gap;
    gap.kind = LayerKind::Pool;
    gap.name = "global_avg_pool";
    gap.figType = "Pooling";
    gap.C = 10;
    gap.H = gap.W = 3;
    gap.globalAvg = true;
    gap.avg = true;
    gap.P = gap.Q = 1;
    gap.inputs = {prev};
    gap.hint.grid = {1, 1, 1};
    gap.hint.block = {10, 1, 1};
    net.add(gap);
    return net;
}

Network
goldenResNet()
{
    // conv1 + BN/Scale/ReLU, one bottleneck block with an identity
    // Eltwise shortcut, global average pool, fc, softmax on 3x8x8.
    Network net;
    net.name = "resnet";
    net.inC = 3;
    net.inH = net.inW = 8;

    int prev = -1;
    auto conv = [&](const std::string &name, uint32_t c, uint32_t k,
                    uint32_t rs, uint32_t pad, int from) {
        Layer l;
        l.kind = LayerKind::Conv;
        l.name = name;
        l.figType = "Conv";
        l.C = c;
        l.H = l.W = 8;
        l.K = k;
        l.R = l.S = rs;
        l.stride = 1;
        l.pad = pad;
        l.P = l.Q = 8;
        l.bias = false;   // BN carries the bias
        l.inputs = {from};
        l.hint = strideHint(k, 8, 8);
        prev = net.add(l);
    };
    auto bnScale = [&](const std::string &base, uint32_t c, bool relu) {
        Layer bn;
        bn.kind = LayerKind::BatchNorm;
        bn.name = base + "_bn";
        bn.figType = "Norm";
        bn.C = c;
        bn.H = bn.W = 8;
        bn.inputs = {prev};
        bn.hint = strideHint(c, 8, 8);
        prev = net.add(bn);

        Layer sc;
        sc.kind = LayerKind::Scale;
        sc.name = base + "_scale";
        sc.figType = "Scale";
        sc.C = c;
        sc.H = sc.W = 8;
        sc.inputs = {prev};
        sc.hint = strideHint(c, 8, 8);
        prev = net.add(sc);

        if (relu) {
            Layer re;
            re.kind = LayerKind::ReLU;
            re.name = base + "_relu";
            re.figType = "Relu";
            re.C = c;
            re.H = re.W = 8;
            re.inputs = {prev};
            re.hint = strideHint(c, 8, 8);
            prev = net.add(re);
        }
    };

    conv("conv1", 3, 8, 3, 1, -1);
    bnScale("conv1", 8, true);
    const int trunk = prev;

    conv("res2a_branch2a", 8, 4, 1, 0, trunk);
    bnScale("res2a_branch2a", 4, true);
    conv("res2a_branch2b", 4, 4, 3, 1, prev);
    bnScale("res2a_branch2b", 4, true);
    conv("res2a_branch2c", 4, 8, 1, 0, prev);
    bnScale("res2a_branch2c", 8, false);

    Layer el;
    el.kind = LayerKind::Eltwise;
    el.name = "res2a";
    el.figType = "Eltwise";
    el.C = 8;
    el.H = el.W = 8;
    el.inputs = {prev, trunk};
    el.hint = strideHint(8, 8, 8);
    prev = net.add(el);

    Layer re;
    re.kind = LayerKind::ReLU;
    re.name = "res2a_relu";
    re.figType = "Relu";
    re.C = 8;
    re.H = re.W = 8;
    re.inputs = {prev};
    re.hint = strideHint(8, 8, 8);
    prev = net.add(re);

    Layer gap;
    gap.kind = LayerKind::Pool;
    gap.name = "pool5";
    gap.figType = "Pooling";
    gap.C = 8;
    gap.H = gap.W = 8;
    gap.globalAvg = true;
    gap.avg = true;
    gap.P = gap.Q = 1;
    gap.inputs = {prev};
    gap.hint.grid = {2, 1, 1};
    gap.hint.block = {32, 1, 1};
    gap.hint.chanSrc = kern::ChannelSrc::GridX;
    prev = net.add(gap);

    Layer fc;
    fc.kind = LayerKind::FC;
    fc.name = "fc";
    fc.figType = "FC";
    fc.inN = 8;
    fc.outN = 4;
    fc.inputs = {prev};
    fc.hint.grid = {4, 1, 1};
    fc.hint.block = {1, 1, 1};
    prev = net.add(fc);

    Layer sm;
    sm.kind = LayerKind::Softmax;
    sm.name = "softmax";
    sm.figType = "Others";
    sm.inN = sm.outN = 4;
    sm.inputs = {prev};
    sm.hint.grid = {1, 1, 1};
    sm.hint.block = {32, 1, 1};
    net.add(sm);
    return net;
}

Network
goldenVggNet()
{
    // Two conv/pool stages then the 3D-grid FC head on a 3x8x8 input
    // (real model: 13 conv + 3 FC on 3x224x224).
    Network net;
    net.name = "vggnet";
    net.inC = 3;
    net.inH = net.inW = 8;

    int prev = -1;
    uint32_t c = 3, h = 8;
    auto conv = [&](const std::string &name, uint32_t k) {
        Layer l;
        l.kind = LayerKind::Conv;
        l.name = name;
        l.figType = "Conv";
        l.C = c;
        l.H = l.W = h;
        l.K = k;
        l.R = l.S = 3;
        l.stride = 1;
        l.pad = 1;
        l.P = l.Q = h;
        l.relu = true;
        l.inputs = {prev};
        l.hint = gridXyHint(k, h, h, 2);
        prev = net.add(l);
        c = k;
    };
    auto pool = [&](const std::string &name) {
        Layer l;
        l.kind = LayerKind::Pool;
        l.name = name;
        l.figType = "Pooling";
        l.C = c;
        l.H = l.W = h;
        l.R = l.S = 2;
        l.stride = 2;
        l.P = l.Q = h / 2;
        l.inputs = {prev};
        l.hint = gridXyHint(c, l.P, l.Q, 2);
        prev = net.add(l);
        h /= 2;
    };

    conv("conv1_1", 4);
    conv("conv1_2", 4);
    pool("pool1");        // -> 4
    conv("conv2_1", 8);
    pool("pool2");        // -> 2

    Layer fc6;
    fc6.kind = LayerKind::FC;
    fc6.name = "fc6";
    fc6.figType = "FC";
    fc6.inN = 8 * 2 * 2;
    fc6.outN = 8;
    fc6.relu = true;
    fc6.inputs = {prev};
    fc6.hint.grid = {2, 1, 2};   // 3D FC grid like the real fc6/fc7
    fc6.hint.block = {2, 1, 1};
    prev = net.add(fc6);

    Layer fc7;
    fc7.kind = LayerKind::FC;
    fc7.name = "fc7";
    fc7.figType = "FC";
    fc7.inN = 8;
    fc7.outN = 4;
    fc7.inputs = {prev};
    fc7.hint.grid = {1, 1, 1};
    fc7.hint.block = {2, 2, 1};
    prev = net.add(fc7);

    Layer sm;
    sm.kind = LayerKind::Softmax;
    sm.name = "softmax";
    sm.figType = "Others";
    sm.inN = sm.outN = 4;
    sm.inputs = {prev};
    sm.hint.grid = {1, 1, 1};
    sm.hint.block = {32, 1, 1};
    net.add(sm);
    return net;
}

/** MobileNet style (no fixture of its own): stem conv, two depthwise-
 *  separable blocks, global average pool, classifier, on a 3x8x8 input
 *  (real model: 3x224x224, 13 blocks). */
Network
reducedMobileNet()
{
    Network net;
    net.name = "mobilenet";
    net.inC = 3;
    net.inH = net.inW = 8;

    int prev = -1;
    uint32_t c = 3, h = 8;
    auto add = [&](LayerKind kind, const std::string &name, uint32_t k,
                   uint32_t rs, uint32_t stride) {
        Layer l;
        l.kind = kind;
        l.name = name;
        l.figType = "Conv";
        l.C = c;
        l.H = l.W = h;
        l.K = k;
        l.R = l.S = rs;
        l.stride = stride;
        l.pad = rs / 2;
        l.P = l.Q = (h + 2 * l.pad - rs) / stride + 1;
        l.relu = true;
        l.inputs = {prev};
        l.hint = strideHint(k, 4, 4);
        prev = net.add(l);
        c = k;
        h = l.P;
    };
    add(LayerKind::Conv, "conv1", 8, 3, 2);            // -> 4x4
    add(LayerKind::Depthwise, "conv2_dw", 8, 3, 1);
    add(LayerKind::Conv, "conv2_pw", 16, 1, 1);
    add(LayerKind::Depthwise, "conv3_dw", 16, 3, 2);   // -> 2x2
    add(LayerKind::Conv, "conv3_pw", 16, 1, 1);

    Layer gap;
    gap.kind = LayerKind::Pool;
    gap.name = "global_avg_pool";
    gap.figType = "Pooling";
    gap.C = c;
    gap.H = gap.W = h;
    gap.globalAvg = true;
    gap.avg = true;
    gap.P = gap.Q = 1;
    gap.inputs = {prev};
    gap.hint.grid = {1, 1, 1};
    gap.hint.block = {c, 1, 1};
    prev = net.add(gap);

    Layer fc;
    fc.kind = LayerKind::FC;
    fc.name = "fc";
    fc.figType = "FC";
    fc.inN = c;
    fc.outN = 4;
    fc.inputs = {prev};
    fc.hint.grid = {4, 1, 1};
    fc.hint.block = {1, 1, 1};
    prev = net.add(fc);

    Layer sm;
    sm.kind = LayerKind::Softmax;
    sm.name = "softmax";
    sm.figType = "Others";
    sm.inN = sm.outN = 4;
    sm.inputs = {prev};
    sm.hint.grid = {1, 1, 1};
    sm.hint.block = {32, 1, 1};
    net.add(sm);
    return net;
}

nn::AnyModel
buildGoldenModel(const std::string &name)
{
    if (name == "cifarnet")
        return nn::AnyModel(goldenCifarNet());
    if (name == "alexnet")
        return nn::AnyModel(goldenAlexNet());
    if (name == "squeezenet")
        return nn::AnyModel(goldenSqueezeNet());
    if (name == "resnet")
        return nn::AnyModel(goldenResNet());
    if (name == "vggnet")
        return nn::AnyModel(goldenVggNet());
    if (name == "gru")
        return nn::AnyModel(nn::models::buildGru());
    if (name == "lstm")
        return nn::AnyModel(nn::models::buildLstm());
    ADD_FAILURE() << "unknown golden network " << name;
    return nn::AnyModel(Network{});
}

// ------------------------------------------------------ field-level diff

/** Accumulates `path: golden=<v> actual=<v>` lines. */
class Diff
{
  public:
    void num(const std::string &path, double golden, double actual)
    {
        // Bit comparison: the fixture format round-trips doubles exactly,
        // so even a 1-ulp drift in any statistic is a failure.
        if (std::memcmp(&golden, &actual, sizeof golden) == 0)
            return;
        char buf[128];
        std::snprintf(buf, sizeof buf, "golden=%.17g actual=%.17g", golden,
                      actual);
        lines.push_back(path + ": " + buf);
    }
    void u64(const std::string &path, uint64_t golden, uint64_t actual)
    {
        if (golden != actual) {
            lines.push_back(path + ": golden=" + std::to_string(golden) +
                            " actual=" + std::to_string(actual));
        }
    }
    void str(const std::string &path, const std::string &golden,
             const std::string &actual)
    {
        if (golden != actual)
            lines.push_back(path + ": golden='" + golden + "' actual='" +
                            actual + "'");
    }
    /** Launch-memoization meta-counters record how launches were *served*
     *  (replayed vs simulated), not what they simulated; they are the one
     *  legitimate difference between memo-on and memo-off runs and are
     *  excluded from every fixture comparison. */
    static bool isMetaStat(const std::string &name)
    {
        return name == "mem.replayed_launches" ||
               name == "mem.simulated_launches";
    }

    void statSet(const std::string &path, const StatSet &golden,
                 const StatSet &actual)
    {
        for (const auto &[name, gv] : golden.all()) {
            if (!isMetaStat(name))
                num(path + "[\"" + name + "\"]", gv, actual.get(name));
        }
        for (const auto &[name, av] : actual.all()) {
            if (!golden.all().count(name) && !isMetaStat(name))
                lines.push_back(path + "[\"" + name +
                                "\"]: golden=<absent> actual=" +
                                std::to_string(av));
        }
    }

    std::vector<std::string> lines;
};

void
diffKernel(Diff &d, const std::string &p, const sim::KernelStats &g,
           const sim::KernelStats &a)
{
    d.str(p + ".name", g.name, a.name);
    d.u64(p + ".grid.x", g.grid.x, a.grid.x);
    d.u64(p + ".grid.y", g.grid.y, a.grid.y);
    d.u64(p + ".grid.z", g.grid.z, a.grid.z);
    d.u64(p + ".block.x", g.block.x, a.block.x);
    d.u64(p + ".block.y", g.block.y, a.block.y);
    d.u64(p + ".block.z", g.block.z, a.block.z);
    d.u64(p + ".totalCtas", g.totalCtas, a.totalCtas);
    d.u64(p + ".sampledCtas", g.sampledCtas, a.sampledCtas);
    d.u64(p + ".totalWarpsPerCta", g.totalWarpsPerCta, a.totalWarpsPerCta);
    d.u64(p + ".sampledWarpsPerCta", g.sampledWarpsPerCta,
          a.sampledWarpsPerCta);
    d.num(p + ".scale", g.scale, a.scale);
    d.u64(p + ".smCycles", g.smCycles, a.smCycles);
    d.num(p + ".gpuCycles", g.gpuCycles, a.gpuCycles);
    d.num(p + ".timeSec", g.timeSec, a.timeSec);
    d.u64(p + ".activeSms", g.activeSms, a.activeSms);
    d.statSet(p + ".stats", g.stats, a.stats);
    d.u64(p + ".regsPerThread", g.regsPerThread, a.regsPerThread);
    d.u64(p + ".maxLiveRegs", g.maxLiveRegs, a.maxLiveRegs);
    d.u64(p + ".smemBytes", g.smemBytes, a.smemBytes);
    d.u64(p + ".cmemBytes", g.cmemBytes, a.cmemBytes);
    d.u64(p + ".residentCtas", g.residentCtas, a.residentCtas);
    d.u64(p + ".occupancyCtas", g.occupancyCtas, a.occupancyCtas);
    d.num(p + ".peakPowerW", g.peakPowerW, a.peakPowerW);
    d.num(p + ".avgPowerW", g.avgPowerW, a.avgPowerW);
    d.num(p + ".energyJ", g.energyJ, a.energyJ);
    d.num(p + ".peakWindowDynW", g.peakWindowDynW, a.peakWindowDynW);
}

std::vector<std::string>
diffNetRun(const NetRun &g, const NetRun &a)
{
    Diff d;
    d.str("netName", g.netName, a.netName);
    d.u64("deviceBytes", g.deviceBytes, a.deviceBytes);
    d.statSet("totals", g.totals, a.totals);
    d.num("totalTimeSec", g.totalTimeSec, a.totalTimeSec);
    d.num("totalEnergyJ", g.totalEnergyJ, a.totalEnergyJ);
    d.num("peakPowerW", g.peakPowerW, a.peakPowerW);
    d.u64("maxRegsPerThread", g.maxRegsPerThread, a.maxRegsPerThread);
    d.u64("maxLiveRegs", g.maxLiveRegs, a.maxLiveRegs);
    d.u64("maxResidentWarps", g.maxResidentWarps, a.maxResidentWarps);
    d.u64("checkFailures", g.checkFailures, a.checkFailures);
    d.u64("layers.size", g.layers.size(), a.layers.size());
    const size_t nl = std::min(g.layers.size(), a.layers.size());
    for (size_t i = 0; i < nl; i++) {
        const auto &gl = g.layers[i];
        const auto &al = a.layers[i];
        const std::string p = "layers[" + std::to_string(i) + "]";
        d.u64(p + ".layerIndex", uint64_t(gl.layerIndex),
              uint64_t(al.layerIndex));
        d.str(p + ".name", gl.name, al.name);
        d.str(p + ".figType", gl.figType, al.figType);
        d.u64(p + ".kernels.size", gl.kernels.size(), al.kernels.size());
        const size_t nk = std::min(gl.kernels.size(), al.kernels.size());
        for (size_t k = 0; k < nk; k++) {
            diffKernel(d, p + ".kernels[" + std::to_string(k) + "]",
                       gl.kernels[k], al.kernels[k]);
        }
    }
    return d.lines;
}

// ------------------------------------------------------------ the driver

/**
 * Platform variants pinned beside the default GP102/GTO/64 KB-L1D corpus,
 * so every warp scheduler and the L1D-bypass path are held bit-exact:
 * "" (the default), "lrr", "tlv" and "l1off" (l1dBytes = 0).  A variant's
 * fixture is <net>.<variant>.json (.k<K> appended as for the base set),
 * except where the variant is checked against the default fixture
 * (checkGoldenAsDefault).
 */
sim::GpuConfig
goldenConfig(const std::string &variant)
{
    sim::GpuConfig cfg = sim::pascalGP102();
    if (variant == "lrr")
        cfg.scheduler = sim::SchedPolicy::LRR;
    else if (variant == "tlv")
        cfg.scheduler = sim::SchedPolicy::TLV;
    else if (variant == "l1off")
        cfg.l1dBytes = 0;
    else
        EXPECT_EQ(variant, "") << "unknown golden variant";
    return cfg;
}

std::string
fixturePath(const std::string &name)
{
    // Intra-run sharding (TANGO_SIM_SHARDS, sim/shard.hh) changes the
    // simulated statistics above K=1 by design, so each shard count is
    // pinned by its own fixture corpus: <net>.json for the sequential
    // run, <net>.k<K>.json for K>1.  scripts/ci.sh runs the golden
    // label across the {1,2,4} matrix.
    std::string file = name;
    const uint32_t k = sim::envSimShards();
    if (k > 1)
        file += ".k" + std::to_string(k);
    return std::string(TANGO_GOLDEN_DIR) + "/" + file + ".json";
}

bool
updateMode()
{
    const char *env = std::getenv("TANGO_UPDATE_GOLDEN");
    return env && env[0] && std::string(env) != "0";
}

NetRun
runGolden(const std::string &name, const std::string &variant = "")
{
    sim::Gpu gpu(goldenConfig(variant));
    nn::AnyModel model = buildGoldenModel(name);
    nn::initWeights(model);

    // "exact": full cycle-accurate simulation of every CTA.  functional
    // keeps the data path deterministic end to end (synthetic inputs,
    // reference outputs re-written after each layer).
    rt::RunPolicy policy = rt::RunPolicy::named("exact");
    policy.functional = true;

    rt::Runtime rtm(gpu);
    return rtm.run(model, policy);
}

/** Fail with a per-field diff unless @p actual has @p golden's
 *  statistics; @p source names where @p golden came from. */
void
expectSameStats(const NetRun &golden, const NetRun &actual,
                const std::string &source)
{
    const std::vector<std::string> diffs = diffNetRun(golden, actual);
    if (!diffs.empty()) {
        std::string msg = "simulator statistics drifted from " + source +
                          " (" + std::to_string(diffs.size()) +
                          " fields;"
                          " if intentional, TANGO_UPDATE_GOLDEN=1):";
        for (const auto &line : diffs)
            msg += "\n  " + line;
        FAIL() << msg;
    }
}

void
expectFixture(const std::string &path, const NetRun &actual)
{
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden fixture " << path
        << " — regenerate with TANGO_UPDATE_GOLDEN=1 (ctest -L golden)";
    std::stringstream ss;
    ss << in.rdbuf();

    NetRun golden;
    ASSERT_TRUE(rt::parseNetRunJson(ss.str(), golden))
        << "malformed golden fixture " << path;
    expectSameStats(golden, actual, path);
}

void
checkGolden(const std::string &name, const std::string &variant = "")
{
    const NetRun actual = runGolden(name, variant);
    const std::string path =
        fixturePath(variant.empty() ? name : name + "." + variant);

    if (updateMode()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << rt::serializeNetRun(actual) << "\n";
        ASSERT_TRUE(out.good()) << "short write to " << path;
        std::printf("[golden] regenerated %s\n", path.c_str());
        return;
    }
    expectFixture(path, actual);
}

/**
 * For a variant whose statistics equal the default run's (the reduced
 * CifarNet keeps at most 2 warps resident, so LRR and TLV pick what GTO
 * picks): compared with the default fixture <name>.json.  It never
 * writes a fixture; under TANGO_UPDATE_GOLDEN=1 it is compared with a
 * fresh default run instead, so the equality still holds after a
 * refresh and <name>.json is only ever written by the default run.
 */
void
checkGoldenAsDefault(const std::string &name, const std::string &variant)
{
    const NetRun actual = runGolden(name, variant);
    if (updateMode())
        expectSameStats(runGolden(name), actual, "the default run");
    else
        expectFixture(fixturePath(name), actual);
}

// The comparator itself must treat a serialize/parse round trip as
// identity, or fixture comparisons would report phantom drift.
TEST(GoldenStats, RoundTripIsIdentity)
{
    const NetRun run = runGolden("cifarnet");
    NetRun back;
    ASSERT_TRUE(rt::parseNetRunJson(rt::serializeNetRun(run), back));
    const std::vector<std::string> diffs = diffNetRun(run, back);
    EXPECT_TRUE(diffs.empty())
        << "round trip changed " << diffs.size() << " fields, e.g. "
        << diffs.front();
}

TEST(GoldenStats, CifarNet) { checkGolden("cifarnet"); }
TEST(GoldenStats, AlexNet) { checkGolden("alexnet"); }
TEST(GoldenStats, SqueezeNet) { checkGolden("squeezenet"); }
TEST(GoldenStats, ResNet) { checkGolden("resnet"); }
TEST(GoldenStats, VggNet) { checkGolden("vggnet"); }
TEST(GoldenStats, Gru) { checkGolden("gru"); }
TEST(GoldenStats, Lstm) { checkGolden("lstm"); }
TEST(GoldenStats, CifarNetLrr) { checkGoldenAsDefault("cifarnet", "lrr"); }
TEST(GoldenStats, CifarNetTlv) { checkGoldenAsDefault("cifarnet", "tlv"); }
TEST(GoldenStats, AlexNetLrr) { checkGolden("alexnet", "lrr"); }
TEST(GoldenStats, AlexNetTlv) { checkGolden("alexnet", "tlv"); }
TEST(GoldenStats, AlexNetL1Off) { checkGolden("alexnet", "l1off"); }
// 16 resident slots: TLV's active set of 8 fills and must demote.
TEST(GoldenStats, ResNetTlv) { checkGolden("resnet", "tlv"); }

/** RAII TANGO_NO_MEMO=1: force-disables launch memoization for one run. */
struct ScopedNoMemo
{
    ScopedNoMemo() { setenv("TANGO_NO_MEMO", "1", 1); }
    ~ScopedNoMemo() { unsetenv("TANGO_NO_MEMO"); }
};

/** Every statistic must be bit-identical whether launches were replayed
 *  by the memoization layer (the default) or fully simulated
 *  (TANGO_NO_MEMO=1) — replay is a pure execution shortcut, never a
 *  model change.  Only the mem.*_launches meta-counters may differ. */
TEST(GoldenStats, MemoOnAndOffAreBitIdentical)
{
    for (const std::string name : {"cifarnet", "alexnet", "squeezenet",
                                   "resnet", "vggnet", "gru", "lstm"}) {
        const NetRun on = runGolden(name);
        NetRun off;
        {
            ScopedNoMemo guard;
            off = runGolden(name);
        }
        const std::vector<std::string> diffs = diffNetRun(off, on);
        EXPECT_TRUE(diffs.empty())
            << name << ": memo-on run drifted from memo-off in "
            << diffs.size() << " fields, e.g. " << diffs.front();
        EXPECT_EQ(off.totals.get("mem.replayed_launches"), 0.0)
            << name << ": TANGO_NO_MEMO=1 must fully simulate";
    }
}

/** The RNNs' repeated cell launches must actually be served by replay:
 *  signatures alternate between two h/c ping-pong parities, each parity
 *  arms after three occurrences, so seqLen=32 yields 26 replayed cells. */
TEST(GoldenStats, RnnSteadyStateIsReplayed)
{
    for (const std::string name : {"gru", "lstm"}) {
        const NetRun run = runGolden(name);
        EXPECT_GT(run.totals.get("mem.replayed_launches"), 0.0)
            << name << ": no launch was replayed";
        // 3 warm-up occurrences per parity + 1 FC readout full-sim.
        EXPECT_EQ(run.totals.get("mem.replayed_launches") +
                      run.totals.get("mem.simulated_launches"),
                  double(nn::models::kDefaultRnnSeqLen + 1));
        EXPECT_EQ(run.totals.get("mem.simulated_launches"), 7.0)
            << name << ": steady state should arm after 3 occurrences "
                       "of each launch-signature parity";
        // Replayed kernels are marked; the readout is not.
        EXPECT_TRUE(run.layers.back().kernels.back().replayed == false);
    }
}

/** Timing-only RNN runs splice their armed replays without executing
 *  them (KernelLaunch::valuesUnobserved, set by lowering).  Every
 *  statistic must still match a fully simulated TANGO_NO_MEMO=1 run bit
 *  for bit, and no replay may disagree with its steady state. */
TEST(GoldenStats, TimingOnlyRnnSplicedReplaysMatchMemoOff)
{
    const metrics::Counter &mismatches =
        metrics::counter("tango_sim_memo_mismatches_total", "");
    const uint64_t mismatches0 = mismatches.value();
    for (const std::string name : {"gru", "lstm"}) {
        const auto run = [&] {
            sim::Gpu gpu(sim::pascalGP102());
            rt::Runtime rtm(gpu);
            nn::AnyModel model(name == "gru" ? nn::models::buildGru(64)
                                             : nn::models::buildLstm(64));
            return rtm.run(model, rt::RunPolicy::named("exact"));
        };
        const NetRun on = run();
        NetRun off;
        {
            ScopedNoMemo guard;
            off = run();
        }
        EXPECT_GT(on.totals.get("mem.replayed_launches"), 0.0) << name;
        EXPECT_EQ(off.totals.get("mem.replayed_launches"), 0.0) << name;
        const std::vector<std::string> diffs = diffNetRun(off, on);
        EXPECT_TRUE(diffs.empty())
            << name << ": spliced run drifted from memo-off in "
            << diffs.size() << " fields, e.g. " << diffs.front();
    }
    EXPECT_EQ(mismatches.value(), mismatches0);
}


/**
 * Timing-only run of @p model with one LayerRun per launch, launching
 * each kernel as lowering produced it or, with @p keep_unobserved false,
 * with KernelLaunch::valuesUnobserved cleared (the full data path).
 */
NetRun
timingOnlyRun(const nn::AnyModel &model, bool keep_unobserved)
{
    sim::Gpu gpu(sim::pascalGP102());
    std::vector<rt::LoweredKernel> kernels =
        model.isRnn() ? rt::lowerRnn(model.rnn(), gpu.mem(), false).kernels
                      : rt::lower(model.cnn(), gpu.mem(), false).kernels;
    const sim::SimPolicy policy = rt::RunPolicy::named("exact").sim;
    NetRun run;
    run.netName = model.name();
    for (rt::LoweredKernel &k : kernels) {
        EXPECT_TRUE(k.launch.valuesUnobserved) << k.launch.program->name;
        k.launch.valuesUnobserved &= keep_unobserved;
        rt::LayerRun lr;
        lr.layerIndex = k.layerIndex;
        lr.name = k.launch.program->name;
        lr.figType = k.figType;
        lr.kernels.push_back(gpu.launch(k.launch, policy));
        run.layers.push_back(std::move(lr));
    }
    return run;
}

/** Timing-only launches drop the data of value-dead instructions
 *  (DecodedInstr::valueDead); no statistic may notice.  Each runnable
 *  network, at reduced size, runs its lowering as produced and again
 *  with valuesUnobserved cleared. */
TEST(GoldenStats, DroppedDeadValuesAreUnobservable)
{
    for (const std::string name : nn::models::runnableNames()) {
        const nn::AnyModel model = name == "mobilenet"
                                       ? nn::AnyModel(reducedMobileNet())
                                       : buildGoldenModel(name);
        const NetRun dropped = timingOnlyRun(model, true);
        const NetRun full = timingOnlyRun(model, false);
        EXPECT_GT(dropped.layers.size(), 0u) << name;
        const std::vector<std::string> diffs = diffNetRun(full, dropped);
        EXPECT_TRUE(diffs.empty())
            << name << ": dropping dead values moved " << diffs.size()
            << " fields, e.g. " << diffs.front();
    }
}

} // namespace
} // namespace tango
