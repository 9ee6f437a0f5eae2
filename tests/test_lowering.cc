/**
 * @file
 * Lowering tests: buffer allocation, concat aliasing, kernel counts and
 * Table III geometry propagation, weight-byte accounting, RNN lowering.
 */

#include <gtest/gtest.h>

#include <set>

#include "nn/models/models.hh"
#include "nn/weights.hh"
#include "runtime/lowering.hh"
#include "sim/memory.hh"

namespace tango::rt {
namespace {

using nn::models::buildAlexNet;
using nn::models::buildCifarNet;
using nn::models::buildSqueezeNet;

TEST(Lowering, CifarNetKernelCount)
{
    sim::DeviceMemory mem(1 << 28);
    const nn::Network net = buildCifarNet();
    const LoweredNet low = lower(net, mem, false);
    // 3 conv + 3 pool + 2 fc + softmax = 9 kernels (no tiling).
    EXPECT_EQ(low.kernels.size(), 9u);
}

TEST(Lowering, AlexNetTilingAndFilterSplits)
{
    sim::DeviceMemory mem(1 << 30);
    const nn::Network net = buildAlexNet();
    const LoweredNet low = lower(net, mem, false);
    // conv1: 4 tile kernels; norm1: 4 tile kernels; conv2: 2 filter
    // partitions; conv4: 2; conv5: 2; the rest single kernels.
    size_t conv1 = 0, norm1 = 0, conv2 = 0;
    for (const auto &k : low.kernels) {
        const std::string &n = k.launch.program->name;
        conv1 += n.rfind("alexnet.conv1", 0) == 0;
        norm1 += n.rfind("alexnet.norm1", 0) == 0;
        conv2 += n.rfind("alexnet.conv2", 0) == 0;
    }
    EXPECT_EQ(conv1, 4u);
    EXPECT_EQ(norm1, 4u);
    EXPECT_EQ(conv2, 2u);
    // Table III: conv1 kernels have 96 blocks of 32x32 / 32x23 / ...
    for (const auto &k : low.kernels) {
        if (k.launch.program->name.rfind("alexnet.conv1", 0) == 0) {
            EXPECT_EQ(k.launch.grid.x, 96u);
            EXPECT_TRUE(k.launch.block.x == 32 || k.launch.block.x == 23);
        }
    }
}

TEST(Lowering, SqueezeNetConcatAliasing)
{
    sim::DeviceMemory mem(1 << 30);
    const nn::Network net = buildSqueezeNet();
    const LoweredNet low = lower(net, mem, false);
    const auto &ls = net.layers();
    for (size_t i = 0; i < ls.size(); i++) {
        if (ls[i].concatInto < 0)
            continue;
        const size_t target = static_cast<size_t>(ls[i].concatInto);
        // The member's output lands inside the concat buffer.
        EXPECT_GE(low.layerOut[i], low.layerOut[target]);
        EXPECT_LT(low.layerOut[i],
                  low.layerOut[target] + 4 * ls[target].outputSize());
        // Offset is exactly channelOffset * plane.
        EXPECT_EQ(low.layerOut[i] - low.layerOut[target],
                  4u * ls[i].outChannelOffset * ls[target].P *
                      ls[target].Q);
    }
}

TEST(Lowering, WeightBytesAnalytic)
{
    nn::Layer conv;
    conv.kind = nn::LayerKind::Conv;
    conv.K = 8;
    conv.C = 3;
    conv.R = conv.S = 5;
    conv.bias = true;
    EXPECT_EQ(layerWeightBytes(conv), 4u * (8 * 3 * 25) + 4u * 8);
    conv.bias = false;
    EXPECT_EQ(layerWeightBytes(conv), 4u * (8 * 3 * 25));

    nn::Layer fc;
    fc.kind = nn::LayerKind::FC;
    fc.inN = 10;
    fc.outN = 4;
    fc.bias = true;
    EXPECT_EQ(layerWeightBytes(fc), 4u * 40 + 16u);

    nn::Layer relu;
    relu.kind = nn::LayerKind::ReLU;
    EXPECT_EQ(layerWeightBytes(relu), 0u);
}

TEST(Lowering, FootprintScalesWithModel)
{
    sim::DeviceMemory m1(2ULL << 30), m2(2ULL << 30);
    const LoweredNet cifar = lower(buildCifarNet(), m1, false);
    const LoweredNet alex = lower(buildAlexNet(), m2, false);
    EXPECT_GT(alex.deviceBytes, 100 * cifar.deviceBytes);
}

TEST(Lowering, LoopChannelSamplingShrinksConstK)
{
    sim::DeviceMemory mem(1 << 28);
    const nn::Network net = buildCifarNet();
    const LoweredNet low = lower(net, mem, false, /*max_loop_channels=*/8);
    // CifarNet convs loop over K in-thread; conv1 has K=32 -> scale 4.
    bool found = false;
    for (const auto &k : low.kernels) {
        if (k.launch.program->name == "cifarnet.conv1") {
            found = true;
            EXPECT_DOUBLE_EQ(k.workScale, 4.0);
            uint32_t constK = 0;
            std::memcpy(&constK, k.launch.constData.data() + 12, 4);
            EXPECT_EQ(constK, 8u);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Lowering, RnnPingPongBuffers)
{
    sim::DeviceMemory mem(1 << 24);
    nn::RnnModel gru = nn::models::buildGru();
    const LoweredRnn low = lowerRnn(gru, mem, false);
    // seqLen cell kernels + 1 readout.
    EXPECT_EQ(low.kernels.size(), gru.seqLen + 1u);
    EXPECT_NE(low.hAddr[0], low.hAddr[1]);
    // Step t reads h[t&1] and writes h[(t+1)&1].
    EXPECT_EQ(low.kernels[0].launch.params[1], low.hAddr[0]);
    EXPECT_EQ(low.kernels[0].launch.params[4], low.hAddr[1]);
    EXPECT_EQ(low.kernels[1].launch.params[1], low.hAddr[1]);
    EXPECT_EQ(low.kernels[1].launch.params[4], low.hAddr[0]);
    // The readout consumes the final hidden state.
    EXPECT_EQ(low.finalH, low.hAddr[gru.seqLen & 1]);
    EXPECT_EQ(low.kernels.back().launch.params[0], low.finalH);
}

TEST(Lowering, UploadRequiresWeights)
{
    sim::DeviceMemory mem(1 << 28);
    nn::Network net = buildCifarNet();
    nn::initWeights(net);
    const LoweredNet low = lower(net, mem, true);
    // Uploaded conv1 weights should be readable back from the device.
    // (Find the conv1 kernel's weight pointer: params[1].)
    for (const auto &k : low.kernels) {
        if (k.launch.program->name == "cifarnet.conv1") {
            const uint32_t w = k.launch.params[1];
            EXPECT_EQ(mem.read<float>(w), net.layers()[0].weights[0]);
        }
    }
}

// Every program a timing-only lowering emits for the suite must pass
// the value-oblivious proof, and its launches must carry the splice bit:
// without it, armed RNN replays silently go back to executing.
TEST(Lowering, TimingOnlySuiteLaunchesAreValuesUnobserved)
{
    for (const std::string &name : nn::models::runnableNames()) {
        sim::DeviceMemory mem;
        const nn::AnyModel model = nn::models::buildAny(name);
        const std::vector<LoweredKernel> kernels =
            model.isRnn() ? lowerRnn(model.rnn(), mem, false).kernels
                          : lower(model.cnn(), mem, false).kernels;
        ASSERT_FALSE(kernels.empty()) << name;
        std::set<const sim::Program *> programs;
        for (const LoweredKernel &k : kernels) {
            const sim::Program &p = *k.launch.program;
            EXPECT_TRUE(k.launch.valuesUnobserved) << p.name;
            if (programs.insert(&p).second) {
                EXPECT_TRUE(sim::valueOblivious(p)) << p.name;
            }
        }
    }
}

TEST(Lowering, FunctionalLaunchesAreNeverValuesUnobserved)
{
    sim::DeviceMemory mem(1 << 28);
    nn::Network net = buildCifarNet();
    nn::initWeights(net);
    for (const LoweredKernel &k : lower(net, mem, true).kernels)
        EXPECT_FALSE(k.launch.valuesUnobserved) << k.launch.program->name;
    nn::RnnModel gru = nn::models::buildGru();
    nn::initWeights(gru);
    for (const LoweredKernel &k : lowerRnn(gru, mem, true).kernels)
        EXPECT_FALSE(k.launch.valuesUnobserved) << k.launch.program->name;
}

} // namespace
} // namespace tango::rt
