/**
 * @file
 * Weight store tests: determinism, per-layer independence, weight-file
 * round trip, parameter counts from shapes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "nn/models/models.hh"
#include "nn/weights.hh"

namespace tango::nn {
namespace {

TEST(Weights, Deterministic)
{
    Network a = models::buildCifarNet();
    Network b = models::buildCifarNet();
    initWeights(a);
    initWeights(b);
    for (size_t i = 0; i < a.layers().size(); i++) {
        const Tensor &wa = a.layers()[i].weights;
        const Tensor &wb = b.layers()[i].weights;
        ASSERT_EQ(wa.size(), wb.size());
        for (uint64_t j = 0; j < wa.size(); j++)
            ASSERT_EQ(wa[j], wb[j]);
    }
}

TEST(Weights, PerLayerStreamsIndependent)
{
    // The same layer name in different networks gets different weights;
    // different layers in the same network get different weights.
    Network a = models::buildCifarNet();
    initWeights(a);
    const Tensor &w1 = a.layers()[0].weights;   // conv1
    const Tensor &w2 = a.layers()[2].weights;   // conv2
    bool differ = false;
    for (uint64_t j = 0; j < std::min(w1.size(), w2.size()); j++)
        differ |= (w1[j] != w2[j]);
    EXPECT_TRUE(differ);
}

TEST(Weights, ParamCountFromShapesMatchesInitializedTensors)
{
    // paramCount() reads the shapes; it must count exactly the elements
    // initWeights() allocates, for every layer of every network.
    for (const std::string &name : models::runnableNames()) {
        SCOPED_TRACE(name);
        AnyModel model = models::buildAny(name);
        if (model.isRnn()) {
            RnnModel &m = model.rnn();
            const uint64_t fromShape = m.paramCount();
            initWeights(m);
            EXPECT_EQ(fromShape,
                      m.weights.size() + m.fcW.size() + m.fcB.size());
            continue;
        }
        Network &net = model.cnn();
        std::vector<uint64_t> fromShape;
        for (const Layer &l : net.layers())
            fromShape.push_back(l.paramCount());
        initWeights(net);
        uint64_t total = 0;
        for (size_t i = 0; i < net.layers().size(); i++) {
            const Layer &l = net.layers()[i];
            const uint64_t tensors = l.weights.size() + l.biasT.size() +
                                     l.mean.size() + l.var.size() +
                                     l.gamma.size() + l.betaT.size();
            EXPECT_EQ(fromShape[i], tensors) << l.name;
            total += tensors;
        }
        EXPECT_EQ(net.totalParams(), total);
    }
}

TEST(Weights, HeInitScale)
{
    Network net = models::buildCifarNet();
    initWeights(net);
    const Layer &conv1 = net.layers()[0];
    // std should be ~sqrt(2/(3*5*5)) = 0.163.
    double sq = 0.0;
    for (uint64_t i = 0; i < conv1.weights.size(); i++)
        sq += double(conv1.weights[i]) * conv1.weights[i];
    const double std = std::sqrt(sq / conv1.weights.size());
    EXPECT_NEAR(std, std::sqrt(2.0 / 75.0), 0.02);
}

TEST(Weights, BatchNormVarPositive)
{
    Network net = models::buildResNet50();
    initWeights(net);
    for (const auto &l : net.layers()) {
        if (l.kind != LayerKind::BatchNorm)
            continue;
        for (uint64_t i = 0; i < l.var.size(); i++)
            ASSERT_GT(l.var[i], 0.0f);
    }
}

TEST(Weights, FileRoundTrip)
{
    const std::string dir = "test_weights_tmp";
    Network net = models::buildCifarNet();
    initWeights(net);
    const int written = saveWeightFiles(net, dir);
    EXPECT_GT(written, 0);

    // Load into a structurally identical but weightless network.
    Network fresh = models::buildCifarNet();
    const int read = loadWeightFiles(fresh, dir);
    EXPECT_EQ(read, written);
    for (size_t i = 0; i < net.layers().size(); i++) {
        const Tensor &a = net.layers()[i].weights;
        const Tensor &b = fresh.layers()[i].weights;
        ASSERT_EQ(a.size(), b.size()) << net.layers()[i].name;
        for (uint64_t j = 0; j < a.size(); j++)
            ASSERT_EQ(a[j], b[j]);
        const Tensor &ba = net.layers()[i].biasT;
        const Tensor &bb = fresh.layers()[i].biasT;
        ASSERT_EQ(ba.size(), bb.size());
        for (uint64_t j = 0; j < ba.size(); j++)
            ASSERT_EQ(ba[j], bb[j]);
    }
    std::filesystem::remove_all(dir);
}

TEST(Weights, LoadedNetworkComputesSameOutput)
{
    const std::string dir = "test_weights_tmp2";
    Network net = models::buildCifarNet();
    initWeights(net);
    saveWeightFiles(net, dir);
    Network fresh = models::buildCifarNet();
    loadWeightFiles(fresh, dir);

    const Tensor in = models::makeInputImage(3, 32, 32);
    const Tensor a = net.forward(in);
    const Tensor b = fresh.forward(in);
    for (uint64_t i = 0; i < a.size(); i++)
        EXPECT_EQ(a[i], b[i]);
    std::filesystem::remove_all(dir);
}

TEST(Weights, RnnPacking)
{
    RnnModel gru = models::buildGru();
    initWeights(gru);
    EXPECT_EQ(gru.weights.size(),
              3u * 100 * 1 + 3u * 100 * 100 + 3u * 100);
    RnnModel lstm = models::buildLstm();
    initWeights(lstm);
    EXPECT_EQ(lstm.weights.size(),
              4u * 100 * 1 + 4u * 100 * 100 + 4u * 100);
    EXPECT_EQ(lstm.fcW.size(), 100u);
    EXPECT_EQ(lstm.fcB.size(), 1u);
}

} // namespace
} // namespace tango::nn
