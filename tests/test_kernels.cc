/**
 * @file
 * End-to-end kernel correctness: every layer kernel is executed fully
 * (all CTAs, cycle-level) on the virtual GPU and its device output is
 * compared against the CPU reference implementation — across all four
 * pixel mappings and all three channel sources of Table III.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "kernels/kernels.hh"
#include "nn/network.hh"
#include "sim/gpu.hh"

namespace tango {
namespace {

using kern::ChannelSrc;
using kern::PixelMap;
using nn::Layer;
using nn::LayerKind;
using nn::Tensor;
using sim::Gpu;
using sim::SimPolicy;

SimPolicy
fullSim()
{
    SimPolicy p;
    p.fullSim = true;
    return p;
}

Tensor
randomTensor(std::vector<uint32_t> shape, uint64_t seed, float scale = 1.f)
{
    Tensor t(std::move(shape));
    Rng rng(seed);
    for (uint64_t i = 0; i < t.size(); i++)
        t[i] = rng.gaussian() * scale;
    return t;
}

uint32_t
upload(Gpu &gpu, const Tensor &t)
{
    const uint32_t addr =
        gpu.mem().allocate(std::max<uint64_t>(t.bytes(), 4));
    if (t.size())
        gpu.mem().copyIn(addr, t.data(), t.bytes());
    return addr;
}

void
expectMatches(const Gpu &gpu, uint32_t addr, const Tensor &ref, float tol,
              const char *what)
{
    uint64_t bad = 0;
    for (uint64_t i = 0; i < ref.size(); i++) {
        const float got = gpu.mem().read<float>(addr + 4 * i);
        const float err = std::fabs(got - ref[i]);
        const float lim = tol * std::max(1.0f, std::fabs(ref[i]));
        if (!(err <= lim)) {
            if (bad < 5) {
                ADD_FAILURE() << what << "[" << i << "]: got " << got
                              << " want " << ref[i];
            }
            bad++;
        }
    }
    EXPECT_EQ(bad, 0u) << what;
}

// ---------------------------------------------------------------------
// Convolution across every mapping.

struct ConvCase
{
    const char *name;
    ChannelSrc chan;
    PixelMap pix;
};

// Print a case by its name: gtest's default byte dump would put the
// string pointer and padding bytes into the listed test names, which
// then differ from one run to the next.
void
PrintTo(const ConvCase &cs, std::ostream *os)
{
    *os << cs.name;
}

class ConvMapping : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvMapping, MatchesReference)
{
    const ConvCase &cs = GetParam();

    Layer l;
    l.kind = LayerKind::Conv;
    l.name = "conv";
    l.C = 3;
    l.H = l.W = 12;
    l.K = 4;
    l.R = l.S = 3;
    l.stride = 1;
    l.pad = 1;
    l.P = l.Q = 12;
    l.relu = true;
    l.weights = randomTensor({l.K, l.C, l.R, l.S}, 1, 0.3f);
    l.biasT = randomTensor({l.K}, 2, 0.1f);

    const Tensor in = randomTensor({l.C, l.H, l.W}, 3);
    const Tensor ref = referenceForward(l, {&in});

    Gpu gpu(sim::pascalGP102());
    const uint32_t inA = upload(gpu, in);
    const uint32_t wA = upload(gpu, l.weights);
    const uint32_t bA = upload(gpu, l.biasT);
    Tensor outT({l.K, l.P, l.Q});
    const uint32_t outA = upload(gpu, outT);

    kern::ConvDesc d;
    d.name = cs.name;
    d.C = l.C;
    d.H = l.H;
    d.W = l.W;
    d.K = l.K;
    d.R = l.R;
    d.S = l.S;
    d.stride = l.stride;
    d.pad = l.pad;
    d.relu = l.relu;
    d.filterSrc = cs.chan;
    d.pixelMap = cs.pix;
    switch (cs.pix) {
      case PixelMap::TileOrigin:
        d.block = {l.Q, l.P, 1};
        break;
      case PixelMap::FromGridXY:
        d.block = {4, 4, 1};
        break;
      case PixelMap::RowBlock:
        d.block = {l.Q, 1, 1};
        break;
      case PixelMap::StrideLoop:
        d.block = {8, 8, 1};
        break;
    }
    // Grid: channels where needed, tiles where needed.
    d.grid = {1, 1, 1};
    if (cs.pix == PixelMap::FromGridXY)
        d.grid = {3, 3, 1};
    if (cs.pix == PixelMap::RowBlock)
        d.grid = {l.P, 1, 1};
    switch (cs.chan) {
      case ChannelSrc::GridX:
        ASSERT_NE(cs.pix, PixelMap::RowBlock);
        d.grid.x = l.K;
        break;
      case ChannelSrc::GridZ:
        d.grid.z = l.K;
        break;
      case ChannelSrc::Loop:
        break;
    }

    auto launch = kern::makeConvLaunch(d, inA, wA, bA, outA);
    gpu.launch(launch, fullSim());
    expectMatches(gpu, outA, ref, 1e-5f, cs.name);
}

INSTANTIATE_TEST_SUITE_P(
    Mappings, ConvMapping,
    ::testing::Values(
        ConvCase{"cifar_style", ChannelSrc::Loop, PixelMap::TileOrigin},
        ConvCase{"alex_style", ChannelSrc::GridX, PixelMap::TileOrigin},
        ConvCase{"squeeze_style", ChannelSrc::Loop, PixelMap::RowBlock},
        ConvCase{"resnet_style", ChannelSrc::GridX, PixelMap::StrideLoop},
        ConvCase{"vgg_style", ChannelSrc::GridZ, PixelMap::FromGridXY}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(ConvKernel, StridedNoPadding)
{
    Layer l;
    l.kind = LayerKind::Conv;
    l.C = 3;
    l.H = l.W = 11;
    l.K = 2;
    l.R = l.S = 5;
    l.stride = 2;
    l.pad = 0;
    l.P = l.Q = (11 - 5) / 2 + 1;   // 4
    l.weights = randomTensor({l.K, l.C, l.R, l.S}, 4, 0.2f);
    l.biasT = randomTensor({l.K}, 5, 0.1f);

    const Tensor in = randomTensor({l.C, l.H, l.W}, 6);
    const Tensor ref = referenceForward(l, {&in});

    Gpu gpu(sim::pascalGP102());
    const uint32_t inA = upload(gpu, in);
    const uint32_t wA = upload(gpu, l.weights);
    const uint32_t bA = upload(gpu, l.biasT);
    Tensor outT({l.K, l.P, l.Q});
    const uint32_t outA = upload(gpu, outT);

    kern::ConvDesc d;
    d.C = l.C;
    d.H = l.H;
    d.W = l.W;
    d.K = l.K;
    d.R = l.R;
    d.S = l.S;
    d.stride = 2;
    d.filterSrc = ChannelSrc::GridX;
    d.pixelMap = PixelMap::TileOrigin;
    d.grid = {l.K, 1, 1};
    d.block = {l.Q, l.P, 1};
    auto launch = kern::makeConvLaunch(d, inA, wA, bA, outA);
    gpu.launch(launch, fullSim());
    expectMatches(gpu, outA, ref, 1e-5f, "strided");
}

TEST(ConvKernel, PartitionedFiltersAndTiles)
{
    // AlexNet style: filters split over two kernels, plane split into
    // 2x2 tiles of different sizes (5+3).
    Layer l;
    l.kind = LayerKind::Conv;
    l.C = 2;
    l.H = l.W = 8;
    l.K = 6;
    l.R = l.S = 3;
    l.stride = 1;
    l.pad = 1;
    l.P = l.Q = 8;
    l.weights = randomTensor({l.K, l.C, l.R, l.S}, 7, 0.3f);
    l.biasT = randomTensor({l.K}, 8, 0.1f);

    const Tensor in = randomTensor({l.C, l.H, l.W}, 9);
    const Tensor ref = referenceForward(l, {&in});

    Gpu gpu(sim::pascalGP102());
    const uint32_t inA = upload(gpu, in);
    const uint32_t wA = upload(gpu, l.weights);
    const uint32_t bA = upload(gpu, l.biasT);
    Tensor outT({l.K, l.P, l.Q});
    const uint32_t outA = upload(gpu, outT);

    const struct { uint32_t tx, ty, bw, bh; } tiles[4] = {
        {0, 0, 5, 5}, {5, 0, 3, 5}, {0, 5, 5, 3}, {5, 5, 3, 3}};
    for (uint32_t fb = 0; fb < l.K; fb += 3) {
        for (const auto &t : tiles) {
            kern::ConvDesc d;
            d.C = l.C;
            d.H = l.H;
            d.W = l.W;
            d.K = l.K;
            d.R = l.R;
            d.S = l.S;
            d.pad = 1;
            d.filterSrc = ChannelSrc::GridX;
            d.pixelMap = PixelMap::TileOrigin;
            d.filterBase = fb;
            d.tileX = t.tx;
            d.tileY = t.ty;
            d.grid = {3, 1, 1};
            d.block = {t.bw, t.bh, 1};
            auto launch = kern::makeConvLaunch(d, inA, wA, bA, outA);
            gpu.launch(launch, fullSim());
        }
    }
    expectMatches(gpu, outA, ref, 1e-5f, "partitioned");
}

// ---------------------------------------------------------------------
// Pooling.

struct PoolCase
{
    const char *name;
    bool avg;
    uint32_t win, stride, pad;
};

void
PrintTo(const PoolCase &pc, std::ostream *os)
{
    *os << pc.name;
}

class PoolKinds : public ::testing::TestWithParam<PoolCase>
{
};

TEST_P(PoolKinds, MatchesReference)
{
    const PoolCase &pc = GetParam();
    Layer l;
    l.kind = LayerKind::Pool;
    l.C = 5;
    l.H = l.W = 13;
    l.R = l.S = pc.win;
    l.stride = pc.stride;
    l.pad = pc.pad;
    l.avg = pc.avg;
    l.P = l.Q = (l.H + 2 * pc.pad - pc.win) / pc.stride + 1;

    const Tensor in = randomTensor({l.C, l.H, l.W}, 10);
    const Tensor ref = referenceForward(l, {&in});

    Gpu gpu(sim::pascalGP102());
    const uint32_t inA = upload(gpu, in);
    Tensor outT({l.C, l.P, l.Q});
    const uint32_t outA = upload(gpu, outT);

    kern::PoolDesc d;
    d.name = pc.name;
    d.C = l.C;
    d.H = l.H;
    d.W = l.W;
    d.win = pc.win;
    d.stride = pc.stride;
    d.pad = pc.pad;
    d.avg = pc.avg;
    d.channelSrc = ChannelSrc::GridX;
    d.pixelMap = PixelMap::TileOrigin;
    d.grid = {l.C, 1, 1};
    d.block = {l.Q, l.P, 1};
    auto launch = kern::makePoolLaunch(d, inA, outA);
    gpu.launch(launch, fullSim());
    expectMatches(gpu, outA, ref, 1e-5f, pc.name);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PoolKinds,
    ::testing::Values(PoolCase{"max3s2", false, 3, 2, 0},
                      PoolCase{"avg3s2", true, 3, 2, 0},
                      PoolCase{"max2s2", false, 2, 2, 0},
                      PoolCase{"max3s2p1", false, 3, 2, 1},
                      PoolCase{"avg5s3", true, 5, 3, 0}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(PoolKernel, GlobalAverage)
{
    Layer l;
    l.kind = LayerKind::Pool;
    l.C = 37;
    l.H = l.W = 9;
    l.globalAvg = true;
    l.avg = true;
    l.P = l.Q = 1;

    const Tensor in = randomTensor({l.C, l.H, l.W}, 11);
    const Tensor ref = referenceForward(l, {&in});

    Gpu gpu(sim::pascalGP102());
    const uint32_t inA = upload(gpu, in);
    Tensor outT({l.C});
    const uint32_t outA = upload(gpu, outT);

    kern::PoolDesc d;
    d.C = l.C;
    d.H = l.H;
    d.W = l.W;
    d.globalAvg = true;
    d.grid = {2, 1, 1};          // channels split over two blocks
    d.block = {20, 1, 1};
    auto launch = kern::makePoolLaunch(d, inA, outA);
    gpu.launch(launch, fullSim());
    expectMatches(gpu, outA, ref, 1e-5f, "globalavg");
}

// ---------------------------------------------------------------------
// Fully connected.

TEST(FcKernel, SingleThreadBlocks)
{
    Layer l;
    l.kind = LayerKind::FC;
    l.inN = 50;
    l.outN = 30;
    l.relu = true;
    l.weights = randomTensor({l.outN, l.inN}, 12, 0.2f);
    l.biasT = randomTensor({l.outN}, 13, 0.1f);

    const Tensor in = randomTensor({l.inN}, 14);
    const Tensor ref = referenceForward(l, {&in});

    Gpu gpu(sim::pascalGP102());
    const uint32_t inA = upload(gpu, in);
    const uint32_t wA = upload(gpu, l.weights);
    const uint32_t bA = upload(gpu, l.biasT);
    Tensor outT({l.outN});
    const uint32_t outA = upload(gpu, outT);

    kern::FcDesc d;
    d.inN = l.inN;
    d.outN = l.outN;
    d.relu = true;
    d.grid = {l.outN, 1, 1};     // AlexNet style: one block per neuron
    d.block = {1, 1, 1};
    auto launch = kern::makeFcLaunch(d, inA, wA, bA, outA);
    gpu.launch(launch, fullSim());
    expectMatches(gpu, outA, ref, 1e-5f, "fc-1thread");
}

TEST(FcKernel, MultiDimGridVggStyle)
{
    Layer l;
    l.kind = LayerKind::FC;
    l.inN = 40;
    l.outN = 100;
    l.weights = randomTensor({l.outN, l.inN}, 15, 0.2f);
    l.biasT = randomTensor({l.outN}, 16, 0.1f);

    const Tensor in = randomTensor({l.inN}, 17);
    const Tensor ref = referenceForward(l, {&in});

    Gpu gpu(sim::pascalGP102());
    const uint32_t inA = upload(gpu, in);
    const uint32_t wA = upload(gpu, l.weights);
    const uint32_t bA = upload(gpu, l.biasT);
    Tensor outT({l.outN});
    const uint32_t outA = upload(gpu, outT);

    kern::FcDesc d;
    d.inN = l.inN;
    d.outN = l.outN;
    d.grid = {2, 2, 2};          // 8 blocks of 16 -> 128 threads, guarded
    d.block = {4, 4, 1};
    auto launch = kern::makeFcLaunch(d, inA, wA, bA, outA);
    gpu.launch(launch, fullSim());
    expectMatches(gpu, outA, ref, 1e-5f, "fc-grid");
}

// ---------------------------------------------------------------------
// Map kernels (ReLU / Scale / BatchNorm / Eltwise).

TEST(MapKernel, Relu)
{
    Layer l;
    l.kind = LayerKind::ReLU;
    l.C = 4;
    l.H = l.W = 9;
    const Tensor in = randomTensor({l.C, l.H, l.W}, 18);
    const Tensor ref = referenceForward(l, {&in});

    Gpu gpu(sim::pascalGP102());
    const uint32_t inA = upload(gpu, in);
    Tensor outT({l.C, l.H, l.W});
    const uint32_t outA = upload(gpu, outT);

    kern::MapDesc d;
    d.kind = kern::MapKind::Relu;
    d.C = l.C;
    d.H = l.H;
    d.W = l.W;
    d.channelSrc = ChannelSrc::GridX;
    d.pixelMap = PixelMap::StrideLoop;
    d.grid = {l.C, 1, 1};
    d.block = {4, 4, 1};
    auto launch = kern::makeMapLaunch(d, inA, 0, 0, outA);
    gpu.launch(launch, fullSim());
    expectMatches(gpu, outA, ref, 0.0f, "relu");
}

TEST(MapKernel, Scale)
{
    Layer l;
    l.kind = LayerKind::Scale;
    l.C = 6;
    l.H = l.W = 7;
    l.gamma = randomTensor({l.C}, 19, 0.5f);
    l.betaT = randomTensor({l.C}, 20, 0.5f);
    const Tensor in = randomTensor({l.C, l.H, l.W}, 21);
    const Tensor ref = referenceForward(l, {&in});

    Gpu gpu(sim::pascalGP102());
    const uint32_t inA = upload(gpu, in);
    const uint32_t gA = upload(gpu, l.gamma);
    const uint32_t bA = upload(gpu, l.betaT);
    Tensor outT({l.C, l.H, l.W});
    const uint32_t outA = upload(gpu, outT);

    kern::MapDesc d;
    d.kind = kern::MapKind::Scale;
    d.C = l.C;
    d.H = l.H;
    d.W = l.W;
    d.channelSrc = ChannelSrc::GridX;
    d.pixelMap = PixelMap::StrideLoop;
    d.grid = {l.C, 1, 1};
    d.block = {8, 8, 1};
    auto launch = kern::makeMapLaunch(d, inA, gA, bA, outA);
    gpu.launch(launch, fullSim());
    expectMatches(gpu, outA, ref, 1e-6f, "scale");
}

TEST(MapKernel, BatchNorm)
{
    Layer l;
    l.kind = LayerKind::BatchNorm;
    l.C = 5;
    l.H = l.W = 6;
    l.mean = randomTensor({l.C}, 22, 0.3f);
    l.var = Tensor({l.C});
    Rng rng(23);
    for (uint32_t c = 0; c < l.C; c++)
        l.var[c] = 0.5f + rng.uniform();
    const Tensor in = randomTensor({l.C, l.H, l.W}, 24);
    const Tensor ref = referenceForward(l, {&in});

    Gpu gpu(sim::pascalGP102());
    const uint32_t inA = upload(gpu, in);
    const uint32_t mA = upload(gpu, l.mean);
    const uint32_t vA = upload(gpu, l.var);
    Tensor outT({l.C, l.H, l.W});
    const uint32_t outA = upload(gpu, outT);

    kern::MapDesc d;
    d.kind = kern::MapKind::BatchNorm;
    d.C = l.C;
    d.H = l.H;
    d.W = l.W;
    d.eps = l.eps;
    d.channelSrc = ChannelSrc::GridX;
    d.pixelMap = PixelMap::StrideLoop;
    d.grid = {l.C, 1, 1};
    d.block = {8, 8, 1};
    auto launch = kern::makeMapLaunch(d, inA, mA, vA, outA);
    gpu.launch(launch, fullSim());
    // rsqrt vs 1/sqrt: tolerate small relative error.
    expectMatches(gpu, outA, ref, 1e-4f, "batchnorm");
}

TEST(MapKernel, EltwiseWithFusedRelu)
{
    Layer l;
    l.kind = LayerKind::Eltwise;
    l.C = 3;
    l.H = l.W = 10;
    l.relu = true;
    l.inputs = {-1, -1};
    const Tensor a = randomTensor({l.C, l.H, l.W}, 25);
    const Tensor b2 = randomTensor({l.C, l.H, l.W}, 26);
    const Tensor ref = referenceForward(l, {&a, &b2});

    Gpu gpu(sim::pascalGP102());
    const uint32_t aA = upload(gpu, a);
    const uint32_t bA = upload(gpu, b2);
    Tensor outT({l.C, l.H, l.W});
    const uint32_t outA = upload(gpu, outT);

    kern::MapDesc d;
    d.kind = kern::MapKind::Eltwise;
    d.relu = true;
    d.C = l.C;
    d.H = l.H;
    d.W = l.W;
    d.channelSrc = ChannelSrc::GridX;
    d.pixelMap = PixelMap::StrideLoop;
    d.grid = {l.C, 1, 1};
    d.block = {8, 8, 1};
    auto launch = kern::makeMapLaunch(d, aA, bA, 0, outA);
    gpu.launch(launch, fullSim());
    expectMatches(gpu, outA, ref, 0.0f, "eltwise");
}

// ---------------------------------------------------------------------
// Softmax, LRN, RNN cells.

TEST(SoftmaxKernel, SumsToOneAndMatches)
{
    for (uint32_t n : {9u, 50u, 1000u}) {
        Layer l;
        l.kind = LayerKind::Softmax;
        l.inN = l.outN = n;
        const Tensor in = randomTensor({n}, 27 + n, 2.0f);
        const Tensor ref = referenceForward(l, {&in});

        Gpu gpu(sim::pascalGP102());
        const uint32_t inA = upload(gpu, in);
        Tensor outT({n});
        const uint32_t outA = upload(gpu, outT);

        kern::SoftmaxDesc d;
        d.n = n;
        d.threads = 32;
        auto launch = kern::makeSoftmaxLaunch(d, inA, outA);
        gpu.launch(launch, fullSim());
        expectMatches(gpu, outA, ref, 1e-3f, "softmax");

        double sum = 0.0;
        for (uint32_t i = 0; i < n; i++)
            sum += gpu.mem().read<float>(outA + 4 * i);
        EXPECT_NEAR(sum, 1.0, 1e-3);
    }
}

TEST(LrnKernel, MatchesReference)
{
    Layer l;
    l.kind = LayerKind::LRN;
    l.C = 8;
    l.H = l.W = 9;
    l.localSize = 5;
    const Tensor in = randomTensor({l.C, l.H, l.W}, 30);
    const Tensor ref = referenceForward(l, {&in});

    Gpu gpu(sim::pascalGP102());
    const uint32_t inA = upload(gpu, in);
    Tensor outT({l.C, l.H, l.W});
    const uint32_t outA = upload(gpu, outT);

    kern::LrnDesc d;
    d.C = l.C;
    d.H = l.H;
    d.W = l.W;
    d.localSize = 5;
    d.alpha = l.alpha;
    d.beta = l.beta;
    d.k = l.lrnK;
    d.grid = {l.C, 1, 1};
    d.block = {l.W, l.H, 1};
    auto launch = kern::makeLrnLaunch(d, inA, outA);
    gpu.launch(launch, fullSim());
    // exp2/log2-based pow vs std::pow: small relative tolerance.
    expectMatches(gpu, outA, ref, 1e-3f, "lrn");
}

class RnnCellKind : public ::testing::TestWithParam<bool>
{
};

TEST_P(RnnCellKind, SingleStepMatchesReference)
{
    const bool lstm = GetParam();
    nn::RnnModel m;
    m.name = lstm ? "lstm" : "gru";
    m.lstm = lstm;
    m.inputSize = 3;
    m.hidden = 24;
    const uint32_t G = lstm ? 4 : 3;
    const uint32_t n = G * m.hidden * m.inputSize +
                       G * m.hidden * m.hidden + G * m.hidden;
    m.weights = randomTensor({n}, 31, 0.2f);

    std::vector<float> x = {0.3f, -0.1f, 0.7f};
    std::vector<float> h0(m.hidden), c0(m.hidden);
    Rng rng(32);
    for (uint32_t i = 0; i < m.hidden; i++) {
        h0[i] = rng.gaussian() * 0.3f;
        c0[i] = rng.gaussian() * 0.3f;
    }
    std::vector<float> h = h0, c = c0;
    m.step(x, h, c);

    Gpu gpu(sim::pascalGP102());
    auto &mem = gpu.mem();
    const uint32_t xA = mem.allocate(4 * m.inputSize);
    mem.copyIn(xA, x.data(), 4 * m.inputSize);
    const uint32_t hA = mem.allocate(4 * m.hidden);
    mem.copyIn(hA, h0.data(), 4 * m.hidden);
    const uint32_t cA = mem.allocate(4 * m.hidden);
    mem.copyIn(cA, c0.data(), 4 * m.hidden);
    const uint32_t wA = mem.allocate(m.weights.bytes());
    mem.copyIn(wA, m.weights.data(), m.weights.bytes());
    const uint32_t hOutA = mem.allocate(4 * m.hidden);
    const uint32_t cOutA = mem.allocate(4 * m.hidden);

    kern::RnnCellDesc d;
    d.lstm = lstm;
    d.inputSize = m.inputSize;
    d.hidden = m.hidden;
    d.grid = {1, 1, 1};
    d.block = lstm ? kern::Dim3{m.hidden, 1, 1} : kern::Dim3{6, 4, 1};
    auto launch = kern::makeRnnCellLaunch(d, xA, hA, cA, wA, hOutA, cOutA);
    gpu.launch(launch, fullSim());

    nn::Tensor refH({m.hidden});
    std::copy(h.begin(), h.end(), refH.data());
    expectMatches(gpu, hOutA, refH, 1e-4f, "rnn.h");
    if (lstm) {
        nn::Tensor refC({m.hidden});
        std::copy(c.begin(), c.end(), refC.data());
        expectMatches(gpu, cOutA, refC, 1e-4f, "rnn.c");
    }
}

INSTANTIATE_TEST_SUITE_P(Cells, RnnCellKind, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? std::string("lstm")
                                               : std::string("gru");
                         });

} // namespace
} // namespace tango
