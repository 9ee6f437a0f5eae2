/**
 * @file
 * Runtime tests: whole networks executed on the virtual GPU in check
 * mode (device outputs vs the CPU reference), CTA sampling behaviour,
 * and per-layer stat collection.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "nn/models/models.hh"
#include "nn/weights.hh"
#include "runtime/runtime.hh"
#include "sim/gpu.hh"

namespace tango {
namespace {

using rt::RunPolicy;
using rt::Runtime;

TEST(Runtime, CifarNetFullSimMatchesReference)
{
    // The whole CifarNet inference — every CTA of every kernel — runs on
    // the simulator and must match the CPU reference.
    sim::Gpu gpu(sim::pascalGP102());
    nn::AnyModel model(nn::models::buildCifarNet());
    nn::initWeights(model);

    RunPolicy p;
    p.sim.fullSim = true;
    p.functional = true;
    p.check = true;
    p.tolerance = 2e-4f;

    Runtime rtm(gpu);
    const rt::NetRun run = rtm.run(model, p);
    EXPECT_EQ(run.checkFailures, 0u);
    EXPECT_GT(run.totalTimeSec, 0.0);
    EXPECT_GT(run.totals.sumPrefix("op."), 1000.0);
    // One LayerRun per layer with kernels (8 compute + softmax).
    EXPECT_EQ(run.layers.size(), 9u);
}

TEST(Runtime, GruEndToEndPrediction)
{
    sim::Gpu gpu(sim::pascalGP102());
    nn::AnyModel model(nn::models::buildGru());
    nn::initWeights(model);

    RunPolicy p;
    p.sim.fullSim = true;
    p.functional = true;
    p.check = true;
    p.tolerance = 1e-3f;

    const auto seq = nn::models::makeStockSequence(model.rnn().seqLen);
    float pred = 0.0f;
    Runtime rtm(gpu);
    const rt::NetRun run =
        rtm.run(model, p, {.sequence = &seq, .prediction = &pred});
    EXPECT_EQ(run.checkFailures, 0u);
    EXPECT_NEAR(pred, model.rnn().forward(seq), 1e-3f);
    // One cell launch per time step + 1 readout.
    EXPECT_EQ(run.layers.size(), model.rnn().seqLen + 1u);
}

TEST(Runtime, LstmEndToEndPrediction)
{
    sim::Gpu gpu(sim::pascalGP102());
    nn::AnyModel model(nn::models::buildLstm());
    nn::initWeights(model);

    RunPolicy p;
    p.sim.fullSim = true;
    p.functional = true;
    p.check = true;
    p.tolerance = 1e-3f;

    const auto seq = nn::models::makeStockSequence(model.rnn().seqLen);
    float pred = 0.0f;
    Runtime rtm(gpu);
    const rt::NetRun run =
        rtm.run(model, p, {.sequence = &seq, .prediction = &pred});
    EXPECT_EQ(run.checkFailures, 0u);
    EXPECT_NEAR(pred, model.rnn().forward(seq), 1e-3f);
}

TEST(Runtime, SampledRunProducesScaledStats)
{
    // AlexNet timing-only with CTA sampling: stats must be scaled to the
    // full grid (thread instruction count ~ proportional to total MACs).
    sim::Gpu gpu(sim::pascalGP102());
    RunPolicy p;   // timing-only defaults
    p.sim.maxWarpsPerCta = 6;
    const rt::NetRun run = rt::runNetworkByName(gpu, "alexnet", p);

    EXPECT_GT(run.totalTimeSec, 0.0);
    EXPECT_GT(run.peakPowerW, 0.0);
    // AlexNet inference is ~0.7 G MACs; with ~14 instructions per MAC in
    // the naive kernels, expect the right order of magnitude.
    const double instr = run.totals.sumPrefix("op.");
    EXPECT_GT(instr, 1e9);
    EXPECT_LT(instr, 1e12);
}

TEST(Runtime, ConvDominatesCifarNetTime)
{
    // Paper Observation 1 (sampled timing run).
    sim::Gpu gpu(sim::pascalGP102());
    RunPolicy p;
    p.sim.maxWarpsPerCta = 6;
    const rt::NetRun run = rt::runNetworkByName(gpu, "cifarnet", p);
    const double convT = run.figTypeTime("Conv");
    EXPECT_GT(convT / run.totalTimeSec, 0.5);
}

TEST(Runtime, FigTypeAccountingConsistent)
{
    sim::Gpu gpu(sim::pascalGP102());
    RunPolicy p;
    p.sim.maxWarpsPerCta = 6;
    const rt::NetRun run = rt::runNetworkByName(gpu, "cifarnet", p);
    double sum = 0.0;
    for (const auto &fig : run.figTypes())
        sum += run.figTypeTime(fig);
    EXPECT_NEAR(sum, run.totalTimeSec, 1e-12);
}

TEST(Runtime, FireFigureTypeFoldsBothFireHalves)
{
    rt::NetRun run;
    for (const char *type : {"Conv", "Fire_Squeeze", "Fire_Expand"}) {
        rt::LayerRun l;
        l.figType = type;
        sim::KernelStats k;
        k.timeSec = 1.0;
        k.energyJ = 2.0;
        k.stats.add("mem.l2.misses", 3.0);
        l.kernels.push_back(k);
        run.layers.push_back(l);
    }
    EXPECT_EQ(run.figTypeTime("Fire"), 2.0);
    EXPECT_EQ(run.figTypeEnergy("Fire"), 4.0);
    EXPECT_EQ(run.figTypeStat("Fire", "mem.l2.misses"), 6.0);
    EXPECT_EQ(run.figTypeStats("Fire").get("mem.l2.misses"), 6.0);
    // The raw types still count alone.
    EXPECT_EQ(run.figTypeTime("Fire_Expand"), 1.0);
    EXPECT_EQ(run.figTypeStat("Conv", "mem.l2.misses"), 3.0);
}

TEST(Runtime, UnknownPolicyNameIsFatalAndListsKnownPolicies)
{
    // The clean error path: a typo'd policy name must exit(1) with a
    // diagnostic that names the policies that do exist.
    EXPECT_EXIT(RunPolicy::named("no-such-policy"),
                ::testing::ExitedWithCode(1),
                "unknown run policy 'no-such-policy'.*known policies:.*bench");
}

TEST(Runtime, NamedPolicyRoundTripsThroughNames)
{
    // Every advertised name must resolve without dying.
    const auto names = RunPolicy::names();
    EXPECT_FALSE(names.empty());
    EXPECT_NE(std::find(names.begin(), names.end(), "bench"), names.end());
    for (const auto &n : names)
        (void)RunPolicy::named(n);
}

/** EXPECT_THROW that also checks the ConfigError message starts with
 *  @p prefix. */
template <typename F>
void
expectConfigError(F &&f, const std::string &prefix)
{
    try {
        f();
        ADD_FAILURE() << "no ConfigError; expected " << prefix;
    } catch (const sim::ConfigError &e) {
        EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u) << e.what();
    }
}

TEST(Runtime, ReconfigureRejectsInvalidConfig)
{
    sim::Gpu gpu(sim::pascalGP102());

    sim::GpuConfig noSms = sim::pascalGP102();
    noSms.numSms = 0;
    EXPECT_THROW(gpu.reconfigure(noSms), sim::ConfigError);
    expectConfigError([&] { gpu.reconfigure(noSms); },
                      "invalid GPU config: numSms");

    sim::GpuConfig tinyL2 = sim::pascalGP102();
    tinyL2.l2Bytes = 64;   // smaller than one set of 16-way 128B lines
    expectConfigError([&] { gpu.reconfigure(tinyL2); },
                      "invalid GPU config: l2Bytes");

    sim::GpuConfig zeroClock = sim::pascalGP102();
    zeroClock.coreClockGhz = 0.0;
    expectConfigError([&] { gpu.reconfigure(zeroClock); },
                      "invalid GPU config: coreClockGhz");

    // A refused config leaves the device as it was.
    EXPECT_EQ(gpu.config().numSms, sim::pascalGP102().numSms);
}

TEST(Runtime, ConstructingGpuWithInvalidConfigThrows)
{
    sim::GpuConfig bad = sim::pascalGP102();
    bad.dramIssueInterval = 0.0;
    expectConfigError([&] { sim::Gpu gpu{bad}; },
                      "invalid GPU config: dramIssueInterval");
}

TEST(Runtime, ReconfigureValidConfigStillRuns)
{
    // A legitimate reconfigure (the config-sweep path) keeps working.
    sim::Gpu gpu(sim::pascalGP102());
    sim::GpuConfig cfg = sim::keplerGK210();
    gpu.reconfigure(cfg);
    EXPECT_EQ(gpu.config().name, cfg.name);

    RunPolicy p;
    p.sim.maxWarpsPerCta = 6;
    const rt::NetRun run = rt::runNetworkByName(gpu, "gru", p);
    EXPECT_GT(run.totalTimeSec, 0.0);
}

TEST(Runtime, DeviceFootprintTracksModelSize)
{
    sim::Gpu gpu(sim::pascalGP102());
    RunPolicy p;
    p.sim.maxWarpsPerCta = 6;
    const rt::NetRun gru = rt::runNetworkByName(gpu, "gru", p);
    const rt::NetRun cifar = rt::runNetworkByName(gpu, "cifarnet", p);
    // Paper Fig 11: RNNs < 500KB, CNNs >= 1MB.
    EXPECT_LT(gru.deviceBytes, 500ull * 1024);
    EXPECT_GT(cifar.deviceBytes, 500ull * 1024);
}

} // namespace
} // namespace tango
