/**
 * @file
 * rt::JobSpec / rt::JobResult unit tests: JSON round trips, cache-key
 * canonicalization (field order, default normalization, RunKey
 * equivalence — the property that lets serve traffic and bench sweeps
 * share one Engine cache), inline-policy content keying, and the strict
 * envUint() parsing behind EngineOptions::fromEnv(), and the one-pass
 * NetRun decoder (rt::readNetRun) behind results, spills and goldens.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "nn/models/models.hh"
#include "runtime/engine.hh"
#include "runtime/job.hh"
#include "runtime/run_cache.hh"
#include "sim/gpu.hh"
#include "sim/shard.hh"

#ifndef TANGO_GOLDEN_DIR
#error "TANGO_GOLDEN_DIR must point at tests/golden"
#endif

namespace tango {
namespace {

using rt::JobSpec;
using rt::JobResult;

// ------------------------------------------------------------ JSON round trip

TEST(Job, SpecJsonRoundTrip)
{
    JobSpec spec;
    spec.net = "gru";
    spec.policy = "exact";
    spec.platform = "TX1";
    spec.l1dBytes = 0;
    spec.sched = sim::SchedPolicy::LRR;
    spec.seqLen = 64;
    spec.functional = true;
    spec.profile = true;
    spec.trace = true;

    JobSpec back;
    std::string err;
    ASSERT_TRUE(JobSpec::fromJson(spec.toJson(), back, &err)) << err;
    EXPECT_EQ(back.net, "gru");
    EXPECT_EQ(back.policy, "exact");
    EXPECT_EQ(back.platform, "TX1");
    EXPECT_EQ(back.l1dBytes, 0u);
    EXPECT_EQ(back.sched, sim::SchedPolicy::LRR);
    EXPECT_EQ(back.seqLen, 64u);
    EXPECT_TRUE(back.functional);
    EXPECT_TRUE(back.profile);
    EXPECT_TRUE(back.trace);
    EXPECT_FALSE(back.hasInlinePolicy);
    EXPECT_EQ(back.toJson(), spec.toJson());
    EXPECT_EQ(back.cacheKey().str, spec.cacheKey().str);
}

TEST(Job, SpecFromJsonAcceptsAnyFieldOrderAndUnknownFields)
{
    JobSpec a, b;
    std::string err;
    ASSERT_TRUE(JobSpec::fromJson(
        R"({"net":"alexnet","policy":"mem","platform":"GK210",)"
        R"("functional":true,"sched":"tlv"})",
        a, &err))
        << err;
    ASSERT_TRUE(JobSpec::fromJson(
        R"({"sched":"tlv","functional":true,"future_knob":123,)"
        R"("platform":"GK210","policy":"mem","net":"alexnet"})",
        b, &err))
        << err;
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_EQ(a.cacheKey().str, b.cacheKey().str);
}

TEST(Job, SpecFromJsonRejectsGarbage)
{
    JobSpec out;
    std::string err;
    EXPECT_FALSE(JobSpec::fromJson("{not json", out, &err));
    EXPECT_FALSE(JobSpec::fromJson("[]", out, &err));
    EXPECT_FALSE(JobSpec::fromJson(R"({"policy":"bench"})", out, &err))
        << "missing net must be rejected";
    EXPECT_FALSE(JobSpec::fromJson(
        R"({"net":"gru","sched":"fifo"})", out, &err))
        << "unknown scheduler must be rejected";
    EXPECT_FALSE(JobSpec::fromJson(
        R"({"net":"gru","policy":"bench","runPolicy":{}})", out, &err))
        << "policy and runPolicy are mutually exclusive";
}

TEST(Job, SpecFromJsonRejectsOutOfRangeNumbers)
{
    // A number no double holds is refused by the reader, not saturated
    // to inf and then cast to an integer field.
    JobSpec out;
    out.net = "untouched";
    std::string err;
    EXPECT_FALSE(JobSpec::fromJson(R"({"net":"gru","l1dBytes":1e999})",
                                   out, &err));
    EXPECT_NE(err.find("json: number out of range"), std::string::npos)
        << err;
    EXPECT_EQ(out.net, "untouched");
}

// ----------------------------------------------------------------- cache keys

TEST(Job, CacheKeyMatchesRunKeyString)
{
    // The legacy RunKey and an all-default-extras JobSpec must key
    // character-identically, or serve traffic and bench sweeps would
    // stop sharing one cache.
    const struct
    {
        const char *net, *platform, *policy;
        uint32_t l1d;
        sim::SchedPolicy sched;
    } cases[] = {
        {"alexnet", "GP102", "bench", 64 * 1024, sim::SchedPolicy::GTO},
        {"gru", "TX1", "exact", 0, sim::SchedPolicy::LRR},
        {"vggnet", "GK210", "mem", 128 * 1024, sim::SchedPolicy::TLV},
    };
    for (const auto &c : cases) {
        rt::RunKey key;
        key.net = c.net;
        key.platform = c.platform;
        key.policy = c.policy;
        key.l1dBytes = c.l1d;
        key.sched = c.sched;

        JobSpec spec;
        spec.net = c.net;
        spec.platform = c.platform;
        spec.policy = c.policy;
        spec.l1dBytes = c.l1d;
        spec.sched = c.sched;
        EXPECT_EQ(spec.cacheKey().str, key.str());
    }
}

TEST(Job, CacheKeyNormalizesDefaults)
{
    JobSpec spec;
    spec.net = "gru";
    const std::string base = spec.cacheKey().str;

    // An explicit default seqLen is the same simulation.
    JobSpec explicitSeq = spec;
    explicitSeq.seqLen = nn::models::kDefaultRnnSeqLen;
    EXPECT_EQ(explicitSeq.cacheKey().str, base);

    // A different seqLen is not.
    JobSpec longSeq = spec;
    longSeq.seqLen = 64;
    EXPECT_NE(longSeq.cacheKey().str, base);
    EXPECT_NE(longSeq.cacheKey().str.find("/seq=64"), std::string::npos);

    // CNNs ignore seqLen entirely.
    JobSpec cnn;
    cnn.net = "alexnet";
    JobSpec cnnSeq = cnn;
    cnnSeq.seqLen = 999;
    EXPECT_EQ(cnnSeq.cacheKey().str, cnn.cacheKey().str);

    // trace observes a run without changing it: excluded from the key.
    JobSpec traced = spec;
    traced.trace = true;
    EXPECT_EQ(traced.cacheKey().str, base);

    // functional and profile change what is simulated/recorded.
    JobSpec fn = spec;
    fn.functional = true;
    EXPECT_NE(fn.cacheKey().str, base);
    JobSpec prof = spec;
    prof.profile = true;
    EXPECT_NE(prof.cacheKey().str, base);
    EXPECT_NE(fn.cacheKey().str, prof.cacheKey().str);
}

TEST(Job, InlinePolicyKeysByContent)
{
    JobSpec a;
    a.net = "cifarnet";
    a.hasInlinePolicy = true;
    a.inlinePolicy = rt::RunPolicy::named("bench");

    JobSpec b = a;
    b.inlinePolicy = rt::RunPolicy::named("bench");   // rebuilt, equal
    EXPECT_EQ(a.cacheKey().str, b.cacheKey().str);

    JobSpec c = a;
    c.inlinePolicy.sim.maxCycles = 12345;
    EXPECT_NE(c.cacheKey().str, a.cacheKey().str);

    // Inline policies round-trip through JSON with the key preserved.
    JobSpec back;
    std::string err;
    ASSERT_TRUE(JobSpec::fromJson(a.toJson(), back, &err)) << err;
    EXPECT_TRUE(back.hasInlinePolicy);
    EXPECT_EQ(back.cacheKey().str, a.cacheKey().str);
}

// ----------------------------------------------------------- accuracy tiers

TEST(Job, TierJsonRoundTrip)
{
    JobSpec spec;
    spec.net = "alexnet";
    spec.tier = rt::Tier::Estimate;
    spec.maxRelErr = 0.1;

    JobSpec back;
    std::string err;
    ASSERT_TRUE(JobSpec::fromJson(spec.toJson(), back, &err)) << err;
    EXPECT_EQ(back.tier, rt::Tier::Estimate);
    EXPECT_EQ(back.maxRelErr, 0.1);
    EXPECT_EQ(back.toJson(), spec.toJson());

    spec.tier = rt::Tier::Replay;
    spec.maxRelErr = 0.0;
    ASSERT_TRUE(JobSpec::fromJson(spec.toJson(), back, &err)) << err;
    EXPECT_EQ(back.tier, rt::Tier::Replay);
}

TEST(Job, TierDefaultElidedFromJsonAndKey)
{
    // A default-tier spec serializes without any tier field, so specs
    // written before tiers existed parse to byte-identical JSON...
    JobSpec spec;
    spec.net = "alexnet";
    EXPECT_EQ(spec.toJson().find("tier"), std::string::npos);
    EXPECT_EQ(spec.toJson().find("maxRelErr"), std::string::npos);

    JobSpec legacy;
    std::string err;
    ASSERT_TRUE(JobSpec::fromJson(
        R"({"net":"alexnet","policy":"bench","platform":"GP102"})",
        legacy, &err))
        << err;
    EXPECT_EQ(legacy.tier, rt::Tier::Sim);
    EXPECT_EQ(legacy.toJson(), spec.toJson());

    // ...and sim-tier cache keys are unchanged: serve traffic and the
    // bench sweeps keep sharing one Engine cache.
    rt::RunKey key;
    key.net = "alexnet";
    EXPECT_EQ(spec.cacheKey().str, key.str());

    // Non-default tiers suffix the key (distinct result spaces).
    JobSpec est = spec;
    est.tier = rt::Tier::Estimate;
    EXPECT_NE(est.cacheKey().str, spec.cacheKey().str);
    EXPECT_NE(est.cacheKey().str.find("/tier=estimate"),
              std::string::npos);
    JobSpec replay = spec;
    replay.tier = rt::Tier::Replay;
    EXPECT_NE(replay.cacheKey().str.find("/tier=replay"),
              std::string::npos);
    EXPECT_NE(est.cacheKey().str, replay.cacheKey().str);

    // A requested error bound keys separately too: a tighter bound can
    // change which tier actually serves the job.
    JobSpec bounded = est;
    bounded.maxRelErr = 0.05;
    EXPECT_NE(bounded.cacheKey().str, est.cacheKey().str);
    EXPECT_NE(bounded.cacheKey().str.find("/err=0.05"),
              std::string::npos);
}

TEST(Job, TierUnknownNameRejected)
{
    JobSpec out;
    std::string err;
    EXPECT_FALSE(JobSpec::fromJson(
        R"({"net":"alexnet","tier":"quantum"})", out, &err));
    EXPECT_NE(err.find("unknown tier"), std::string::npos) << err;
    EXPECT_FALSE(JobSpec::fromJson(
        R"({"net":"alexnet","tier":3})", out, &err))
        << "tier must be a string";

    rt::Tier t;
    EXPECT_TRUE(rt::tierFromName("sim", t));
    EXPECT_EQ(t, rt::Tier::Sim);
    EXPECT_TRUE(rt::tierFromName("replay", t));
    EXPECT_EQ(t, rt::Tier::Replay);
    EXPECT_TRUE(rt::tierFromName("estimate", t));
    EXPECT_EQ(t, rt::Tier::Estimate);
    EXPECT_FALSE(rt::tierFromName("Sim", t));
    EXPECT_FALSE(rt::tierFromName("", t));
}

TEST(Job, TierValidate)
{
    JobSpec spec;
    spec.net = "alexnet";
    spec.tier = rt::Tier::Estimate;
    EXPECT_EQ(spec.validate(), "");

    // The estimate tier produces statistics, not tensors or profiles.
    JobSpec fn = spec;
    fn.functional = true;
    EXPECT_NE(fn.validate(), "");
    JobSpec prof = spec;
    prof.profile = true;
    EXPECT_NE(prof.validate(), "");

    // maxRelErr is a fraction, and only meaningful for estimates.
    JobSpec bad = spec;
    bad.maxRelErr = 1.5;
    EXPECT_NE(bad.validate(), "");
    bad.maxRelErr = -0.1;
    EXPECT_NE(bad.validate(), "");
    JobSpec simBound;
    simBound.net = "alexnet";
    simBound.maxRelErr = 0.1;
    EXPECT_NE(simBound.validate(), "");
}

// ------------------------------------------------------------------ validate

TEST(Job, Validate)
{
    JobSpec spec;
    spec.net = "alexnet";
    EXPECT_EQ(spec.validate(), "");

    JobSpec badNet = spec;
    badNet.net = "transformer";
    EXPECT_NE(badNet.validate(), "");

    JobSpec badPolicy = spec;
    badPolicy.policy = "warp9";
    EXPECT_NE(badPolicy.validate(), "");

    JobSpec badPlatform = spec;
    badPlatform.platform = "H100";
    EXPECT_NE(badPlatform.validate(), "");

    JobSpec badSeq = spec;
    badSeq.net = "gru";
    badSeq.seqLen = (1u << 20) + 1;
    EXPECT_NE(badSeq.validate(), "");

    // An inline policy needs no registry name.
    JobSpec inlineP = spec;
    inlineP.policy = "not-registered";
    inlineP.hasInlinePolicy = true;
    inlineP.inlinePolicy = rt::RunPolicy::named("bench");
    EXPECT_EQ(inlineP.validate(), "");
}

// Well-formed specs the simulator cannot run used to reach a fatal()
// deep inside it, killing tango-serve.  validate() refuses them by the
// simulator's own rules (sim::configError, sim::kMaxShards).
TEST(Job, ValidateRefusesAConfigTheGpuCannotBuild)
{
    JobSpec spec;
    std::string err;
    ASSERT_TRUE(JobSpec::fromJson(R"({"net":"cifarnet","l1dBytes":1})",
                                  spec, &err))
        << err;
    const std::string why = spec.validate();
    EXPECT_EQ(why, "invalid GPU config: " +
                       sim::configError(spec.gpuConfig()));
    EXPECT_NE(why.find("l1dBytes 1 cannot hold one set"), std::string::npos)
        << why;

    spec.l1dBytes = 0;   // bypassed: fine
    EXPECT_EQ(spec.validate(), "");
    spec.l1dBytes = 4 * 128;   // exactly one 4-way set of 128-byte lines
    EXPECT_EQ(spec.validate(), "");
}

TEST(Job, ValidateRefusesTooManyShards)
{
    JobSpec spec;
    std::string err;
    ASSERT_TRUE(JobSpec::fromJson(
        R"({"net":"gru","runPolicy":{"sim":{"shards":1000}}})", spec, &err))
        << err;
    ASSERT_TRUE(spec.hasInlinePolicy);
    EXPECT_NE(spec.validate().find("shards 1000 out of range"),
              std::string::npos)
        << spec.validate();

    spec.inlinePolicy.sim.shards = sim::kMaxShards;
    EXPECT_EQ(spec.validate(), "");
}

// ------------------------------------------------------------------ JobResult

TEST(Job, ResultJsonRoundTrip)
{
    rt::NetRun run;
    run.netName = "cifarnet";
    run.totalTimeSec = 0.001234567890123456;
    run.totalEnergyJ = 3.25;
    run.peakPowerW = 17.5;
    run.deviceBytes = 123456;
    run.totals.add("sim.cycles", 987654.0);
    run.totals.add("mem.l2_misses", 42.0);

    JobResult res;
    res.ok = true;
    res.served = "sim";
    res.latencyMs = 12.5;
    res.run = run;

    JobResult back;
    std::string err;
    ASSERT_TRUE(JobResult::fromJson(res.toJson(), back, &err)) << err;
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.served, "sim");
    EXPECT_EQ(back.latencyMs, 12.5);
    // The embedded NetRun is the run-cache serialization: comparing the
    // serialized forms compares every field bit-exactly.
    EXPECT_EQ(rt::serializeNetRun(back.run), rt::serializeNetRun(run));
}

TEST(Job, ResultErrorRoundTrip)
{
    JobResult res;
    res.ok = false;
    res.error = "queue_full";
    res.served = "reject";

    JobResult back;
    std::string err;
    ASSERT_TRUE(JobResult::fromJson(res.toJson(), back, &err)) << err;
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, "queue_full");
    EXPECT_EQ(back.served, "reject");
}

// ------------------------------------------------------------ NetRun decoder

std::string
readText(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** serializeNetRun(decode(@p text)): a lossless decoder gives the
 *  input back byte for byte. */
std::string
reencode(const std::string &text)
{
    rt::NetRun run;
    EXPECT_TRUE(rt::parseNetRunJson(text, run));
    return rt::serializeNetRun(run);
}

TEST(Decode, EveryGoldenFixtureRoundTripsByteForByte)
{
    size_t fixtures = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(TANGO_GOLDEN_DIR)) {
        const std::string name = e.path().filename().string();
        // parallel_k*.json are digest tables, not NetRuns.
        if (e.path().extension() != ".json" ||
            name.rfind("parallel_", 0) == 0)
            continue;
        const std::string text = readText(e.path());
        EXPECT_TRUE(reencode(text) + "\n" == text) << name;

        // The same NetRun inside a JobResult takes the same decoder.
        JobResult res;
        res.ok = true;
        ASSERT_TRUE(rt::parseNetRunJson(text, res.run));
        JobResult back;
        std::string err;
        ASSERT_TRUE(JobResult::fromJson(res.toJson(), back, &err)) << err;
        EXPECT_TRUE(rt::serializeNetRun(back.run) + "\n" == text) << name;
        fixtures++;
    }
    EXPECT_GE(fixtures, 21u);   // 7 networks x TANGO_SIM_SHARDS {1,2,4}
}

TEST(Decode, EstimatedAndProfiledRunsRoundTripByteForByte)
{
    JobSpec est;
    est.net = "cifarnet";
    est.tier = rt::Tier::Estimate;
    sim::Gpu estGpu(est.gpuConfig());
    const rt::NetRun estimated = rt::runJob(estGpu, est);
    ASSERT_TRUE(estimated.estimated);
    const std::string estJson = rt::serializeNetRun(estimated);
    EXPECT_TRUE(reencode(estJson) == estJson);

    JobSpec prof;
    prof.net = "gru";
    prof.profile = true;
    sim::Gpu profGpu(prof.gpuConfig());
    const std::string profJson =
        rt::serializeNetRun(rt::runJob(profGpu, prof));
    ASSERT_NE(profJson.find("\"profile\":{\"labels\":["),
              std::string::npos);
    EXPECT_TRUE(reencode(profJson) == profJson);
}

TEST(Decode, WrongTypesTakeTheirDefaults)
{
    rt::NetRun run;
    ASSERT_TRUE(rt::parseNetRunJson(
        R"({"netName":5,"deviceBytes":"x","totals":[1],"totalTimeSec":{},)"
        R"("checkFailures":-1,"layers":[7,{"layerIndex":"x","name":3,)"
        R"("kernels":[{"name":"k","smCycles":"x","scale":"x",)"
        R"("activeSms":null,"grid":[1,2],"block":{"x":4},)"
        R"("stats":{"a":"x","b":2},"replayed":true,)"
        R"("profile":{"labels":"x","lineBytes":"x","issued":[1,"x",3]}}]}]})",
        run));
    EXPECT_EQ(run.netName, "");
    EXPECT_EQ(run.deviceBytes, 0u);
    EXPECT_TRUE(run.totals.all().empty());
    EXPECT_EQ(run.totalTimeSec, 0.0);
    EXPECT_EQ(run.checkFailures, 0u);
    ASSERT_EQ(run.layers.size(), 2u);
    EXPECT_EQ(run.layers[0].kernels.size(), 0u);   // 7: a default layer
    const rt::LayerRun &l = run.layers[1];
    EXPECT_EQ(l.layerIndex, 0);
    EXPECT_EQ(l.name, "");
    ASSERT_EQ(l.kernels.size(), 1u);
    const sim::KernelStats &k = l.kernels[0];
    EXPECT_EQ(k.name, "k");
    EXPECT_EQ(k.smCycles, 0u);
    EXPECT_EQ(k.scale, 1.0);
    EXPECT_EQ(k.activeSms, 1u);
    EXPECT_EQ(k.grid, sim::Dim3());
    EXPECT_EQ(k.block, sim::Dim3());
    EXPECT_EQ(k.stats.all(),
              (std::map<std::string, double>{{"a", 0.0}, {"b", 2.0}}));
    EXPECT_FALSE(k.replayed);
    ASSERT_NE(k.profile, nullptr);
    EXPECT_EQ(k.profile->labels, std::vector<std::string>{""});
    EXPECT_EQ(k.profile->lineBytes, 128u);
    EXPECT_EQ(k.profile->issued, (std::vector<uint64_t>{1, 0, 3}));

    // Not a NetRun at all, or malformed: refused, out untouched.
    for (const char *bad : {"[]", "5", R"({"netName":"a")",
                            R"({"netName":"a"} x)"}) {
        rt::NetRun untouched;
        untouched.netName = "keep";
        EXPECT_FALSE(rt::parseNetRunJson(bad, untouched)) << bad;
        EXPECT_EQ(untouched.netName, "keep");
    }
}

TEST(Decode, RepeatedKeysLastOneWins)
{
    rt::NetRun run;
    ASSERT_TRUE(rt::parseNetRunJson(
        R"({"netName":"a","totals":{"x":1,"y":2},"netName":"b",)"
        R"("totals":{"y":3,"y":4},"layers":[{"name":"l0"}],)"
        R"("layers":[{"name":"l1","kernels":[{"smCycles":1,)"
        R"("stats":{"s":1,"s":5},"smCycles":2}]}]})",
        run));
    EXPECT_EQ(run.netName, "b");
    EXPECT_EQ(run.totals.all(), (std::map<std::string, double>{{"y", 4}}));
    ASSERT_EQ(run.layers.size(), 1u);
    EXPECT_EQ(run.layers[0].name, "l1");
    ASSERT_EQ(run.layers[0].kernels.size(), 1u);
    EXPECT_EQ(run.layers[0].kernels[0].smCycles, 2u);
    EXPECT_EQ(run.layers[0].kernels[0].stats.get("s"), 5.0);

    // The result envelope and the Value tree behind JobSpec follow the
    // same rule.
    JobResult res;
    std::string err;
    ASSERT_TRUE(JobResult::fromJson(
        R"({"ok":false,"served":"sim","ok":true,"served":"mem",)"
        R"("latencyMs":1,"latencyMs":2,"run":{"netName":"x"}})",
        res, &err))
        << err;
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.served, "mem");
    EXPECT_EQ(res.latencyMs, 2.0);
    EXPECT_EQ(res.run.netName, "x");
    JobSpec spec;
    ASSERT_TRUE(JobSpec::fromJson(R"({"net":"vggnet","net":"gru"})", spec));
    EXPECT_EQ(spec.net, "gru");
}

// ------------------------------------------------------------ strict env knobs

using JobDeathTest = ::testing::Test;

TEST(JobDeathTest, EnvUintRejectsGarbage)
{
    setenv("TANGO_TEST_KNOB", "abc", 1);
    EXPECT_DEATH(envUint("TANGO_TEST_KNOB", 0), "non-negative integer");
    setenv("TANGO_TEST_KNOB", "12abc", 1);
    EXPECT_DEATH(envUint("TANGO_TEST_KNOB", 0), "non-negative integer");
    setenv("TANGO_TEST_KNOB", "-3", 1);
    EXPECT_DEATH(envUint("TANGO_TEST_KNOB", 0), "non-negative integer");
    setenv("TANGO_TEST_KNOB", "999999999999999999999999", 1);
    EXPECT_DEATH(envUint("TANGO_TEST_KNOB", 0), "out of range");
    unsetenv("TANGO_TEST_KNOB");
}

TEST(JobDeathTest, EnvUintAcceptsPlainIntegersAndDefaults)
{
    unsetenv("TANGO_TEST_KNOB");
    EXPECT_EQ(envUint("TANGO_TEST_KNOB", 7), 7u);
    setenv("TANGO_TEST_KNOB", "", 1);
    EXPECT_EQ(envUint("TANGO_TEST_KNOB", 7), 7u);
    setenv("TANGO_TEST_KNOB", "42", 1);
    EXPECT_EQ(envUint("TANGO_TEST_KNOB", 7), 42u);
    unsetenv("TANGO_TEST_KNOB");
}

TEST(JobDeathTest, EngineOptionsFromEnvRejectsMalformedThreads)
{
    setenv("TANGO_ENGINE_THREADS", "abc", 1);
    EXPECT_DEATH(rt::EngineOptions::fromEnv(), "TANGO_ENGINE_THREADS");
    unsetenv("TANGO_ENGINE_THREADS");

    setenv("TANGO_ENGINE_CACHE_MAX_MB", "10MB", 1);
    EXPECT_DEATH(rt::EngineOptions::fromEnv(), "TANGO_ENGINE_CACHE_MAX_MB");
    unsetenv("TANGO_ENGINE_CACHE_MAX_MB");
}

} // namespace
} // namespace tango
