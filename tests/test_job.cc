/**
 * @file
 * rt::JobSpec / rt::JobResult unit tests: JSON round trips, cache-key
 * canonicalization (field order, default normalization, the pinned key
 * format that lets serve traffic, bench sweeps and old disk spills
 * share one Engine cache), strict field types, inline-policy content
 * keying, and the strict
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

TEST(Job, SpecFromJsonRejectsCoercedFields)
{
    // Every typed field of a spec and of an inline policy: a wrong
    // type, a negative, fractional or too-large number is a parse
    // error naming the field — never a silent default or truncation.
    const struct
    {
        const char *field;
        const char *json;   ///< the spec, with %s for the field's value
        const char *good;   ///< a value that parses
        std::vector<const char *> bad;
    } cases[] = {
        {"l1dBytes", R"({"net":"cifarnet","l1dBytes":%s})", "0",
         {"4295032832", R"("0")", R"("64K")", "-1", "1.5", "true"}},
        {"seqLen", R"({"net":"gru","seqLen":%s})", "4294967295",
         {"4294967297", R"("8")", "-8", "8.5", "null"}},
        {"maxRelErr", R"({"net":"gru","tier":"estimate","maxRelErr":%s})",
         "0.1", {R"("0.1")", "false"}},
        {"functional", R"({"net":"gru","functional":%s})", "true",
         {"1", R"("true")", "null"}},
        {"profile", R"({"net":"gru","profile":%s})", "false",
         {"0", R"("no")"}},
        {"trace", R"({"net":"gru","trace":%s})", "true", {"1"}},
        {"shards", R"({"net":"gru","runPolicy":{"sim":{"shards":%s}}})",
         "8", {"4294967304", R"("8")", "-2", "2.5"}},
        {"maxResidentCtas",
         R"({"net":"gru","runPolicy":{"sim":{"maxResidentCtas":%s}}})",
         "4", {"4294967296", R"("4")", "-4"}},
        {"maxResidentWarps",
         R"({"net":"gru","runPolicy":{"sim":{"maxResidentWarps":%s}}})",
         "4", {"4294967296", "[]", "0.25"}},
        {"maxWarpsPerCta",
         R"({"net":"gru","runPolicy":{"sim":{"maxWarpsPerCta":%s}}})",
         "4", {"1e10", "{}", "-1"}},
        {"maxSampledCtas",
         R"({"net":"gru","runPolicy":{"sim":{"maxSampledCtas":%s}}})",
         "1e15", {"1e20", R"("4")", "-1", "3.5"}},
        {"maxCycles", R"({"net":"gru","runPolicy":{"sim":{"maxCycles":%s}}})",
         "1e15", {R"("10")", "-10", "1.5"}},
        {"fullSim", R"({"net":"gru","runPolicy":{"sim":{"fullSim":%s}}})",
         "true", {"1", R"("yes")"}},
        {"memoize", R"({"net":"gru","runPolicy":{"sim":{"memoize":%s}}})",
         "false", {"0"}},
        {"profile", R"({"net":"gru","runPolicy":{"sim":{"profile":%s}}})",
         "true", {"1"}},
        {"functional", R"({"net":"gru","runPolicy":{"functional":%s}})",
         "true", {"1"}},
        {"check", R"({"net":"gru","runPolicy":{"check":%s}})", "true",
         {"1"}},
        {"tolerance", R"({"net":"gru","runPolicy":{"tolerance":%s}})",
         "0.01", {R"("0.1")", "true"}},
        {"maxLoopChannels",
         R"({"net":"gru","runPolicy":{"maxLoopChannels":%s}})", "64",
         {"4294967296", R"("64")", "-64", "6.4"}},
    };
    const auto fill = [](const char *fmt, const char *value) {
        std::string out = fmt;
        out.replace(out.find("%s"), 2, value);
        return out;
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.field);
        JobSpec ok;
        std::string err;
        EXPECT_TRUE(JobSpec::fromJson(fill(c.json, c.good), ok, &err))
            << err;
        for (const char *value : c.bad) {
            JobSpec out;
            out.net = "untouched";
            const std::string text = fill(c.json, value);
            EXPECT_FALSE(JobSpec::fromJson(text, out, &err)) << text;
            EXPECT_NE(err.find(std::string("'") + c.field + "'"),
                      std::string::npos)
                << text << " -> " << err;
            EXPECT_EQ(out.net, "untouched");
        }
    }

    // The largest values still land exactly, and unknown fields stay
    // ignored whatever their type.
    JobSpec max;
    std::string err;
    ASSERT_TRUE(JobSpec::fromJson(
        R"({"net":"gru","seqLen":4294967295,"future":"x",)"
        R"("runPolicy":{"sim":{"maxCycles":1e15,"later":[1]}}})",
        max, &err))
        << err;
    EXPECT_EQ(max.seqLen, 4294967295u);
    EXPECT_EQ(max.inlinePolicy.sim.maxCycles, 1000000000000000ull);
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
    // These strings key the disk spill and the benchmark's reference
    // digests, and every front end (serve traffic, bench sweeps) must
    // produce them character for character to share one cache: the
    // format must never drift.
    const struct
    {
        const char *net, *platform, *policy;
        uint32_t l1d;
        sim::SchedPolicy sched;
        const char *key;
    } cases[] = {
        {"alexnet", "GP102", "bench", 64 * 1024, sim::SchedPolicy::GTO,
         "alexnet/GP102/l1=64K/gto/bench"},
        {"vggnet", "GP102", "mem", 0, sim::SchedPolicy::GTO,
         "vggnet/GP102/l1=off/gto/mem"},
        {"gru", "TX1", "exact", 0, sim::SchedPolicy::LRR,
         "gru/TX1/l1=off/lrr/exact"},
        {"vggnet", "GK210", "mem", 128 * 1024, sim::SchedPolicy::TLV,
         "vggnet/GK210/l1=128K/tlv/mem"},
    };
    for (const auto &c : cases) {
        JobSpec spec;
        spec.net = c.net;
        spec.platform = c.platform;
        spec.policy = c.policy;
        spec.l1dBytes = c.l1d;
        spec.sched = c.sched;
        EXPECT_EQ(spec.cacheKey().str, c.key);
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

    // The retired "replay" tier parses as sim, so old clients keep
    // working and share the sim-tier cache entry.
    ASSERT_TRUE(JobSpec::fromJson(R"({"net":"alexnet","tier":"replay"})",
                                  back, &err))
        << err;
    EXPECT_EQ(back.tier, rt::Tier::Sim);
    JobSpec sim{"alexnet"};
    EXPECT_EQ(back.cacheKey().str, sim.cacheKey().str);
    EXPECT_EQ(back.toJson(), sim.toJson());
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

    // ...and sim-tier cache keys carry no tier suffix: serve traffic
    // and the bench sweeps keep sharing one Engine cache.
    EXPECT_EQ(spec.cacheKey().str, "alexnet/GP102/l1=64K/gto/bench");

    // The estimate tier suffixes the key (a distinct result space).
    JobSpec est = spec;
    est.tier = rt::Tier::Estimate;
    EXPECT_EQ(est.cacheKey().str,
              "alexnet/GP102/l1=64K/gto/bench/tier=estimate");

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
    EXPECT_TRUE(rt::tierFromName("replay", t));   // retired alias
    EXPECT_EQ(t, rt::Tier::Sim);
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
