/**
 * @file
 * Per-PC attribution profiler tests (sim/profile, profiler hotspot
 * rollups, tango-prof plumbing).
 *
 * The profiler is pure observation: with SimPolicy::profile on, every
 * statistic the simulator reports must stay bit-identical, and the
 * per-PC counters must sum *exactly* (same double arithmetic, compared
 * bitwise) to the per-kernel StatSet totals — across all seven paper
 * networks, memoized replays included.  These tests pin that contract,
 * plus the DSL source mapping (builder mark() scopes) and the run-cache
 * round-trip of profiles.
 */

#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

#include "kernels/builder.hh"
#include "nn/models/models.hh"
#include "profiler/profiler.hh"
#include "runtime/engine.hh"
#include "runtime/run_cache.hh"
#include "runtime/runtime.hh"
#include "sim/gpu.hh"
#include "sim/profile.hh"

namespace tango {
namespace {

rt::NetRun
runProfiled(const std::string &net)
{
    sim::Gpu gpu(rt::JobSpec{}.gpuConfig());   // GP102 / JobSpec defaults
    rt::RunPolicy policy = rt::RunPolicy::named("bench");
    policy.sim.profile = true;
    return rt::runNetworkByName(gpu, net, policy);
}

size_t
profiledKernels(const rt::NetRun &run)
{
    size_t n = 0;
    for (const auto &l : run.layers)
        for (const auto &k : l.kernels)
            n += k.profile != nullptr;
    return n;
}

// Per-PC rollups must sum exactly to the KernelStats totals on every
// network the paper benches, replayed launches included.
TEST(Prof, ConsistentAcrossAllSevenNetworks)
{
    for (const std::string &net : nn::models::allNames()) {
        SCOPED_TRACE(net);
        const rt::NetRun run = runProfiled(net);
        EXPECT_GT(profiledKernels(run), 0u);
        std::string why;
        EXPECT_TRUE(prof::checkProfileConsistency(run, &why)) << why;
    }
}

// Profiling is observation only: every reported statistic stays
// bit-identical with the flag on.  Serialized JSON (17 significant
// digits, bit-exact) is the strongest equality we can ask for.
TEST(Prof, ProfileFlagDoesNotPerturbStatistics)
{
    const sim::GpuConfig cfg = rt::JobSpec{}.gpuConfig();
    rt::RunPolicy off = rt::RunPolicy::named("bench");
    rt::RunPolicy on = off;
    on.sim.profile = true;

    sim::Gpu gpuOff(cfg);
    rt::NetRun a = rt::runNetworkByName(gpuOff, "cifarnet", off);
    sim::Gpu gpuOn(cfg);
    rt::NetRun b = rt::runNetworkByName(gpuOn, "cifarnet", on);

    EXPECT_EQ(profiledKernels(a), 0u);
    EXPECT_GT(profiledKernels(b), 0u);
    for (auto &l : b.layers)
        for (auto &k : l.kernels)
            k.profile = nullptr;
    EXPECT_EQ(rt::serializeNetRun(a), rt::serializeNetRun(b));
}

// Memoized steady-state replays splice the armed launch's cached
// profile instead of re-simulating.
TEST(Prof, MemoReplaySplicesProfile)
{
    const rt::NetRun run = runProfiled("gru");
    size_t replayedWithProfile = 0;
    for (const auto &l : run.layers)
        for (const auto &k : l.kernels)
            replayedWithProfile += k.replayed && k.profile != nullptr;
    EXPECT_GT(run.totals.get("mem.replayed_launches"), 0.0);
    EXPECT_GT(replayedWithProfile, 0u);
    std::string why;
    EXPECT_TRUE(prof::checkProfileConsistency(run, &why)) << why;
}

// Profiles ride on NetRun through the Engine's disk spill format.
TEST(Prof, RunCacheRoundTripsProfiles)
{
    const rt::NetRun run = runProfiled("cifarnet");
    rt::NetRun back;
    ASSERT_TRUE(rt::parseNetRunJson(rt::serializeNetRun(run), back));
    ASSERT_EQ(back.layers.size(), run.layers.size());
    for (size_t li = 0; li < run.layers.size(); li++) {
        const auto &ka = run.layers[li].kernels;
        const auto &kb = back.layers[li].kernels;
        ASSERT_EQ(kb.size(), ka.size());
        for (size_t ki = 0; ki < ka.size(); ki++) {
            ASSERT_EQ(kb[ki].profile != nullptr, ka[ki].profile != nullptr);
            if (ka[ki].profile) {
                EXPECT_EQ(*kb[ki].profile, *ka[ki].profile);
            }
        }
    }
    std::string why;
    EXPECT_TRUE(prof::checkProfileConsistency(back, &why)) << why;
}

// The DSL source mapping: mark() scopes nest, unlabeled code maps to
// the empty label, and pcLabel stays in lock-step with the code.
TEST(Prof, BuilderMarkScopesNest)
{
    kern::Builder b("prof.marks");
    kern::Reg r = b.immU(1);              // before any mark: unlabeled
    {
        auto outer = b.mark("outer");
        b.addi(sim::DType::U32, r, 1);
        {
            auto inner = b.mark("inner");
            b.addi(sim::DType::U32, r, 2);
        }
        b.addi(sim::DType::U32, r, 3);    // outer label resumes
    }
    b.exit();                             // after all marks: unlabeled
    const auto prog = b.finish();
    const sim::Program &p = *prog;

    ASSERT_EQ(p.debug.pcLabel.size(), p.code.size());
    ASSERT_EQ(p.code.size(), 5u);
    EXPECT_EQ(p.debug.labelAt(0), "");
    EXPECT_EQ(p.debug.labelAt(1), "outer");
    EXPECT_EQ(p.debug.labelAt(2), "inner");
    EXPECT_EQ(p.debug.labelAt(3), "outer");
    EXPECT_EQ(p.debug.labelAt(4), "");
    EXPECT_EQ(p.debug.labelAt(1000), "");  // out of range -> unlabeled
}

// Hotspot rollup, annotated disassembly and folded-stack export agree
// with each other on a real network.
TEST(Prof, HotspotRollupAndExports)
{
    const rt::NetRun run = runProfiled("cifarnet");

    const std::vector<prof::Hotspot> rows = prof::hotspots(run);
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows[0].label, "conv.mac");  // MAC inner loop dominates
    for (size_t i = 1; i < rows.size(); i++)
        EXPECT_GE(rows[i - 1].cycles, rows[i].cycles);

    const auto lines = prof::annotateKernel(run, rows[0].kernel);
    ASSERT_FALSE(lines.empty());
    double annotated = 0.0;
    for (const auto &l : lines) {
        EXPECT_FALSE(l.text.empty());
        annotated += l.issued + l.stallCycles;
    }
    EXPECT_GT(annotated, 0.0);

    // Every folded line is "net;layer;kernel;label <integer cycles>".
    const std::string folded = prof::foldedStacks(run);
    ASSERT_FALSE(folded.empty());
    const std::regex line("cifarnet;[^;]+;[^;]+;[^ ;]+ [0-9]+");
    size_t pos = 0, checked = 0;
    while (pos < folded.size()) {
        const size_t nl = folded.find('\n', pos);
        ASSERT_NE(nl, std::string::npos);
        const std::string one = folded.substr(pos, nl - pos);
        EXPECT_TRUE(std::regex_match(one, line)) << one;
        pos = nl + 1;
        checked++;
    }
    EXPECT_GT(checked, 0u);
    EXPECT_NE(folded.find(";conv.mac "), std::string::npos);
}

} // namespace
} // namespace tango
