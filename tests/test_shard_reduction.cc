/**
 * @file
 * Property tests for the intra-run shard plan and its deterministic
 * reduction (sim/shard.hh).  The determinism contract rests on three
 * algebraic facts, each checked here over randomized inputs with a
 * fixed seed:
 *
 *   1. planCtaShards() is a total, deterministic partition: contiguous,
 *      gap-free coverage of [0, sampled), wave-aligned in the wave
 *      regime, never more shards than requested (or than available
 *      work), and K=1 is the exact sequential identity.
 *
 *   2. Folding KernelStats / KernelProfile fragments in fixed shard
 *      order is ASSOCIATIVE and equal to a scalar reference fold —
 *      StatSet counters are integer-valued doubles below 2^53 and the
 *      profile arrays are uint64, so shard-order addition is exact, and
 *      any bracketing of the fold produces bit-identical results.
 *      The scale x workScale double-arithmetic path from the per-PC
 *      profiler rides on top: scaling is applied exactly once, after
 *      the raw fold, and profileConsistent() must accept the folded
 *      profile against the scaled totals bit-for-bit.
 *
 *   3. combineStreamDigests() over shard-partitioned per-warp digest
 *      vectors equals the digest fold of the flat (unsharded) launch
 *      order, no matter where the shard boundaries fall — which is why
 *      memo fingerprints and functional replay work unchanged at K>1.
 *
 * Plus one end-to-end property of the sharded launch itself: a shard
 * that throws fails the launch on the caller, never the process.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "kernels/builder.hh"
#include "metrics/metrics.hh"
#include "sim/core.hh"
#include "sim/digest.hh"
#include "sim/gpu.hh"
#include "sim/profile.hh"
#include "sim/shard.hh"

namespace tango {
namespace {

using sim::CtaShard;
using sim::KernelProfile;
using sim::KernelStats;
using sim::planCtaShards;

// ------------------------------------------------------------- shard plans

void
expectPlanPartitions(const std::vector<CtaShard> &plan, uint64_t sampled,
                     uint32_t resident, uint32_t k)
{
    ASSERT_FALSE(plan.empty());
    EXPECT_LE(plan.size(), size_t(k));
    EXPECT_EQ(plan.front().begin, 0u);
    EXPECT_EQ(plan.back().end, sampled);
    const uint64_t waves = (sampled + resident - 1) / resident;
    for (size_t i = 0; i < plan.size(); i++) {
        EXPECT_LT(plan[i].begin, plan[i].end) << "empty shard " << i;
        if (i + 1 < plan.size())
            EXPECT_EQ(plan[i].end, plan[i + 1].begin)
                << "gap/overlap between shards " << i << " and " << i + 1;
        if (waves >= 2) {
            // Wave regime: whole waves at launch residency.
            EXPECT_EQ(plan[i].begin % resident, 0u)
                << "shard " << i << " not wave-aligned";
            EXPECT_EQ(plan[i].resident, resident);
        } else {
            // Intra-wave regime: each slice is its own one-wave core.
            EXPECT_EQ(plan[i].resident, plan[i].count());
        }
    }
}

TEST(ShardPlan, PartitionsAreContiguousAlignedAndClamped)
{
    std::mt19937 rng(0xc7a5);
    for (int trial = 0; trial < 2000; trial++) {
        const uint32_t resident = 1 + rng() % 64;
        const uint64_t sampled = 1 + rng() % 4096;
        const uint32_t k = 1 + rng() % sim::kMaxShards;
        SCOPED_TRACE("sampled=" + std::to_string(sampled) +
                     " resident=" + std::to_string(resident) +
                     " k=" + std::to_string(k));
        expectPlanPartitions(planCtaShards(sampled, resident, k), sampled,
                             resident, k);
    }
}

TEST(ShardPlan, IsDeterministic)
{
    std::mt19937 rng(0x7a40);
    for (int trial = 0; trial < 200; trial++) {
        const uint32_t resident = 1 + rng() % 64;
        const uint64_t sampled = 1 + rng() % 4096;
        const uint32_t k = 1 + rng() % sim::kMaxShards;
        EXPECT_EQ(planCtaShards(sampled, resident, k),
                  planCtaShards(sampled, resident, k));
    }
}

TEST(ShardPlan, KOneIsTheSequentialIdentity)
{
    for (const uint64_t sampled : {1ull, 7ull, 64ull, 4097ull}) {
        for (const uint32_t resident : {1u, 8u, 48u}) {
            const auto plan = planCtaShards(sampled, resident, 1);
            ASSERT_EQ(plan.size(), 1u);
            EXPECT_EQ(plan[0].begin, 0u);
            EXPECT_EQ(plan[0].end, sampled);
            EXPECT_EQ(plan[0].resident, resident);
        }
    }
}

TEST(ShardPlan, NeverExceedsAvailableWork)
{
    // More shards than waves (wave regime): clamped to waves.
    EXPECT_EQ(planCtaShards(96, 32, 64).size(), 3u);
    // More shards than CTAs (intra-wave regime): clamped to CTAs.
    EXPECT_EQ(planCtaShards(3, 48, 64).size(), 3u);
    // A single CTA can never split.
    EXPECT_EQ(planCtaShards(1, 16, 64).size(), 1u);
}

// ------------------------------------------------------ KernelStats folds

/** A random stat fragment as one shard would produce it: integer-valued
 *  doubles (raw, unscaled counters) over a fixed key set. */
KernelStats
randomFragment(std::mt19937 &rng, bool withProfile, uint32_t numPcs)
{
    KernelStats ks;
    ks.smCycles = rng() % (1u << 20);
    ks.peakWindowDynW = double(rng() % 1000);
    for (const char *key : {"issued", "op.mac", "stall.mem",
                            "mem.l1d.misses", "mem.l2.misses", "evt.dram"})
        ks.stats.add(key, double(rng() % (1u << 24)));
    if (withProfile) {
        auto p = std::make_shared<KernelProfile>();
        p->issued.resize(numPcs);
        p->stalls.resize(size_t(numPcs) * sim::numStalls);
        p->l1dMisses.resize(numPcs);
        p->l2Misses.resize(numPcs);
        p->dramTxns.resize(numPcs);
        for (auto *vec : {&p->issued, &p->stalls, &p->l1dMisses,
                          &p->l2Misses, &p->dramTxns}) {
            for (auto &x : *vec)
                x = rng() % (1u << 16);
        }
        ks.profile = std::move(p);
    }
    return ks;
}

void
expectStatsEqual(const KernelStats &a, const KernelStats &b)
{
    EXPECT_EQ(a.smCycles, b.smCycles);
    EXPECT_EQ(a.peakWindowDynW, b.peakWindowDynW);
    EXPECT_EQ(a.stats.all(), b.stats.all());
    ASSERT_EQ(bool(a.profile), bool(b.profile));
    if (a.profile)
        EXPECT_TRUE(*a.profile == *b.profile);
}

/** Deep copy: foldShardStats mutates its accumulator (and the shared
 *  profile it points at), so every bracketing needs private storage. */
KernelStats
cloneStats(const KernelStats &ks)
{
    KernelStats out = ks;
    if (ks.profile)
        out.profile = std::make_shared<KernelProfile>(*ks.profile);
    return out;
}

TEST(ShardReduction, FoldMatchesScalarReferenceAndIsAssociative)
{
    std::mt19937 rng(0x5eed);
    for (int trial = 0; trial < 50; trial++) {
        const size_t shards = 2 + rng() % 7;
        const uint32_t numPcs = 4 + rng() % 60;
        std::vector<KernelStats> frags;
        for (size_t i = 0; i < shards; i++)
            frags.push_back(randomFragment(rng, true, numPcs));

        // Scalar reference: per-key sums in plain uint64 arithmetic.
        uint64_t refCycles = 0;
        double refPeak = 0.0;
        std::map<std::string, uint64_t> refStats;
        std::vector<uint64_t> refIssued(numPcs, 0);
        for (const KernelStats &f : frags) {
            refCycles += f.smCycles;
            refPeak = std::max(refPeak, f.peakWindowDynW);
            for (const auto &[k, v] : f.stats.all())
                refStats[k] += static_cast<uint64_t>(v);
            for (uint32_t pc = 0; pc < numPcs; pc++)
                refIssued[pc] += f.profile->issued[pc];
        }

        // Left fold in shard order.
        KernelStats left = cloneStats(frags[0]);
        for (size_t i = 1; i < shards; i++)
            sim::foldShardStats(left, frags[i]);

        EXPECT_EQ(left.smCycles, refCycles);
        EXPECT_EQ(left.peakWindowDynW, refPeak);
        for (const auto &[k, v] : refStats)
            EXPECT_EQ(left.stats.get(k), double(v)) << k;
        for (uint32_t pc = 0; pc < numPcs; pc++)
            EXPECT_EQ(left.profile->issued[pc], refIssued[pc]);

        // Any other bracketing gives the bit-identical result: fold
        // pairs first, then fold the partial sums.
        KernelStats tree = cloneStats(frags[0]);
        sim::foldShardStats(tree, frags[1]);
        for (size_t i = 2; i + 1 < shards; i += 2) {
            KernelStats pair = cloneStats(frags[i]);
            sim::foldShardStats(pair, frags[i + 1]);
            sim::foldShardStats(tree, pair);
        }
        if (shards > 2 && shards % 2 == 1)
            sim::foldShardStats(tree, frags[shards - 1]);
        expectStatsEqual(left, tree);
    }
}

TEST(ShardReduction, ScaleIsAppliedOnceAfterTheRawFold)
{
    // The PR-5 double-arithmetic contract: the StatSet totals are
    // (double)rawSum * scale * workScale in that exact order, and the
    // folded profile must reproduce them bit-for-bit through
    // profileConsistent() — which is only possible if the launch scaled
    // once after reduction rather than per shard.
    std::mt19937 rng(0x0dd5);
    for (int trial = 0; trial < 50; trial++) {
        const size_t shards = 2 + rng() % 7;
        const uint32_t numPcs = 4 + rng() % 60;
        std::vector<KernelStats> frags;
        for (size_t i = 0; i < shards; i++)
            frags.push_back(randomFragment(rng, true, numPcs));

        KernelStats acc = cloneStats(frags[0]);
        for (size_t i = 1; i < shards; i++)
            sim::foldShardStats(acc, frags[i]);

        // Mirror Gpu::launch + runtime work scaling: one multiply each,
        // after the fold.
        const double scale = double(1 + rng() % 37) / 3.0;
        const double workScale = double(1 + rng() % 11);
        acc.profile->scale = scale;
        acc.profile->workScale = workScale;

        StatSet scaled;
        for (size_t s = 0; s < sim::numStalls; s++) {
            uint64_t raw = 0;
            for (uint32_t pc = 0; pc < numPcs; pc++)
                raw += acc.profile->stallAt(pc, s);
            double v = double(raw);
            v *= scale;
            v *= workScale;
            scaled.set(std::string("stall.") +
                           sim::stallName(static_cast<sim::Stall>(s)),
                       v);
        }
        // The profile's own counters drive issued/misses/txns: rebuild
        // those four totals from the folded arrays, like SmCore does.
        auto sum = [](const std::vector<uint64_t> &v) {
            uint64_t t = 0;
            for (uint64_t x : v)
                t += x;
            return t;
        };
        for (const auto &[key, vec] :
             std::initializer_list<
                 std::pair<const char *, const std::vector<uint64_t> *>>{
                 {"issued", &acc.profile->issued},
                 {"mem.l1d.misses", &acc.profile->l1dMisses},
                 {"mem.l2.misses", &acc.profile->l2Misses},
                 {"evt.dram", &acc.profile->dramTxns}}) {
            double v = double(sum(*vec));
            v *= scale;
            v *= workScale;
            scaled.set(key, v);
        }

        std::string why;
        EXPECT_TRUE(sim::profileConsistent(*acc.profile, scaled, &why))
            << why;
    }
}

TEST(ShardReduction, ProfileShapeMismatchIsFatal)
{
    std::mt19937 rng(0xface);
    KernelStats a = randomFragment(rng, true, 8);
    KernelStats b = randomFragment(rng, true, 9);
    EXPECT_DEATH(sim::foldShardStats(a, b), "shape mismatch");
}

// ------------------------------------------------------- stream digests

TEST(ShardReduction, ShardedStreamDigestEqualsFlatFold)
{
    std::mt19937_64 rng(0xd16e);
    for (int trial = 0; trial < 200; trial++) {
        // A launch's per-warp digest vector in launch order...
        const size_t warps = 1 + rng() % 200;
        std::vector<uint64_t> flat(warps);
        for (auto &h : flat)
            h = rng();

        // ...split at arbitrary shard boundaries.
        const size_t shards = 1 + rng() % 8;
        std::vector<std::vector<uint64_t>> parts(shards);
        size_t at = 0;
        for (size_t i = 0; i < shards; i++) {
            const size_t take = i + 1 == shards
                                    ? flat.size() - at
                                    : rng() % (flat.size() - at + 1);
            parts[i].assign(flat.begin() + at, flat.begin() + at + take);
            at += take;
        }

        uint64_t ref = sim::digest::kInit;
        for (uint64_t h : flat)
            sim::digest::mix(ref, h);
        EXPECT_EQ(sim::combineStreamDigests(parts), ref);
    }
}

// -------------------------------------------------------- sharded launch

// The cycle cap throws sim::CycleCapExceeded.  Inside a shard worker
// that exception must reach the caller after every worker has joined:
// escaping a std::thread would terminate the process (and with it a
// serving daemon).  The device stays usable afterwards.
TEST(ShardedLaunch, CycleCapThrowsOnTheCallerForEveryShardCount)
{
    kern::Builder b("shard.store");
    kern::Reg tx = b.movS(sim::SReg::TidX);
    kern::Reg cta = b.movS(sim::SReg::CtaIdX);
    kern::Reg i = b.madr(sim::DType::U32, cta, b.immU(32), tx);
    kern::Reg addr = b.addi(sim::DType::U32, b.shli(i, 2), 1024);
    b.st(sim::DType::U32, sim::Space::Global, addr, tx);
    b.exit();
    sim::KernelLaunch l;
    l.program = b.finish();
    l.grid = {8, 1, 1};
    l.block = {32, 1, 1};

    const metrics::Counter &sharded =
        metrics::counter("tango_sim_sharded_launches_total", "");
    for (uint32_t shards : {1u, 4u}) {
        const uint64_t sharded0 = sharded.value();
        sim::Gpu gpu(sim::pascalGP102());
        gpu.mem().allocate(1024 + 4 * 8 * 32);
        sim::SimPolicy capped;
        capped.fullSim = true;
        capped.maxResidentCtas = 0;
        capped.shards = shards;
        capped.maxCycles = 1;
        EXPECT_THROW(gpu.launch(l, capped), sim::CycleCapExceeded)
            << shards << " shards";
        EXPECT_EQ(sharded.value() - sharded0, shards > 1 ? 1u : 0u);
        sim::SimPolicy ok = capped;
        ok.maxCycles = sim::SimPolicy{}.maxCycles;
        EXPECT_GT(gpu.launch(l, ok).smCycles, 1u) << shards << " shards";
    }
}

} // namespace
} // namespace tango
