/**
 * @file
 * SM core / GPU timing-model tests: cycle accounting, stall
 * classification, occupancy, CTA/warp sampling scaling, power plumbing.
 */

#include <gtest/gtest.h>

#include "kernels/builder.hh"
#include "sim/gpu.hh"

namespace tango::sim {
namespace {

/** A tiny ALU-only kernel: per-thread dependent chain of n adds. */
KernelLaunch
chainKernel(uint32_t n, Dim3 grid, Dim3 block)
{
    kern::Builder b("chain");
    kern::Reg acc = b.immU(1);
    for (uint32_t i = 0; i < n; i++)
        b.emit3i(Op::Add, DType::U32, acc, acc, 1);
    KernelLaunch l;
    l.program = b.finish();
    l.grid = grid;
    l.block = block;
    return l;
}

/** A load-heavy kernel: each thread streams over a buffer.
 *  @param passes walks over the same addresses (reuse for the caches). */
KernelLaunch
streamKernel(uint32_t words, uint32_t buf, Dim3 grid, Dim3 block,
             uint32_t passes = 1)
{
    kern::Builder b("stream");
    kern::Reg tx = b.movS(SReg::TidX);
    kern::Reg addr = b.shli(tx, 2);
    b.emit3i(Op::Add, DType::U32, addr, addr, buf);
    kern::Reg v = b.reg();
    kern::Reg sum = b.immF(0.0f);
    for (uint32_t p = 0; p < passes; p++) {
        for (uint32_t i = 0; i < words; i++) {
            b.ld(DType::F32, Space::Global, v, addr, i * 512);
            b.emit3(Op::Add, DType::F32, sum, sum, v);
        }
    }
    KernelLaunch l;
    l.program = b.finish();
    l.grid = grid;
    l.block = block;
    return l;
}

TEST(Core, DependentChainTakesLatencyPerOp)
{
    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    const auto ks = gpu.launch(chainKernel(100, {1, 1, 1}, {32, 1, 1}),
                               p);
    // One warp, fully dependent adds: >= latency * n cycles.
    EXPECT_GE(ks.smCycles, 100u * opLatency(Op::Add));
    EXPECT_LT(ks.smCycles, 100u * opLatency(Op::Add) * 3);
    EXPECT_EQ(ks.stats.get("op.add"), 100.0 * 32);
}

TEST(Core, MoreWarpsHideLatency)
{
    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    const auto one = gpu.launch(chainKernel(200, {1, 1, 1}, {32, 1, 1}),
                                p);
    const auto eight =
        gpu.launch(chainKernel(200, {1, 1, 1}, {256, 1, 1}), p);
    // Eight warps interleave: far less than 8x the single-warp time.
    EXPECT_LT(eight.smCycles, one.smCycles * 3);
}

TEST(Core, ExecDependencyStallsDominateChains)
{
    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    const auto ks = gpu.launch(chainKernel(300, {1, 1, 1}, {32, 1, 1}),
                               p);
    const double execDep = ks.stats.get("stall.exec_dependency");
    double total = 0.0;
    for (size_t i = 0; i < numStalls; i++) {
        total += ks.stats.get(std::string("stall.") +
                              stallName(static_cast<Stall>(i)));
    }
    EXPECT_GT(execDep / total, 0.5);
}

TEST(Core, MemoryDependencyStallsDominateStreams)
{
    Gpu gpu(pascalGP102());
    const uint32_t buf = gpu.mem().allocate(1 << 20);
    SimPolicy p;
    p.fullSim = true;
    const auto ks =
        gpu.launch(streamKernel(64, buf, {1, 1, 1}, {32, 1, 1}), p);
    const double memDep = ks.stats.get("stall.memory_dependency");
    EXPECT_GT(memDep, ks.stats.get("stall.exec_dependency"));
}

TEST(Core, L1CachingReducesCycles)
{
    GpuConfig with = pascalGP102();
    GpuConfig without = pascalGP102();
    without.l1dBytes = 0;
    SimPolicy p;
    p.fullSim = true;

    Gpu g1(with);
    const uint32_t b1 = g1.mem().allocate(1 << 20);
    // Walk the same 32KB of lines four times: the 64KB L1 captures them
    // after the first pass.
    const auto hot = streamKernel(64, b1, {1, 1, 1}, {32, 1, 1}, 4);
    const auto k1 = g1.launch(hot, p);

    Gpu g0(without);
    const uint32_t b0 = g0.mem().allocate(1 << 20);
    EXPECT_EQ(b0, b1);
    const auto k0 = g0.launch(hot, p);

    EXPECT_LT(k1.smCycles, k0.smCycles);
    EXPECT_GT(k1.stats.get("mem.l1d.hits"), 0.0);
}

TEST(Core, OccupancyLimits)
{
    const GpuConfig cfg = pascalGP102();
    // Thread-limited: 2048 threads / 1024 per CTA.
    EXPECT_EQ(cfg.occupancyCtas(1024, 16, 0), 2u);
    // CTA-count-limited for tiny blocks.
    EXPECT_EQ(cfg.occupancyCtas(1, 16, 0), cfg.maxCtasPerSm);
    // Register-limited: 256 regs x 512 threads x 4B = 512KB > 256KB.
    EXPECT_EQ(cfg.occupancyCtas(512, 250, 0), 0u + 1u);
    // Shared-memory-limited.
    EXPECT_EQ(cfg.occupancyCtas(32, 16, cfg.smemBytesPerSm), 1u);
}

TEST(Core, CtaSamplingScalesStats)
{
    Gpu gpu(pascalGP102());
    // 64 identical CTAs; sample vs full must agree after scaling.
    const auto launch = chainKernel(50, {64, 1, 1}, {32, 1, 1});
    SimPolicy full;
    full.fullSim = true;
    full.maxResidentCtas = 4;
    const auto kf = gpu.launch(launch, full);

    SimPolicy sampled;
    sampled.maxResidentCtas = 4;
    sampled.maxSampledCtas = 8;
    const auto ks = gpu.launch(launch, sampled);

    EXPECT_EQ(ks.sampledCtas, 8u);
    EXPECT_DOUBLE_EQ(ks.scale, 8.0);
    EXPECT_NEAR(ks.stats.get("op.add"), kf.stats.get("op.add"),
                kf.stats.get("op.add") * 0.01);
    // Extrapolated whole-GPU cycles within 25% of the full simulation.
    EXPECT_NEAR(ks.gpuCycles, kf.gpuCycles, kf.gpuCycles * 0.25);
}

TEST(Core, WarpSamplingScalesStats)
{
    Gpu gpu(pascalGP102());
    const auto launch = chainKernel(50, {4, 1, 1}, {256, 1, 1});
    SimPolicy full;
    full.fullSim = true;
    const auto kf = gpu.launch(launch, full);

    SimPolicy sampled;
    sampled.maxWarpsPerCta = 2;
    sampled.maxSampledCtas = 4;
    const auto ks = gpu.launch(launch, sampled);

    EXPECT_EQ(ks.sampledWarpsPerCta, 2u);
    EXPECT_EQ(ks.totalWarpsPerCta, 8u);
    EXPECT_NEAR(ks.stats.get("op.add"), kf.stats.get("op.add"),
                kf.stats.get("op.add") * 0.01);
}

TEST(Core, WarpSamplingDisabledByBarriers)
{
    kern::Builder b("withbar");
    kern::Reg acc = b.immU(0);
    b.emit3i(Op::Add, DType::U32, acc, acc, 1);
    b.bar();
    b.emit3i(Op::Add, DType::U32, acc, acc, 1);
    KernelLaunch l;
    l.program = b.finish();
    l.grid = {1, 1, 1};
    l.block = {128, 1, 1};

    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.maxWarpsPerCta = 1;
    const auto ks = gpu.launch(l, p);
    EXPECT_EQ(ks.sampledWarpsPerCta, 4u);   // sampling refused
}

TEST(Core, PowerAndEnergyArePositiveAndConsistent)
{
    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    const auto ks = gpu.launch(chainKernel(100, {8, 1, 1}, {64, 1, 1}),
                               p);
    EXPECT_GT(ks.energyJ, 0.0);
    EXPECT_GT(ks.timeSec, 0.0);
    EXPECT_GT(ks.peakPowerW, gpu.staticPowerW(1) * 0.99);
    EXPECT_NEAR(ks.avgPowerW, ks.energyJ / ks.timeSec,
                ks.avgPowerW * 1e-9);
}

TEST(Core, ConstCacheStallsClassified)
{
    kern::Builder b("constload");
    b.constant(64);
    kern::Reg v = b.reg();
    kern::Reg sum = b.immU(0);
    for (int i = 0; i < 8; i++) {
        v = b.ldc(DType::U32, (i % 4) * 4);
        b.emit3(Op::Add, DType::U32, sum, sum, v);
    }
    KernelLaunch l;
    l.program = b.finish();
    l.grid = {1, 1, 1};
    l.block = {32, 1, 1};
    l.constData.resize(64, 0);

    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    const auto ks = gpu.launch(l, p);
    EXPECT_GT(ks.stats.get("evt.cc"), 0.0);
    EXPECT_GT(ks.stats.get("stall.constant_memory_dependency"), 0.0);
}

TEST(Core, LaunchWiderThanTheSlotMasksThrows)
{
    // A 4096-thread block is 128 warps: one resident CTA (the occupancy
    // floor) would need more warp slots than the scheduler masks hold.
    Gpu gpu(pascalGP102());
    const KernelLaunch wide = chainKernel(4, {2, 1, 1}, {4096, 1, 1});
    SimPolicy full;
    full.fullSim = true;
    EXPECT_THROW(gpu.launch(wide, full), TooManyWarpSlots);

    // Sampling 6 of its warps fits, and the device keeps working.
    SimPolicy sampled;
    sampled.maxWarpsPerCta = 6;
    const auto ks = gpu.launch(wide, sampled);
    EXPECT_EQ(ks.sampledWarpsPerCta, 6u);
    EXPECT_EQ(ks.residentCtas, 1u);
    EXPECT_GT(ks.smCycles, 0u);
}

TEST(Core, ActiveSmEstimate)
{
    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    // One CTA can only keep one SM busy.
    const auto one = gpu.launch(chainKernel(10, {1, 1, 1}, {32, 1, 1}),
                                p);
    EXPECT_EQ(one.activeSms, 1u);
    // Hundreds of CTAs keep the whole die busy.
    SimPolicy s;
    s.maxSampledCtas = 4;
    const auto many =
        gpu.launch(chainKernel(10, {512, 1, 1}, {32, 1, 1}), s);
    EXPECT_EQ(many.activeSms, gpu.config().numSms);
}

} // namespace
} // namespace tango::sim
