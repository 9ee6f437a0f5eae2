/**
 * @file
 * Front-end tests (sim/frontend.hh): the helper thread that executes a
 * launch's CTAs ahead of the SM cycle loop and hands each warp's executed
 * instructions over through bounded rings.
 *
 * The kernel exchanges values through shared memory across a barrier
 * inside a loop, branches divergently and retires some lanes early, and
 * each warp executes many ring-fulls of records, so every launch wraps
 * its rings, parks warps at barriers and waits on both sides of the
 * handoff.  Functional values must equal a CPU computation; timing-only
 * launches must repeat bit for bit; a launch stopped by the cycle cap
 * must leave the Gpu ready for the next one.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "kernels/builder.hh"
#include "sim/cache.hh"
#include "sim/core.hh"
#include "sim/frontend.hh"
#include "sim/gpu.hh"
#include "sim/interp.hh"

namespace tango::sim {
namespace {

constexpr uint32_t kThreads = 128;   ///< four warps per CTA
constexpr uint32_t kLive = 120;      ///< lanes past this exit at once
constexpr uint32_t kIters = 400;
constexpr uint32_t kCtas = 6;

/**
 * acc = in[gid]; then kIters times: publish acc to shared memory, barrier,
 * read the next live lane's value, barrier, and fold it in — odd lanes
 * add it, even lanes xor it with (value + iteration), on two sides of a
 * divergent branch.  Lanes >= kLive exit before the loop; the others
 * store acc to out[gid].
 */
KernelLaunch
exchangeKernel(uint32_t in, uint32_t out)
{
    kern::Builder b("frontend.exchange");
    const uint32_t sh = b.shared(4 * kThreads);
    kern::Reg tx = b.movS(SReg::TidX);
    kern::Reg cta = b.movS(SReg::CtaIdX);
    kern::PredReg gone = b.pred();
    b.setpi(gone, DType::U32, Cmp::Ge, tx, kLive);
    b.guard(gone);
    b.exit();
    b.endGuard();

    kern::Reg gid = b.madr(DType::U32, cta, b.immU(kThreads), tx);
    kern::Reg goff = b.shli(gid, 2);
    kern::Reg acc = b.reg();
    b.ld(DType::U32, Space::Global, acc, b.add(DType::U32, goff, b.param(0)));
    kern::Reg saddr = b.addi(DType::U32, b.shli(tx, 2), sh);
    kern::Reg nb = b.addi(DType::U32, tx, 1);
    kern::PredReg wrap = b.pred();
    b.setpi(wrap, DType::U32, Cmp::Eq, nb, kLive);
    b.selp(DType::U32, nb, b.immU(0), nb, wrap);
    kern::Reg naddr = b.addi(DType::U32, b.shli(nb, 2), sh);
    kern::Reg odd = b.reg();
    b.emit3i(Op::And, DType::U32, odd, tx, 1);
    kern::PredReg isOdd = b.pred();
    b.setpi(isOdd, DType::U32, Cmp::Ne, odd, 0);

    kern::Reg it = b.reg();
    kern::Reg v = b.reg();
    kern::Reg t = b.reg();
    b.forLoopI(it, 0, kIters, [&] {
        b.st(DType::U32, Space::Shared, saddr, acc);
        b.bar();
        b.ld(DType::U32, Space::Shared, v, naddr);
        b.bar();
        kern::Label evenL = b.label();
        kern::Label endL = b.label();
        b.ssy(endL);
        b.braIf(evenL, isOdd, /*negate=*/true);
        b.emit3(Op::Add, DType::U32, acc, acc, v);
        b.bra(endL);
        b.bind(evenL);
        b.emit3(Op::Add, DType::U32, t, v, it);
        b.emit3(Op::Xor, DType::U32, acc, acc, t);
        b.bind(endL);
    });
    b.st(DType::U32, Space::Global, b.add(DType::U32, goff, b.param(1)),
         acc);

    KernelLaunch l;
    l.program = b.finish();
    l.grid = {kCtas, 1, 1};
    l.block = {kThreads, 1, 1};
    l.params = {in, out};
    return l;
}

/** exchangeKernel on the CPU: out[gid] per thread (kLive per CTA). */
std::vector<uint32_t>
exchangeReference(const std::vector<uint32_t> &in)
{
    std::vector<uint32_t> out(in.size(), 0);
    for (uint32_t c = 0; c < kCtas; c++) {
        std::vector<uint32_t> acc(in.begin() + c * kThreads,
                                  in.begin() + c * kThreads + kLive);
        for (uint32_t it = 0; it < kIters; it++) {
            const std::vector<uint32_t> shared = acc;
            for (uint32_t t = 0; t < kLive; t++) {
                const uint32_t v = shared[(t + 1) % kLive];
                acc[t] = (t & 1) ? acc[t] + v : acc[t] ^ (v + it);
            }
        }
        for (uint32_t t = 0; t < kLive; t++)
            out[c * kThreads + t] = acc[t];
    }
    return out;
}

/** Every CTA simulated, two resident at a time: three waves, so the
 *  front end also runs CTAs ahead of the resident ones. */
SimPolicy
wavesPolicy()
{
    SimPolicy p;
    p.fullSim = true;
    p.maxResidentCtas = 2;
    p.memoize = false;
    p.shards = 1;
    return p;
}

void
expectSameStats(const KernelStats &a, const KernelStats &b)
{
    EXPECT_EQ(a.smCycles, b.smCycles);
    EXPECT_EQ(a.stats.all(), b.stats.all());
    EXPECT_EQ(a.peakWindowDynW, b.peakWindowDynW);
    ASSERT_EQ(a.profile == nullptr, b.profile == nullptr);
    if (a.profile)
        EXPECT_TRUE(*a.profile == *b.profile);
}

size_t
threadCount()
{
    size_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)e;
        n++;
    }
    return n;
}

TEST(FrontEnd, FunctionalOutputsEqualTheCpu)
{
    Gpu gpu(pascalGP102());
    DeviceMemory &mem = gpu.mem();
    const uint32_t n = kCtas * kThreads;
    const uint32_t in = mem.allocate(4ull * n);
    const uint32_t out = mem.allocate(4ull * n);
    std::vector<uint32_t> host(n);
    for (uint32_t i = 0; i < n; i++)
        host[i] = i * 2654435761u + 12345u;
    mem.copyIn(in, host.data(), 4ull * n);

    const KernelLaunch l = exchangeKernel(in, out);
    const KernelStats ks = gpu.launch(l, wavesPolicy());
    // Each warp issues many times what one ring holds.
    EXPECT_GT(ks.stats.get("issued") / (kCtas * 4),
              5.0 * kRingWords / rec::kHeaderWords);

    const std::vector<uint32_t> want = exchangeReference(host);
    for (uint32_t i = 0; i < n; i++)
        ASSERT_EQ(mem.read<uint32_t>(out + 4 * i), want[i]) << "thread " << i;
}

TEST(FrontEnd, TimingOnlyLaunchesRepeatBitForBit)
{
    Gpu gpu(pascalGP102());
    KernelLaunch l = exchangeKernel(gpu.mem().allocate(4 * kCtas * kThreads),
                                    gpu.mem().allocate(4 * kCtas * kThreads));
    ASSERT_TRUE(valueOblivious(*l.program));
    l.valuesUnobserved = true;
    SimPolicy policy = wavesPolicy();
    policy.profile = true;

    const KernelStats first = gpu.launch(l, policy);
    const size_t threads = threadCount();
    for (int i = 1; i < 20; i++) {
        gpu.coldStart();
        expectSameStats(gpu.launch(l, policy), first);
    }
    // The front end's helper thread is reused, not started per launch.
    EXPECT_EQ(threadCount(), threads);
}

TEST(FrontEnd, StreamDigestsRepeatAndMatchFunctionalExecution)
{
    const GpuConfig cfg = pascalGP102();
    DeviceMemory mem(64 << 20);
    KernelLaunch l = exchangeKernel(mem.allocate(4 * kCtas * kThreads),
                                    mem.allocate(4 * kCtas * kThreads));
    l.valuesUnobserved = true;
    CacheConfig l2cfg;
    l2cfg.sizeBytes = cfg.l2Bytes;
    l2cfg.assoc = cfg.l2Assoc;
    l2cfg.lineBytes = cfg.lineBytes;
    l2cfg.mshrs = cfg.l2Mshrs;
    l2cfg.writeAllocate = true;
    Cache l2(l2cfg);
    Dram dram(cfg.dramLatency, cfg.dramIssueInterval);

    std::vector<uint64_t> ctas(kCtas);
    for (uint32_t i = 0; i < kCtas; i++)
        ctas[i] = i;
    const std::vector<uint32_t> warps = {0, 1, 2, 3};
    const uint64_t reference = runFunctionalOnly(l, ctas, warps, mem);

    FrontEnd fe;
    for (int i = 0; i < 20; i++) {
        SmCore core(cfg, mem, l2, dram);
        uint64_t digest = 0;
        core.run(l, ctas, warps, 2, wavesPolicy(), fe, &digest);
        ASSERT_EQ(digest, reference) << "run " << i;
    }
}

TEST(FrontEnd, CycleCapStopsTheFrontEndAndLeavesTheGpuUsable)
{
    Gpu gpu(pascalGP102());
    const uint32_t in = gpu.mem().allocate(4 * kCtas * kThreads);
    const uint32_t out = gpu.mem().allocate(4 * kCtas * kThreads);
    KernelLaunch l = exchangeKernel(in, out);
    l.valuesUnobserved = true;
    SimPolicy capped = wavesPolicy();
    capped.maxCycles = 5000;
    EXPECT_THROW(gpu.launch(l, capped), CycleCapExceeded);

    // The capped launch warmed the L2 before it stopped; coldStart()
    // drops that, so the next launch must equal one on a fresh Gpu.
    gpu.coldStart();
    const KernelStats after = gpu.launch(l, wavesPolicy());
    Gpu fresh(pascalGP102());
    fresh.mem().allocate(4 * kCtas * kThreads);
    fresh.mem().allocate(4 * kCtas * kThreads);
    expectSameStats(after, fresh.launch(l, wavesPolicy()));
}

} // namespace
} // namespace tango::sim
