/**
 * @file
 * Launch-memoization tests (sim/gpu.cc).
 *
 * The memoization layer may only ever change *how fast* a launch is
 * served, never a single statistic or data value.  These tests pin the
 * full protocol: arming after two identical full simulations, stat
 * splicing on replay, functional (real-value) execution under replay,
 * the self-validating fallback when a data-dependent kernel diverges,
 * per-signature isolation, the TANGO_NO_MEMO kill switch, the
 * order-stability of the µ-arch state digests the fingerprint is built
 * from, the value-oblivious proof (sim::valueOblivious) behind
 * spliced replays that skip execution, and the DecodedInstr::valueDead
 * bit that lets timing-only launches skip their data path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <random>
#include <set>

#include "kernels/builder.hh"
#include "nn/models/models.hh"
#include "runtime/lowering.hh"
#include "runtime/runtime.hh"
#include "sim/cache.hh"
#include "sim/gpu.hh"
#include "sim/interp.hh"

namespace tango::sim {
namespace {

/** y[i] = 2 * x[i] for one 32-thread block: input-independent control
 *  flow and addresses, so it reaches a steady state immediately. */
KernelLaunch
doubleKernel(uint32_t x, uint32_t y)
{
    kern::Builder b("memo.double");
    kern::Reg tx = b.movS(SReg::TidX);
    kern::Reg off = b.shli(tx, 2);
    kern::Reg xa = b.addi(DType::U32, off, x);
    kern::Reg ya = b.addi(DType::U32, off, y);
    kern::Reg v = b.reg();
    b.ld(DType::F32, Space::Global, v, xa);
    b.emit3(Op::Add, DType::F32, v, v, v);
    b.st(DType::F32, Space::Global, ya, v);
    b.exit();
    KernelLaunch l;
    l.program = b.finish();
    l.grid = {1, 1, 1};
    l.block = {32, 1, 1};
    l.params = {x, y};
    return l;
}

/** y[i] = x[i] summed n times, with the trip count n *loaded from
 *  memory*: changing n changes the executed Step stream, which is
 *  exactly the divergence replay must catch. */
KernelLaunch
dataDependentKernel(uint32_t n_addr, uint32_t x, uint32_t y)
{
    kern::Builder b("memo.datadep");
    kern::Reg tx = b.movS(SReg::TidX);
    kern::Reg off = b.shli(tx, 2);
    kern::Reg xa = b.addi(DType::U32, off, x);
    kern::Reg ya = b.addi(DType::U32, off, y);
    kern::Reg na = b.immU(n_addr);
    kern::Reg n = b.reg();
    b.ld(DType::U32, Space::Global, n, na);
    kern::Reg v = b.reg();
    b.ld(DType::F32, Space::Global, v, xa);
    kern::Reg sum = b.immF(0.0f);
    kern::Reg i = b.immU(0);
    kern::PredReg p = b.pred();
    kern::Label top = b.label();
    kern::Label done = b.label();
    b.ssy(done);
    b.bind(top);
    b.setp(p, DType::U32, Cmp::Ge, i, n);
    b.braIf(done, p);
    b.emit3(Op::Add, DType::F32, sum, sum, v);
    b.emit3i(Op::Add, DType::U32, i, i, 1);
    b.bra(top);
    b.bind(done);
    b.st(DType::F32, Space::Global, ya, sum);
    b.exit();
    KernelLaunch l;
    l.program = b.finish();
    l.grid = {1, 1, 1};
    l.block = {32, 1, 1};
    l.params = {n_addr, x, y};
    return l;
}

void
fillInput(Gpu &gpu, uint32_t addr, float base)
{
    float vals[32];
    for (int i = 0; i < 32; i++)
        vals[i] = base + float(i);
    gpu.mem().copyIn(addr, vals, sizeof vals);
}

SimPolicy
exactPolicy()
{
    SimPolicy p;
    p.fullSim = true;
    p.maxResidentCtas = 0;
    return p;
}

TEST(Memo, SteadyStateArmsAfterThreeOccurrencesAndReplays)
{
    Gpu gpu(pascalGP102());
    const uint32_t x = gpu.mem().allocate(4 * 32);
    const uint32_t y = gpu.mem().allocate(4 * 32);
    fillInput(gpu, x, 1.0f);
    const KernelLaunch l = doubleKernel(x, y);

    // Occurrences 1-3: full simulation (count, baseline, arm).
    KernelStats third;
    for (int occ = 1; occ <= 3; occ++) {
        const KernelStats ks = gpu.launch(l, exactPolicy());
        EXPECT_FALSE(ks.replayed) << "occurrence " << occ;
        third = ks;
    }
    // Occurrence 4+: replayed, statistics spliced bit-identically.
    for (int occ = 4; occ <= 6; occ++) {
        const KernelStats ks = gpu.launch(l, exactPolicy());
        EXPECT_TRUE(ks.replayed) << "occurrence " << occ;
        EXPECT_EQ(ks.smCycles, third.smCycles);
        EXPECT_EQ(ks.stats.all(), third.stats.all());
        EXPECT_DOUBLE_EQ(ks.energyJ, third.energyJ);
    }
}

TEST(Memo, ReplayExecutesLanesForRealValues)
{
    Gpu gpu(pascalGP102());
    const uint32_t x = gpu.mem().allocate(4 * 32);
    const uint32_t y = gpu.mem().allocate(4 * 32);
    fillInput(gpu, x, 1.0f);
    const KernelLaunch l = doubleKernel(x, y);
    for (int occ = 1; occ <= 3; occ++)
        gpu.launch(l, exactPolicy());

    // Value-only input mutation: timing is value-independent, so the
    // launch must stay replayed — and the functional fast path must
    // still compute the *new* outputs exactly.
    fillInput(gpu, x, 100.0f);
    const KernelStats ks = gpu.launch(l, exactPolicy());
    EXPECT_TRUE(ks.replayed);
    for (int i = 0; i < 32; i++) {
        const float out = gpu.mem().read<float>(y + 4 * i);
        EXPECT_EQ(out, 2.0f * (100.0f + float(i))) << "lane " << i;
    }
}

TEST(Memo, DataDependentDivergenceFallsBackAndStaysCorrect)
{
    Gpu gpu(pascalGP102());
    const uint32_t na = gpu.mem().allocate(4);
    const uint32_t x = gpu.mem().allocate(4 * 32);
    const uint32_t y = gpu.mem().allocate(4 * 32);
    fillInput(gpu, x, 1.0f);
    const KernelLaunch l = dataDependentKernel(na, x, y);

    const uint32_t four = 4;
    gpu.mem().copyIn(na, &four, 4);
    KernelStats armedStats;
    for (int occ = 1; occ <= 3; occ++)
        armedStats = gpu.launch(l, exactPolicy());
    EXPECT_TRUE(gpu.launch(l, exactPolicy()).replayed);

    // Flip the loaded trip count: the replay's Step-stream digest no
    // longer matches, so the launch must fall back to full simulation —
    // with memory restored first, so the result is still exact.
    const uint32_t eight = 8;
    gpu.mem().copyIn(na, &eight, 4);
    const KernelStats diverged = gpu.launch(l, exactPolicy());
    EXPECT_FALSE(diverged.replayed);
    EXPECT_GT(diverged.stats.get("op.add"), armedStats.stats.get("op.add"));
    for (int i = 0; i < 32; i++) {
        const float out = gpu.mem().read<float>(y + 4 * i);
        EXPECT_EQ(out, 8.0f * (1.0f + float(i))) << "lane " << i;
    }

    // The divergence re-baselined; one more identical full simulation
    // confirms the new behaviour and re-arms (the signature is already
    // warm, so re-arming is one occurrence cheaper than first arming).
    const KernelStats rearmed = gpu.launch(l, exactPolicy());
    EXPECT_FALSE(rearmed.replayed);
    const KernelStats replayedAgain = gpu.launch(l, exactPolicy());
    EXPECT_TRUE(replayedAgain.replayed);
    EXPECT_EQ(replayedAgain.smCycles, rearmed.smCycles);
}

TEST(Memo, AlternatingSignaturesArmIndependently)
{
    // The RNN h/c ping-pong shape: two interleaved signatures must keep
    // separate baselines and both reach replay.
    Gpu gpu(pascalGP102());
    const uint32_t x = gpu.mem().allocate(4 * 32);
    const uint32_t y0 = gpu.mem().allocate(4 * 32);
    const uint32_t y1 = gpu.mem().allocate(4 * 32);
    fillInput(gpu, x, 1.0f);
    const KernelLaunch a = doubleKernel(x, y0);
    const KernelLaunch b = doubleKernel(x, y1);

    for (int occ = 1; occ <= 3; occ++) {
        EXPECT_FALSE(gpu.launch(a, exactPolicy()).replayed);
        EXPECT_FALSE(gpu.launch(b, exactPolicy()).replayed);
    }
    EXPECT_TRUE(gpu.launch(a, exactPolicy()).replayed);
    EXPECT_TRUE(gpu.launch(b, exactPolicy()).replayed);
}

TEST(Memo, ColdStartDropsBaselines)
{
    Gpu gpu(pascalGP102());
    const uint32_t x = gpu.mem().allocate(4 * 32);
    const uint32_t y = gpu.mem().allocate(4 * 32);
    fillInput(gpu, x, 1.0f);
    const KernelLaunch l = doubleKernel(x, y);
    for (int occ = 1; occ <= 3; occ++)
        gpu.launch(l, exactPolicy());
    EXPECT_TRUE(gpu.launch(l, exactPolicy()).replayed);

    gpu.coldStart();
    EXPECT_FALSE(gpu.launch(l, exactPolicy()).replayed);
}

TEST(Memo, EnvKillSwitchDisablesReplayInProcess)
{
    Gpu gpu(pascalGP102());
    const uint32_t x = gpu.mem().allocate(4 * 32);
    const uint32_t y = gpu.mem().allocate(4 * 32);
    fillInput(gpu, x, 1.0f);
    const KernelLaunch l = doubleKernel(x, y);
    for (int occ = 1; occ <= 3; occ++)
        gpu.launch(l, exactPolicy());
    EXPECT_TRUE(gpu.launch(l, exactPolicy()).replayed);

    setenv("TANGO_NO_MEMO", "1", 1);
    EXPECT_FALSE(gpu.launch(l, exactPolicy()).replayed);
    unsetenv("TANGO_NO_MEMO");
    EXPECT_TRUE(gpu.launch(l, exactPolicy()).replayed);

    // SimPolicy::memoize=false disables it structurally too.
    SimPolicy off = exactPolicy();
    off.memoize = false;
    EXPECT_FALSE(gpu.launch(l, off).replayed);
}

TEST(Memo, CacheStateDigestIsRecencyOrderStable)
{
    CacheConfig cfg;
    cfg.sizeBytes = 4096;
    cfg.assoc = 4;
    cfg.lineBytes = 128;
    cfg.mshrs = 8;

    // Same final tag content and recency *order*, different raw access
    // counts: the digest must canonicalize to the order, because the
    // internal use counter keeps growing across launches even in a
    // steady state.
    Cache c1(cfg);
    Cache c2(cfg);
    c1.access(0, false, 0);
    c1.access(4096, false, 1);
    c2.access(0, false, 0);
    c2.access(0, false, 1);
    c2.access(0, false, 2);
    c2.access(4096, false, 3);
    EXPECT_EQ(c1.stateDigest(), c2.stateDigest());

    // Flipping the recency order must change the digest.
    Cache c3(cfg);
    c3.access(4096, false, 0);
    c3.access(0, false, 1);
    EXPECT_NE(c1.stateDigest(), c3.stateDigest());

    // Different tag content must change the digest.
    Cache c4(cfg);
    c4.access(0, false, 0);
    c4.access(8192, false, 1);
    EXPECT_NE(c1.stateDigest(), c4.stateDigest());
}

// ------------------------------------------------------ value-oblivious
// sim::valueOblivious decides at lowering whether an armed replay may
// skip execution, so a false "oblivious" verdict would splice wrong
// statistics.  Each rejection case below isolates one taint rule.

TEST(ValueOblivious, RejectsGuardSetFromGlobalLoad)
{
    kern::Builder b("taint.guard");
    kern::Reg a = b.param(0);
    kern::Reg v = b.reg();
    b.ld(DType::U32, Space::Global, v, a);
    kern::PredReg p = b.pred();
    b.setpi(p, DType::U32, Cmp::Gt, v, 0);
    b.guard(p);
    b.st(DType::U32, Space::Global, a, a);
    b.endGuard();
    b.exit();
    EXPECT_FALSE(valueOblivious(*b.finish()));
}

TEST(ValueOblivious, RejectsBranchOnSharedLoad)
{
    kern::Builder b("taint.branch");
    kern::Reg sa = b.immU(b.shared(4));
    kern::Reg v = b.reg();
    b.ld(DType::U32, Space::Shared, v, sa);
    kern::PredReg p = b.pred();
    b.setpi(p, DType::U32, Cmp::Eq, v, 0);
    kern::Label skip = b.label();
    b.braIf(skip, p);
    b.nop();
    b.bind(skip);
    b.exit();
    EXPECT_FALSE(valueOblivious(*b.finish()));
}

TEST(ValueOblivious, RejectsStoreAddressFromLoopCarriedChain)
{
    // In program order the store's address register is written before
    // the Mov that taints its source, which is written before the load:
    // only the third pass of the fixpoint reaches the address.
    kern::Builder b("taint.chain");
    kern::Reg base = b.param(0);
    kern::Reg addr = b.reg();
    kern::Reg t = b.reg();
    kern::Reg u = b.reg();
    b.movR(addr, base);
    b.movR(t, base);
    b.movR(u, base);
    kern::Reg i = b.immU(0);
    kern::PredReg more = b.pred();
    kern::Label top = b.label();
    b.bind(top);
    b.st(DType::U32, Space::Global, addr, i);
    b.emit3i(Op::Add, DType::U32, addr, t, 4);
    b.movR(t, u);
    b.ld(DType::U32, Space::Global, u, base);
    b.emit3i(Op::Add, DType::U32, i, i, 1);
    b.setpi(more, DType::U32, Cmp::Lt, i, 8);
    b.braIf(top, more);
    b.exit();
    EXPECT_FALSE(valueOblivious(*b.finish()));
}

TEST(ValueOblivious, RejectsSelpOnTaintedPredicateFeedingAnAddress)
{
    // Both Selp operands are clean; only its predicate carries taint.
    kern::Builder b("taint.selp");
    kern::Reg a = b.param(0);
    kern::Reg c = b.param(1);
    kern::Reg v = b.reg();
    b.ld(DType::U32, Space::Global, v, a);
    kern::PredReg p = b.pred();
    b.setpi(p, DType::U32, Cmp::Ne, v, 0);
    kern::Reg addr = b.reg();
    b.selp(DType::U32, addr, a, c, p);
    b.st(DType::U32, Space::Global, addr, c);
    b.exit();
    EXPECT_FALSE(valueOblivious(*b.finish()));
}

TEST(ValueOblivious, LoadedValuesMayFlowIntoDataButNotControl)
{
    EXPECT_TRUE(valueOblivious(*doubleKernel(256, 512).program));
    EXPECT_FALSE(valueOblivious(*dataDependentKernel(256, 512, 1024).program));
}

/** Overwrite every allocated byte of @p mem with a seeded pattern. */
void
scramble(DeviceMemory &mem, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    for (uint64_t a = 0; a + 8 <= mem.used(); a += 8)
        mem.write<uint64_t>(static_cast<uint32_t>(a), rng());
}

/** Stream digest of a functional run of @p l's first and last CTA (all
 *  warps) over memory scrambled with @p seed. */
uint64_t
digestOver(const KernelLaunch &l, DeviceMemory &mem, uint64_t seed)
{
    scramble(mem, seed);
    std::vector<uint64_t> ctas = {0};
    if (l.grid.count() > 1)
        ctas.push_back(l.grid.count() - 1);
    std::vector<uint32_t> warps(l.warpsPerCta());
    std::iota(warps.begin(), warps.end(), 0u);
    return runFunctionalOnly(l, ctas, warps, mem);
}

TEST(ValueOblivious, SuiteDigestsIgnoreMemoryContents)
{
    for (const std::string name : {"gru", "lstm", "cifarnet"}) {
        DeviceMemory mem(1ull << 30);
        const nn::AnyModel model = nn::models::buildAny(name);
        const std::vector<rt::LoweredKernel> kernels =
            model.isRnn() ? rt::lowerRnn(model.rnn(), mem, false).kernels
                          : rt::lower(model.cnn(), mem, false).kernels;
        std::set<const Program *> seen;
        for (const rt::LoweredKernel &k : kernels) {
            const Program &p = *k.launch.program;
            if (!seen.insert(&p).second)
                continue;
            ASSERT_TRUE(valueOblivious(p)) << p.name;
            // The full data path, so the loaded values really differ.
            KernelLaunch full = k.launch;
            full.valuesUnobserved = false;
            EXPECT_EQ(digestOver(full, mem, 1), digestOver(full, mem, 2))
                << p.name << ": digest depends on memory contents";
        }
        EXPECT_GE(seen.size(), 2u) << name;
    }

    // The check can fail: memo.datadep's trip count is a loaded value
    // (reduced mod 64 so the loop ends).
    DeviceMemory mem(1 << 20);
    const uint32_t na = mem.allocate(4);
    const KernelLaunch l =
        dataDependentKernel(na, mem.allocate(4 * 32), mem.allocate(4 * 32));
    const auto datadep = [&](uint64_t seed) {
        scramble(mem, seed);
        mem.write<uint32_t>(na, mem.read<uint32_t>(na) % 64);
        const std::vector<uint32_t> warps = {0};
        return runFunctionalOnly(l, {0}, warps, mem);
    };
    EXPECT_NE(datadep(1), datadep(2));
}

/** A canary in the GRU's ping-pong hidden state survives the armed
 *  replays of a timing-only lowering (they splice, never execute) and is
 *  overwritten once the same launches lose valuesUnobserved. */
TEST(ValueOblivious, SplicedReplaysDoNotExecute)
{
    const float canary = 1234.5f;
    const auto hiddenKeepsCanary = [&](bool unobserved) {
        Gpu gpu(pascalGP102());
        const nn::RnnModel gru = nn::models::buildGru(16);
        rt::LoweredRnn low = rt::lowerRnn(gru, gpu.mem(), false);
        const SimPolicy policy = rt::RunPolicy::named("exact").sim;
        const size_t cells = gru.seqLen;
        size_t t = 0;
        for (; t < cells; t++) {
            low.kernels[t].launch.valuesUnobserved = unobserved;
            if (gpu.launch(low.kernels[t].launch, policy).replayed)
                break;   // both ping-pong parities are armed
        }
        EXPECT_LT(t + 2, cells) << "replay never armed";
        for (uint32_t h : low.hAddr)
            for (uint32_t i = 0; i < gru.hidden; i++)
                gpu.mem().write<float>(h + 4 * i, canary);
        for (t++; t < cells; t++) {
            low.kernels[t].launch.valuesUnobserved = unobserved;
            EXPECT_TRUE(gpu.launch(low.kernels[t].launch, policy).replayed)
                << "cell " << t;
        }
        bool kept = true;
        for (uint32_t h : low.hAddr)
            for (uint32_t i = 0; i < gru.hidden; i++)
                kept &= gpu.mem().read<float>(h + 4 * i) == canary;
        return kept;
    };
    EXPECT_TRUE(hiddenKeepsCanary(true));
    EXPECT_FALSE(hiddenKeepsCanary(false))
        << "self-checking replays execute and must overwrite the canary";
}


// ------------------------------------------------------------ value-dead
// DecodedInstr::valueDead comes from the same taint fixpoint as
// valueOblivious; a valuesUnobserved launch drops the data of every
// instruction it marks.

/** @return the pcs of @p prog whose decoded valueDead bit is set. */
std::set<size_t>
deadPcs(const Program &prog)
{
    const DecodedProgram dec(prog);
    std::set<size_t> dead;
    for (size_t pc = 0; pc < dec.size(); pc++)
        if (dec[static_cast<uint32_t>(pc)].valueDead)
            dead.insert(pc);
    return dead;
}

TEST(ValueDead, GlobalLoadMadStoreChainIsDead)
{
    kern::Builder b("dead.chain");
    kern::Reg x = b.param(0);
    kern::Reg w = b.param(1);
    kern::Reg v = b.reg();
    kern::Reg u = b.reg();
    const size_t first = b.size();
    b.ld(DType::F32, Space::Global, v, x);
    b.ld(DType::F32, Space::Global, u, w);
    b.mad(DType::F32, v, v, u, v);
    b.st(DType::F32, Space::Global, x, v);
    b.exit();
    const auto prog = b.finish();
    ASSERT_TRUE(valueOblivious(*prog));
    EXPECT_EQ(deadPcs(*prog),
              (std::set<size_t>{first, first + 1, first + 2, first + 3}));
}

TEST(ValueDead, AddressGuardAndConstantArithmeticIsLive)
{
    // Every tid/ctaid index computation, the Param and Const loads and
    // the tid-derived guard feed addresses or control: only the global
    // load and the store it feeds are dead.
    kern::Builder b("dead.live");
    kern::Reg base = b.param(0);
    kern::Reg scale = b.ldc(DType::U32, 0);
    kern::Reg tx = b.movS(SReg::TidX);
    kern::Reg cx = b.movS(SReg::CtaIdX);
    kern::Reg nx = b.movS(SReg::NTidX);
    kern::Reg idx = b.madr(DType::U32, cx, nx, tx);
    kern::Reg scaled = b.mul(DType::U32, idx, scale);
    kern::Reg addr = b.add(DType::U32, base, b.shli(scaled, 2));
    kern::PredReg inRange = b.pred();
    b.setpi(inRange, DType::U32, Cmp::Lt, idx, 64);
    b.guard(inRange);
    kern::Reg v = b.reg();
    const size_t ldPc = b.size();
    b.ld(DType::F32, Space::Global, v, addr);
    const size_t stPc = b.size();
    b.st(DType::F32, Space::Global, addr, v, 256);
    b.endGuard();
    b.exit();
    const auto prog = b.finish();
    ASSERT_TRUE(valueOblivious(*prog));
    EXPECT_EQ(deadPcs(*prog), (std::set<size_t>{ldPc, stPc}));
}

TEST(ValueDead, RegisterWithATaintedWriterIsDeadAtEveryWrite)
{
    // The pass is flow-insensitive: acc's clean initialization is dead
    // too, because a later write of acc carries a loaded value.
    kern::Builder b("dead.mixed");
    kern::Reg x = b.param(0);
    const size_t initPc = b.size();
    kern::Reg acc = b.immF(0.0f);
    kern::Reg v = b.reg();
    const size_t ldPc = b.size();
    b.ld(DType::F32, Space::Global, v, x);
    const size_t addPc = b.size();
    b.emit3(Op::Add, DType::F32, acc, acc, v);
    const size_t stPc = b.size();
    b.st(DType::F32, Space::Global, x, acc);
    b.exit();
    const auto prog = b.finish();
    ASSERT_TRUE(valueOblivious(*prog));
    EXPECT_EQ(deadPcs(*prog),
              (std::set<size_t>{initPc, ldPc, addPc, stPc}));
}

TEST(ValueDead, NothingIsDeadInAnObliviousnessFailure)
{
    // memo.datadep's trip count is a loaded value, so its loads are
    // observed through control flow: no write of it may be dropped.
    const KernelLaunch l = dataDependentKernel(256, 512, 1024);
    ASSERT_FALSE(valueOblivious(*l.program));
    EXPECT_TRUE(deadPcs(*l.program).empty());
}

TEST(ValueDeadDeathTest, InvalidOpIsRefusedThoughItsValueIsDropped)
{
    // shl is not an f32 op.  Its result is dead, so a valuesUnobserved
    // launch never reaches the ALU for it: Program::validate(), which
    // every launch runs, must refuse it.
    auto prog = std::make_shared<Program>();
    prog->name = "dead.f32shl";
    prog->numRegs = 2;
    Instr ld;
    ld.op = Op::Ld;
    ld.type = DType::F32;
    ld.space = Space::Global;
    ld.dst = 0;
    ld.src[0] = Instr::immReg;
    ld.imm = 256;
    Instr shl;
    shl.op = Op::Shl;
    shl.type = DType::F32;
    shl.dst = 1;
    shl.src[0] = 0;
    shl.src[1] = 0;
    Instr st;
    st.op = Op::St;
    st.type = DType::F32;
    st.space = Space::Global;
    st.src[0] = Instr::immReg;
    st.src[1] = 1;
    st.imm = 256;
    Instr exit;
    exit.op = Op::Exit;
    prog->code = {ld, shl, st, exit};
    ASSERT_EQ(deadPcs(*prog), (std::set<size_t>{0, 1, 2}));
    KernelLaunch l;
    l.program = prog;
    l.block = {32, 1, 1};
    l.valuesUnobserved = true;
    EXPECT_DEATH(
        {
            Gpu gpu(pascalGP102());
            gpu.launch(l, rt::RunPolicy::named("exact").sim);
        },
        "op shl not valid on f32");
}

/** A timing-only run writes no device memory: a byte pattern laid over
 *  the run's whole allocation survives it.  The same launches with
 *  valuesUnobserved cleared take the full data path and overwrite it. */
TEST(ValueDead, TimingOnlyRunsWriteNoDeviceMemory)
{
    constexpr uint8_t kPattern = 0xa5;
    for (const std::string name : {"cifarnet", "gru"}) {
        Gpu gpu(pascalGP102());
        const nn::AnyModel model = nn::models::buildAny(name);
        const rt::RunPolicy policy = rt::RunPolicy::named("bench");
        // Runtime::run resets the allocator and lowers exactly this.
        std::vector<rt::LoweredKernel> kernels =
            model.isRnn() ? rt::lowerRnn(model.rnn(), gpu.mem(), false).kernels
                          : rt::lower(model.cnn(), gpu.mem(), false,
                                      policy.maxLoopChannels)
                                .kernels;
        const uint64_t used = gpu.mem().used();
        const auto patterned = [&] {
            const uint8_t *d = gpu.mem().data();
            return static_cast<uint64_t>(std::count(d, d + used, kPattern));
        };

        std::memset(gpu.mem().data(), kPattern, used);
        rt::Runtime rtm(gpu);
        const rt::NetRun run = rtm.run(model, policy);
        EXPECT_GT(run.totals.get("issued"), 0.0) << name;
        EXPECT_EQ(gpu.mem().used(), used) << name;
        EXPECT_EQ(patterned(), used) << name << ": device memory written";

        gpu.coldStart();
        for (rt::LoweredKernel &k : kernels) {
            k.launch.valuesUnobserved = false;
            gpu.launch(k.launch, policy.sim);
        }
        EXPECT_LT(patterned(), used)
            << name << ": the full data path must write device memory";
    }
}

} // namespace
} // namespace tango::sim
