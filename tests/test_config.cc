/**
 * @file
 * Platform-preset and power-model tests: Table II invariants across the
 * three machines, and conservation properties of the component
 * breakdown.
 */

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/power.hh"

namespace tango::sim {
namespace {

TEST(Config, TableIIValues)
{
    const GpuConfig gk = keplerGK210();
    EXPECT_EQ(gk.numSms * gk.coresPerSm, 2880u);   // paper: 2880 cores
    const GpuConfig tx = maxwellTX1();
    EXPECT_EQ(tx.numSms * tx.coresPerSm, 256u);    // paper: 256 cores
    const GpuConfig gp = pascalGP102();
    EXPECT_EQ(gp.numSms * gp.coresPerSm, 3584u);   // paper: 3584 cores
    EXPECT_EQ(gp.l1dBytes, 64u * 1024);            // paper: 64KB default
    EXPECT_EQ(gp.scheduler, SchedPolicy::GTO);     // paper: gto default
}

TEST(Config, PlatformOrdering)
{
    // Server > simulator-desktop > mobile in every capacity.
    const GpuConfig gk = keplerGK210(), tx = maxwellTX1(),
                    gp = pascalGP102();
    EXPECT_GT(gk.regFileBytesPerSm, tx.regFileBytesPerSm);
    EXPECT_GT(gp.l2Bytes, tx.l2Bytes);
    EXPECT_GT(gk.l2Bytes, tx.l2Bytes);
    EXPECT_GT(gp.coreClockGhz, gk.coreClockGhz);
    EXPECT_LT(tx.power.idleCoreW, gk.power.idleCoreW);
    // Mobile memory is slower.
    EXPECT_GT(tx.dramIssueInterval, gp.dramIssueInterval);
}

TEST(Config, RefusesMoreWarpSlotsThanTheSchedulerMasks)
{
    // Every preset fits the 64-slot masks one SM schedules from.
    for (const GpuConfig &cfg : {pascalGP102(), keplerGK210(), maxwellTX1()})
        EXPECT_EQ(configError(cfg), "") << cfg.name;

    GpuConfig cfg = pascalGP102();
    cfg.maxWarpsPerSm = kMaxWarpSlots;
    EXPECT_EQ(configError(cfg), "");
    cfg.maxWarpsPerSm = kMaxWarpSlots + 1;
    EXPECT_EQ(configError(cfg),
              "maxWarpsPerSm 65 exceeds the 64 warp slots one SM schedules");
}

TEST(Config, SchedulerNames)
{
    EXPECT_STREQ(schedName(SchedPolicy::GTO), "gto");
    EXPECT_STREQ(schedName(SchedPolicy::LRR), "lrr");
    EXPECT_STREQ(schedName(SchedPolicy::TLV), "tlv");
}

TEST(Power, ComponentNamesMatchFig5Legend)
{
    // The paper's Fig 5 legend vocabulary.
    EXPECT_STREQ(powerCompName(PowerComp::RF), "RFP");
    EXPECT_STREQ(powerCompName(PowerComp::L2C), "L2CP");
    EXPECT_STREQ(powerCompName(PowerComp::IDLE_CORE), "IDLE_COREP");
    EXPECT_STREQ(powerCompName(PowerComp::CONST_DYNAMIC),
                 "CONST_DYNAMICP");
    for (size_t i = 0; i < numPowerComps; i++) {
        EXPECT_STRNE(powerCompName(static_cast<PowerComp>(i)), "?");
    }
}

TEST(Power, BreakdownIsLinearInEvents)
{
    const GpuConfig cfg = pascalGP102();
    StatSet a;
    a.set("evt.rf_operand", 1000.0);
    a.set("evt.sp", 400.0);
    a.set("evt.l2", 50.0);
    StatSet b = a;
    b.scale(3.0);
    const PowerBreakdown pa = computeBreakdown(a, cfg, 0.0, 1.0);
    const PowerBreakdown pb = computeBreakdown(b, cfg, 0.0, 1.0);
    // With zero cycles there is no static energy; dynamic is linear.
    EXPECT_NEAR(pb.totalJ(), 3.0 * pa.totalJ(), pa.totalJ() * 1e-12);
}

TEST(Power, StaticEnergyScalesWithTime)
{
    const GpuConfig cfg = pascalGP102();
    StatSet empty;
    const double cyc = cfg.coreClockGhz * 1e9;   // one second
    const PowerBreakdown one = computeBreakdown(empty, cfg, cyc, 1.0);
    const PowerBreakdown two = computeBreakdown(empty, cfg, 2 * cyc, 1.0);
    EXPECT_NEAR(two.totalJ(), 2.0 * one.totalJ(), one.totalJ() * 1e-12);
    // One second of idle: total equals the static power in watts.
    const double staticW = cfg.power.idleCoreW * cfg.numSms +
                           cfg.power.constDynamicW + cfg.power.boardStaticW;
    EXPECT_NEAR(one.totalJ(), staticW, staticW * 1e-9);
}

TEST(Power, MergeAccumulates)
{
    PowerBreakdown a, b;
    a.energyJ[0] = 1.0;
    b.energyJ[0] = 2.0;
    b.energyJ[3] = 5.0;
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.energyJ[0], 3.0);
    EXPECT_DOUBLE_EQ(a.energyJ[3], 5.0);
    EXPECT_DOUBLE_EQ(a.totalJ(), 8.0);
}

TEST(Power, AveragePower)
{
    PowerBreakdown b;
    b.energyJ[0] = 10.0;
    EXPECT_DOUBLE_EQ(averagePowerW(b, 2.0), 5.0);
    EXPECT_DOUBLE_EQ(averagePowerW(b, 0.0), 0.0);
}

TEST(Power, EveryEventKindContributes)
{
    // Each evt.* counter must map to some component (no silently dropped
    // energy).
    const GpuConfig cfg = pascalGP102();
    const char *events[] = {"evt.ib",   "evt.ic",   "evt.l1d",
                            "evt.cc",   "evt.shrd", "evt.rf_operand",
                            "evt.sp",   "evt.fpu",  "evt.sfu",
                            "evt.sched", "evt.l2",  "evt.mc",
                            "evt.noc",  "evt.dram", "evt.pipe"};
    for (const char *e : events) {
        StatSet s;
        s.set(e, 1000.0);
        const PowerBreakdown pb = computeBreakdown(s, cfg, 0.0, 1.0);
        EXPECT_GT(pb.totalJ(), 0.0) << e;
    }
}

} // namespace
} // namespace tango::sim
