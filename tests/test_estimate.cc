/**
 * @file
 * tango::estimate unit tests: feature extraction, log-space ridge
 * fitting (recovery of a known multiplicative law, deterministic
 * holdout split), bundle JSON round trips with version guards, the
 * Estimator's dispatch/fallback contract, dataset row archives, the
 * estimated-run NetRun serialization, and — through a private Engine —
 * the property that estimate-tier jobs and sim-tier jobs never share a
 * cache entry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "estimate/dataset.hh"
#include "estimate/estimator.hh"
#include "estimate/model.hh"
#include "nn/models/models.hh"
#include "runtime/engine.hh"
#include "runtime/job.hh"
#include "runtime/run_cache.hh"

namespace tango {
namespace {

using estimate::Bundle;
using estimate::Family;
using estimate::Features;
using estimate::Row;
using estimate::Target;

// The Engine falls back from the estimate tier through the process-wide
// Estimator; point it at a directory that cannot exist before anything
// constructs it, so every estimate-tier job in this binary deterministically
// falls back to simulation regardless of fitted weights in the source tree.
const bool kEnvPinned = [] {
    setenv("TANGO_ESTIMATE_WEIGHTS", "/nonexistent/tango-estimate-test", 1);
    return true;
}();

// --------------------------------------------------------------- features

TEST(Estimate, FamilyNamesRoundTrip)
{
    for (int fi = 0; fi < estimate::kNumFamilies; fi++) {
        const auto fam = static_cast<Family>(fi);
        Family back;
        ASSERT_TRUE(estimate::familyFromName(estimate::familyName(fam),
                                             back));
        EXPECT_EQ(back, fam);
    }
    Family f;
    EXPECT_FALSE(estimate::familyFromName("warp", f));
}

TEST(Estimate, LayerFeaturesCoverSuiteNetworks)
{
    // Every kernel-emitting layer of every CNN maps to a family and
    // yields a sane feature vector.
    for (const std::string &name : nn::models::runnableNames()) {
        const nn::AnyModel model = nn::models::buildAny(name);
        if (model.isRnn())
            continue;
        for (const nn::Layer &l : model.cnn().layers()) {
            Family fam;
            if (!estimate::layerFamily(l.kind, fam))
                continue;
            const Features f = estimate::layerFeatures(l);
            EXPECT_GT(f.v[1], 0.0) << name << ": outElems";
            EXPECT_GT(f.v[4], 0.0) << name << ": ctas";
            EXPECT_GT(f.v[5], 0.0) << name << ": threads";
            EXPECT_GE(f.v[6], 1.0) << name << ": rs";
        }
    }
}

TEST(Estimate, RnnFeatures)
{
    const nn::RnnModel gru = nn::models::buildGru(8);
    const Features cell = estimate::rnnCellFeatures(gru);
    const Features readout = estimate::rnnReadoutFeatures(gru);
    EXPECT_GT(cell.v[0], 0.0);
    EXPECT_GT(readout.v[0], 0.0);
    EXPECT_NE(cell.key(), readout.key());

    const nn::RnnModel lstm = nn::models::buildLstm(8);
    // Four gates vs three: more MACs per step at equal shapes.
    if (lstm.hidden == gru.hidden && lstm.inputSize == gru.inputSize) {
        EXPECT_GT(estimate::rnnCellFeatures(lstm).v[0], cell.v[0]);
    }
}

TEST(Estimate, FeatureKeyIsIdentity)
{
    Features a, b;
    for (int i = 0; i < estimate::kNumFeatures; i++) {
        a.v[i] = i + 0.5;
        b.v[i] = i + 0.5;
    }
    EXPECT_EQ(a.key(), b.key());
    b.v[3] += 1e-9;
    EXPECT_NE(a.key(), b.key());
}

// ---------------------------------------------------------------- fitting

/** Rows whose targets follow an exact log-linear law the model family
 *  can represent, over a wide dynamic range. */
std::vector<Row>
syntheticRows(int n)
{
    std::vector<Row> rows;
    uint64_t state = 12345;
    const auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>((state >> 33) % 1000) / 999.0;
    };
    for (int i = 0; i < n; i++) {
        Row r;
        r.family = Family::Conv;
        for (int fi = 0; fi < estimate::kNumFeatures; fi++)
            r.feat.v[fi] = std::pow(10.0, 1.0 + 5.0 * next());
        // log1p(y) = 0.4 + 0.8*log1p(macs) + 0.1*log1p(ctas)
        const double ly = 0.4 + 0.8 * std::log1p(r.feat.v[0]) +
                          0.1 * std::log1p(r.feat.v[4]);
        r.target[static_cast<int>(Target::Cycles)] = std::expm1(ly);
        for (int t = 1; t < estimate::kNumTargets; t++)
            r.target[t] = r.feat.v[0] * 0.5;
        rows.push_back(r);
    }
    return rows;
}

TEST(Estimate, FitRecoversLogLinearLaw)
{
    const std::vector<Row> rows = syntheticRows(60);
    const Bundle bundle = estimate::fit(rows, "bench", "GP102");
    const estimate::FamilyModel &fm = bundle.family(Family::Conv);
    ASSERT_TRUE(fm.fitted);
    EXPECT_GT(fm.trainRows, 0u);
    EXPECT_GT(fm.holdoutRows, 0u) << "60 distinct shapes must split";

    // A representable law fits essentially exactly.
    EXPECT_LT(fm.targets[static_cast<int>(Target::Cycles)].p95, 0.02);
    for (const Row &r : rows) {
        const double y = r.target[static_cast<int>(Target::Cycles)];
        const double yh = fm.predict(Target::Cycles, r.feat);
        EXPECT_NEAR(yh, y, 0.02 * y + 1.0);
    }

    // Families without rows stay unfitted.
    EXPECT_FALSE(bundle.family(Family::RnnCell).fitted);
}

TEST(Estimate, ShapeTableMemorizesSweptShapes)
{
    std::vector<Row> rows = syntheticRows(30);
    // Observe rows[0]'s shape a second time, 50% hotter: its table entry
    // becomes the log-space mean and the spread shows up in tableP95.
    Row again = rows[0];
    for (double &t : again.target)
        t *= 1.5;
    rows.push_back(again);

    const Bundle bundle = estimate::fit(rows, "bench", "GP102");
    const estimate::FamilyModel &fm = bundle.family(Family::Conv);
    ASSERT_TRUE(fm.fitted);
    EXPECT_EQ(fm.table.size(), 30u);

    // A once-seen shape answers exactly (modulo log1p round-trip).
    double out[estimate::kNumTargets];
    ASSERT_TRUE(fm.lookup(rows[1].feat, out));
    for (int t = 0; t < estimate::kNumTargets; t++)
        EXPECT_NEAR(out[t], rows[1].target[t],
                    1e-9 * rows[1].target[t] + 1e-12);

    // The twice-seen shape answers between its two observations and
    // carries the duplicate spread as the table bound.
    ASSERT_TRUE(fm.lookup(rows[0].feat, out));
    const double lo = rows[0].target[0], hi = again.target[0];
    EXPECT_GT(out[0], lo);
    EXPECT_LT(out[0], hi);
    EXPECT_GT(fm.tableP95, 0.0);
    EXPECT_GE(fm.tableP95, fm.tableP50);

    // A shape the sweep never saw misses the table entirely.
    Features novel = rows[0].feat;
    novel.v[0] *= 1.0001;
    EXPECT_FALSE(fm.lookup(novel, out));

    // The table (entries, per-target means, spread bounds) survives the
    // JSON round-trip.
    Bundle back;
    std::string err;
    ASSERT_TRUE(Bundle::fromJson(bundle.toJson(), back, &err)) << err;
    const estimate::FamilyModel &bfm = back.family(Family::Conv);
    ASSERT_EQ(bfm.table.size(), fm.table.size());
    EXPECT_DOUBLE_EQ(bfm.tableP50, fm.tableP50);
    EXPECT_DOUBLE_EQ(bfm.tableP95, fm.tableP95);
    double out2[estimate::kNumTargets];
    for (const Row &r : rows) {
        ASSERT_TRUE(bfm.lookup(r.feat, out2));
        ASSERT_TRUE(fm.lookup(r.feat, out));
        for (int t = 0; t < estimate::kNumTargets; t++)
            EXPECT_DOUBLE_EQ(out2[t], out[t]);
    }
}

TEST(Estimate, FitIsDeterministic)
{
    const std::vector<Row> rows = syntheticRows(40);
    EXPECT_EQ(estimate::fit(rows, "bench", "GP102").toJson(),
              estimate::fit(rows, "bench", "GP102").toJson());
}

// ------------------------------------------------------------ bundle JSON

TEST(Estimate, BundleJsonRoundTrip)
{
    const Bundle bundle = estimate::fit(syntheticRows(30), "mem", "TX1");
    Bundle back;
    std::string err;
    ASSERT_TRUE(Bundle::fromJson(bundle.toJson(), back, &err)) << err;
    EXPECT_EQ(back.policy, "mem");
    EXPECT_EQ(back.platform, "TX1");
    EXPECT_EQ(back.toJson(), bundle.toJson());

    Features probe;
    for (int i = 0; i < estimate::kNumFeatures; i++)
        probe.v[i] = 100.0 + i;
    EXPECT_DOUBLE_EQ(
        back.family(Family::Conv).predict(Target::Cycles, probe),
        bundle.family(Family::Conv).predict(Target::Cycles, probe));
}

TEST(Estimate, BundleVersionGuards)
{
    std::string text = estimate::fit(syntheticRows(10), "bench", "GP102")
                           .toJson();
    Bundle out;
    std::string err;

    std::string wrongBundle = text;
    const std::string vtag =
        "\"version\":" + std::to_string(estimate::kBundleVersion);
    wrongBundle.replace(wrongBundle.find(vtag), vtag.size(),
                        "\"version\":99");
    EXPECT_FALSE(Bundle::fromJson(wrongBundle, out, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;

    std::string wrongStats = text;
    const std::string stag =
        "\"statsVersion\":" + std::to_string(rt::kSimStatsVersion);
    wrongStats.replace(wrongStats.find(stag), stag.size(),
                       "\"statsVersion\":999");
    EXPECT_FALSE(Bundle::fromJson(wrongStats, out, &err));

    EXPECT_FALSE(Bundle::fromJson("{bad", out, &err));
}

TEST(Estimate, BundleFileName)
{
    EXPECT_EQ(Bundle::fileName("bench", "GP102"), "bench_GP102.json");
}

// ----------------------------------------------------------- dataset rows

TEST(Estimate, DatasetRowsJsonRoundTrip)
{
    std::vector<Row> rows = syntheticRows(3);
    rows[1].family = Family::Pool;
    rows[2].source = "alexnet/GP102/l1=64K/gto/bench:conv1";
    const std::string text = estimate::rowsToJson(rows, "bench", "GP102");

    std::vector<Row> back;
    std::string err;
    ASSERT_TRUE(estimate::rowsFromJson(text, back, &err)) << err;
    ASSERT_EQ(back.size(), rows.size());
    for (size_t i = 0; i < rows.size(); i++) {
        EXPECT_EQ(back[i].family, rows[i].family);
        EXPECT_EQ(back[i].feat.key(), rows[i].feat.key());
        for (int t = 0; t < estimate::kNumTargets; t++)
            EXPECT_DOUBLE_EQ(back[i].target[t], rows[i].target[t]);
    }
    EXPECT_EQ(back[2].source, rows[2].source);

    // A stats-version mismatch is rejected like a stale spill.
    std::string stale = text;
    const std::string stag =
        "\"statsVersion\":" + std::to_string(rt::kSimStatsVersion);
    stale.replace(stale.find(stag), stag.size(), "\"statsVersion\":999");
    EXPECT_FALSE(estimate::rowsFromJson(stale, back, &err));
}

// -------------------------------------------------------------- estimator

/** Fit a bundle covering every family the suite networks use, from
 *  fabricated (but law-following) targets, and write it to @p dir. */
void
writeSuiteBundle(const std::string &dir)
{
    std::vector<Row> rows;
    const auto addRow = [&rows](Family fam, const Features &f) {
        Row r;
        r.family = fam;
        r.feat = f;
        const double work = f.v[0] + f.v[1] + 16.0;
        r.target[static_cast<int>(Target::Cycles)] = 10.0 * work;
        r.target[static_cast<int>(Target::Stalls)] = 2.0 * work;
        r.target[static_cast<int>(Target::L1dMisses)] = 0.1 * work;
        r.target[static_cast<int>(Target::L2Misses)] = 0.05 * work;
        r.target[static_cast<int>(Target::DramAccesses)] = 0.02 * work;
        r.target[static_cast<int>(Target::EnergyJ)] = 1e-9 * work;
        rows.push_back(r);
    };
    for (const std::string &name : nn::models::runnableNames()) {
        const nn::AnyModel model = nn::models::buildAny(name);
        if (model.isRnn()) {
            addRow(Family::RnnCell,
                   estimate::rnnCellFeatures(model.rnn()));
            addRow(Family::Fc, estimate::rnnReadoutFeatures(model.rnn()));
            continue;
        }
        for (const nn::Layer &l : model.cnn().layers()) {
            Family fam;
            if (estimate::layerFamily(l.kind, fam))
                addRow(fam, estimate::layerFeatures(l));
        }
    }
    // Re-observe every shape 20% hotter so each family's table carries a
    // nonzero duplicate-row spread — table hits must report an honest
    // p95, which the tight-bound fallback test below relies on.
    const size_t firstPass = rows.size();
    for (size_t i = 0; i < firstPass; i++) {
        Row again = rows[i];
        for (double &t : again.target)
            t *= 1.2;
        rows.push_back(again);
    }
    const Bundle bundle = estimate::fit(rows, "bench", "GP102");
    std::ofstream f(dir + "/" + Bundle::fileName("bench", "GP102"),
                    std::ios::trunc);
    ASSERT_TRUE(f.good());
    f << bundle.toJson() << "\n";
}

TEST(Estimate, EstimatorAnswersFittedJobs)
{
    const std::string dir = ::testing::TempDir();
    writeSuiteBundle(dir);
    estimate::Estimator est(dir);

    for (const char *net : {"alexnet", "gru"}) {
        rt::JobSpec spec;
        spec.net = net;
        spec.tier = rt::Tier::Estimate;
        ASSERT_EQ(spec.validate(), "");

        rt::NetRun run;
        std::string reason;
        ASSERT_TRUE(est.estimate(spec, run, &reason)) << reason;
        EXPECT_TRUE(run.estimated);
        EXPECT_GE(run.estErrP95, run.estErrP50);
        EXPECT_EQ(run.netName, net);
        EXPECT_FALSE(run.layers.empty());
        EXPECT_GT(run.totalTimeSec, 0.0);
        EXPECT_GT(run.totalEnergyJ, 0.0);
        for (const rt::LayerRun &lr : run.layers) {
            ASSERT_FALSE(lr.kernels.empty());
            EXPECT_GT(lr.gpuCycles(), 0.0) << lr.name;
        }
    }
}

TEST(Estimate, EstimatorFallbackReasons)
{
    rt::JobSpec spec;
    spec.net = "alexnet";
    spec.tier = rt::Tier::Estimate;
    rt::NetRun run;
    std::string reason;

    // No bundle directory at all.
    estimate::Estimator missing("/nonexistent/tango-estimate-test");
    EXPECT_FALSE(missing.estimate(spec, run, &reason));
    EXPECT_FALSE(reason.empty());
    EXPECT_FALSE(run.estimated) << "a refusal must leave run untouched";

    const std::string dir = ::testing::TempDir();
    writeSuiteBundle(dir);
    estimate::Estimator est(dir);

    // Unfitted (policy, platform) pair.
    rt::JobSpec mem = spec;
    mem.policy = "mem";
    EXPECT_FALSE(est.estimate(mem, run, &reason));

    // A bound tighter than the models validated.
    rt::JobSpec tight = spec;
    tight.maxRelErr = 1e-12;
    EXPECT_FALSE(est.estimate(tight, run, &reason));
    EXPECT_NE(reason.find("bound"), std::string::npos) << reason;

    // An inline policy has no fitted bundle by construction.
    rt::JobSpec inl = spec;
    inl.hasInlinePolicy = true;
    inl.inlinePolicy = rt::RunPolicy::named("bench");
    EXPECT_FALSE(est.estimate(inl, run, &reason));
}

// The fitted sweeps run at the JobSpec default L1D size and scheduler.
// Every other point of the Fig 2 (L1D size) x Fig 15 (scheduler) grid is
// refused by the models and answered by simulation, bit for bit the
// sim-tier answer.
TEST(Estimate, EstimatorRefusesConfigsItWasNeverFitOn)
{
    const std::string dir = ::testing::TempDir();
    writeSuiteBundle(dir);
    estimate::Estimator est(dir);

    rt::EngineOptions opt;
    opt.threads = 2;
    rt::Engine engine(opt);

    const rt::JobSpec defaults;
    std::vector<std::pair<rt::JobSpec, rt::JobSpec>> fallbacks;
    for (const uint32_t l1d : {0u, 64u * 1024, 128u * 1024, 256u * 1024}) {
        for (const sim::SchedPolicy sched :
             {sim::SchedPolicy::GTO, sim::SchedPolicy::LRR,
              sim::SchedPolicy::TLV}) {
            rt::JobSpec simJob{"cifarnet"};
            simJob.l1dBytes = l1d;
            simJob.sched = sched;
            rt::JobSpec estJob = simJob;
            estJob.tier = rt::Tier::Estimate;
            SCOPED_TRACE(estJob.cacheKey().str);

            rt::NetRun run;
            std::string reason;
            const bool fitted =
                l1d == defaults.l1dBytes && sched == defaults.sched;
            EXPECT_EQ(est.estimate(estJob, run, &reason), fitted)
                << reason;
            EXPECT_EQ(run.estimated, fitted);
            if (fitted)
                continue;
            EXPECT_NE(reason.find("default L1D size and scheduler"),
                      std::string::npos)
                << reason;
            engine.submitJob(simJob);
            engine.submitJob(estJob);
            fallbacks.emplace_back(simJob, estJob);
        }
    }
    ASSERT_EQ(fallbacks.size(), 11u);
    for (const auto &[simJob, estJob] : fallbacks) {
        SCOPED_TRACE(estJob.cacheKey().str);
        const rt::NetRun &simRun = engine.run(simJob);
        const rt::NetRun &estRun = engine.run(estJob);
        EXPECT_FALSE(estRun.estimated);
        EXPECT_EQ(rt::serializeNetRun(estRun), rt::serializeNetRun(simRun));
    }
}

// ----------------------------------------------- estimated-run NetRun JSON

TEST(Estimate, EstimatedNetRunSerialization)
{
    rt::NetRun run;
    run.netName = "alexnet";
    run.totalTimeSec = 0.5;
    run.estimated = true;
    run.estErrP50 = 0.031;
    run.estErrP95 = 0.118;

    rt::NetRun back;
    ASSERT_TRUE(rt::parseNetRunJson(rt::serializeNetRun(run), back));
    EXPECT_TRUE(back.estimated);
    EXPECT_DOUBLE_EQ(back.estErrP50, 0.031);
    EXPECT_DOUBLE_EQ(back.estErrP95, 0.118);

    // Simulated runs serialize exactly as before the estimate tier
    // existed — the golden fixtures and old spills stay byte-valid.
    rt::NetRun sim;
    sim.netName = "alexnet";
    EXPECT_EQ(rt::serializeNetRun(sim).find("estimated"),
              std::string::npos);
    ASSERT_TRUE(rt::parseNetRunJson(rt::serializeNetRun(sim), back));
    EXPECT_FALSE(back.estimated);
}

// -------------------------------------------------------- cache separation

TEST(Estimate, EstimateTierNeverSharesSimCache)
{
    rt::EngineOptions opt;
    opt.threads = 1;
    rt::Engine engine(opt);

    rt::JobSpec sim;
    sim.net = "cifarnet";
    rt::JobSpec est = sim;
    est.tier = rt::Tier::Estimate;
    ASSERT_NE(sim.cacheKey().str, est.cacheKey().str);

    using Served = rt::Engine::Submitted::Served;

    // Fill the sim-tier cache first.
    auto s1 = engine.submitJob(sim);
    ASSERT_EQ(s1.served, Served::Simulated);
    const rt::NetRun &simRun = *s1.future.get();
    EXPECT_FALSE(simRun.estimated);

    // The estimate-tier job must not hit that entry: its key differs,
    // so it simulates its own result (here via fallback — this binary
    // pins TANGO_ESTIMATE_WEIGHTS to a nonexistent directory).
    auto e1 = engine.submitJob(est);
    ASSERT_EQ(e1.served, Served::Simulated);
    const rt::NetRun &estRun = *e1.future.get();
    EXPECT_FALSE(estRun.estimated) << "fallback produces a real run";
    EXPECT_GT(estRun.totalTimeSec, 0.0);

    // Each tier hits only its own entry from now on.
    EXPECT_EQ(engine.submitJob(sim).served, Served::MemHit);
    EXPECT_EQ(engine.submitJob(est).served, Served::MemHit);

    const rt::Engine::Counters &counts = engine.counters();
    EXPECT_EQ(counts.tierSim.value(), 2u);
    EXPECT_EQ(counts.tierEstimate.value(), 2u);
    EXPECT_EQ(counts.misses.value(), 2u);
    EXPECT_EQ(counts.memHits.value(), 2u);
}

} // namespace
} // namespace tango

