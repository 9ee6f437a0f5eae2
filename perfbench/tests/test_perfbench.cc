// Tests of the benchmark's own code: the metric catalog, its agreement
// with BENCHMARK.json, the output check, span self times and the
// serve_hits mix.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "catalog.hh"
#include "check.hh"
#include "common/json.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream in(s);
    for (std::string part; std::getline(in, part, ',');)
        out.push_back(part);
    return out;
}

bool
validUnit(const std::string &u)
{
    if (u.empty() || u.size() > 16)
        return false;
    for (const char c : u) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            std::string("_/%.-").find(c) == std::string::npos)
            return false;
    }
    return true;
}

tango::json::Reader::Value
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return tango::json::Reader(buf.str()).parse();
}

/** A small NetRun with one layer of one kernel. */
tango::rt::NetRun
sampleRun()
{
    tango::rt::NetRun run;
    run.netName = "sample";
    tango::rt::LayerRun l;
    l.layerIndex = 0;
    l.name = "conv1";
    l.figType = "Conv";
    tango::sim::KernelStats k;
    k.name = "conv1_k";
    k.smCycles = 1234;
    k.gpuCycles = 5678.5;
    k.stats.set("issued", 42.0);
    k.stats.set("mem.l2.misses", 7.0);
    l.kernels.push_back(k);
    run.layers.push_back(l);
    run.totals = k.stats;
    run.totalTimeSec = 1e-3;
    return run;
}

} // namespace

TEST(Catalog, NamesAndUnitsAreWellFormed)
{
    std::set<std::string> seen;
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &d : *list) {
            EXPECT_TRUE(validMetricName(d.name)) << d.name;
            EXPECT_TRUE(validUnit(d.unit)) << d.name << " unit " << d.unit;
            EXPECT_TRUE(d.better == "lower" || d.better == "higher")
                << d.name;
            EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
        }
    }
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(Catalog, MetricCountsStayWithinLimits)
{
    EXPECT_GE(endToEndMetrics().size(), 1u);
    EXPECT_LE(endToEndMetrics().size(), 16u);
    EXPECT_GE(perLayerMetrics().size(), 1u);
    EXPECT_LE(perLayerMetrics().size(), 128u);
    bool setup = false;
    for (const MetricDef &d : endToEndMetrics())
        setup |= d.name == "setup_s" && d.unit == "s" && d.better == "lower";
    EXPECT_TRUE(setup);
}

TEST(Catalog, EveryPerLayerMetricNamesItsEndToEndMetricAndWorkload)
{
    std::set<std::string> e2e, workloads(std::begin(kWorkloads),
                                         std::end(kWorkloads));
    for (const MetricDef &d : endToEndMetrics())
        e2e.insert(d.name);
    for (const MetricDef &d : perLayerMetrics()) {
        EXPECT_FALSE(d.layer.empty()) << d.name;
        ASSERT_FALSE(d.moves.empty()) << d.name;
        ASSERT_FALSE(d.workload.empty()) << d.name;
        for (const std::string &m : splitCommas(d.moves))
            EXPECT_TRUE(e2e.count(m)) << d.name << " moves unknown " << m;
        for (const std::string &w : splitCommas(d.workload))
            EXPECT_TRUE(workloads.count(w)) << d.name << " on unknown " << w;
    }
}

TEST(Catalog, MatchesBenchmarkJson)
{
    const auto v = readJsonFile(PERFBENCH_DIR "/../BENCHMARK.json");
    const auto compare = [](const tango::json::Reader::Value *list,
                            const std::vector<MetricDef> &defs) {
        ASSERT_NE(list, nullptr);
        ASSERT_EQ(list->arr.size(), defs.size());
        for (size_t i = 0; i < defs.size(); i++) {
            EXPECT_EQ(list->arr[i].strOr("name"), defs[i].name);
            EXPECT_EQ(list->arr[i].strOr("unit"), defs[i].unit);
            EXPECT_EQ(list->arr[i].strOr("better"), defs[i].better);
        }
    };
    compare(v.find("end_to_end"), endToEndMetrics());
    compare(v.find("per_layer"), perLayerMetrics());
    const auto *wl = v.find("workloads");
    ASSERT_NE(wl, nullptr);
    ASSERT_EQ(wl->arr.size(), std::size(kWorkloads));
    for (size_t i = 0; i < wl->arr.size(); i++)
        EXPECT_EQ(wl->arr[i].strOr("name"), kWorkloads[i]);
}

TEST(Check, PassesOnTheRecordedValueAndFailsOnAPerturbedOne)
{
    const tango::rt::NetRun run = sampleRun();
    References refs;
    refs["k"] = summarize(run);
    EXPECT_EQ(checkAgainst(refs, "k", summarize(run)), "");

    References issued = refs;
    issued["k"].issuedWinst = std::nextafter(42.0, 43.0);
    EXPECT_NE(checkAgainst(issued, "k", summarize(run)), "");

    References cycles = refs;
    cycles["k"].gpuCycles += 1.0;
    EXPECT_NE(checkAgainst(cycles, "k", summarize(run)), "");

    References digest = refs;
    digest["k"].digest ^= 1;
    EXPECT_NE(checkAgainst(digest, "k", summarize(run)), "");

    // A statistic outside the three headline numbers still shows in the
    // digest.
    tango::rt::NetRun other = run;
    other.layers[0].kernels[0].stats.set("evt.dram", 1.0);
    EXPECT_NE(checkAgainst(refs, "k", summarize(other)), "");

    EXPECT_NE(checkAgainst(refs, "missing", summarize(run)), "");
}

TEST(Check, ReferenceFileRoundTrips)
{
    References refs;
    refs["a/GP102/l1=64K/gto/bench"] = summarize(sampleRun());
    const std::string path = testing::TempDir() + "perfbench_refs.json";
    std::ofstream(path) << referencesToJson(refs);
    References back;
    std::string err;
    ASSERT_TRUE(loadReferences(path, back, err)) << err;
    ASSERT_EQ(back.size(), 1u);
    EXPECT_TRUE(back.begin()->second == refs.begin()->second);
}

TEST(Check, CommittedReferencesCoverEveryJob)
{
    References refs;
    std::string err;
    ASSERT_TRUE(loadReferences(PERFBENCH_DIR "/reference.json", refs, err))
        << err;
    for (const char *wl : kWorkloads) {
        for (const auto &spec : jobList(wl)) {
            EXPECT_EQ(spec.validate(), "");
            EXPECT_TRUE(refs.count(spec.cacheKey().str))
                << spec.cacheKey().str;
        }
    }
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    std::vector<Span> spans = {
        {1, 0, 1, "parent", 0.0, 10.0},
        {2, 1, 1, "child", 1.0, 4.0},
        {3, 1, 1, "child", 3.0, 5.0},    // overlaps the first child
        {4, 1, 1, "child", 9.0, 12.0},   // runs past the parent
        {5, 2, 1, "grandchild", 1.5, 2.0},
    };
    const auto t = totalsByName(spans);
    EXPECT_DOUBLE_EQ(t.at("parent").selfSeconds, 10.0 - 4.0 - 1.0);
    EXPECT_DOUBLE_EQ(t.at("child").seconds, 3.0 + 2.0 + 3.0);
    EXPECT_DOUBLE_EQ(t.at("child").selfSeconds, 2.5 + 2.0 + 3.0);
    EXPECT_EQ(t.at("child").count, 3u);
}

TEST(Workloads, ServeCompositionIsZipfAndSumsToTheRoundSize)
{
    const auto counts = serveComposition(1000);
    ASSERT_EQ(counts.size(), jobList("serve_hits").size());
    uint32_t total = 0;
    for (size_t i = 0; i < counts.size(); i++) {
        total += counts[i];
        if (i) {
            EXPECT_LE(counts[i], counts[i - 1]);
        }
    }
    EXPECT_EQ(total, 1000u);
    EXPECT_NEAR(counts[0], 1000.0 / 2.928968, 1.0);
}
