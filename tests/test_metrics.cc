/**
 * @file
 * Unit tests for tango::metrics: instrument semantics, the fixed log2
 * bucket layout, concurrent-update exactness, snapshot-merge
 * associativity, percentile bound honesty, the Prometheus round trip
 * through metrics::Scrape, registry interning, and the JSON dumper.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "metrics/metrics.hh"
#include "metrics/scrape.hh"

namespace tango::metrics {
namespace {

TEST(Counter, IncrementAndValue)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, MovesBothWays)
{
    Gauge g;
    g.add(5);
    g.sub(8);
    EXPECT_EQ(g.value(), -3);
    g.set(7);
    EXPECT_EQ(g.value(), 7);
}

// ------------------------------------------------------------------ buckets

TEST(Buckets, SmallValuesAreExact)
{
    // Group 0: one bucket per value 0..7.
    for (uint64_t v = 0; v < Buckets::kSub; v++) {
        const unsigned idx = Buckets::index(v);
        EXPECT_EQ(idx, v);
        EXPECT_EQ(Buckets::lower(idx), v);
        EXPECT_EQ(Buckets::upper(idx), v);
    }
}

TEST(Buckets, EveryValueFallsInsideItsBucket)
{
    std::mt19937_64 rng(7);
    for (int i = 0; i < 100000; i++) {
        // Log-uniform draw so every octave gets hit.
        const unsigned shift = unsigned(rng() % 60);
        const uint64_t v = rng() >> shift;
        const unsigned idx = Buckets::index(v);
        ASSERT_LT(idx, Buckets::kCount);
        if (idx < Buckets::kCount - 1) {
            EXPECT_LE(Buckets::lower(idx), v);
            EXPECT_GE(Buckets::upper(idx), v);
        } else {
            EXPECT_GE(v, Buckets::lower(idx));   // clamp bucket
        }
    }
}

TEST(Buckets, BoundsAreContiguousAndMonotonic)
{
    for (unsigned idx = 0; idx + 1 < Buckets::kCount; idx++) {
        EXPECT_EQ(Buckets::upper(idx) + 1, Buckets::lower(idx + 1))
            << "gap after bucket " << idx;
    }
}

TEST(Buckets, RelativeErrorBound)
{
    // upper/lower ≤ 1 + 1/8 for every bucket past group 0: the 12.5%
    // resolution promise in metrics.hh.
    for (unsigned idx = Buckets::kSub; idx < Buckets::kCount; idx++) {
        const double lo = double(Buckets::lower(idx));
        const double hi = double(Buckets::upper(idx));
        EXPECT_LE(hi / lo, 1.0 + 1.0 / Buckets::kSub);
    }
}

// ---------------------------------------------------------------- histogram

TEST(Histogram, CountAndSum)
{
    Histogram h;
    h.observe(3);
    h.observe(100);
    h.observe(100000);
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count(), 3u);
    EXPECT_EQ(s.sum, 100103u);
}

TEST(Histogram, ConcurrentObservationsAreExact)
{
    Histogram h;
    Counter c;
    constexpr int kThreads = 8;
    constexpr uint64_t kPer = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < kPer; i++) {
                h.observe(uint64_t(t) * 1000 + i % 977);
                c.inc();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kPer);
    EXPECT_EQ(h.snapshot().count(), kThreads * kPer);
}

// A per-instance instrument bound to a registry total: every update
// reaches the total exactly once; an unbound instrument reaches nothing.
TEST(Instruments, BoundInstrumentsFeedTheirTotalExactly)
{
    Registry r;
    Counter &total = r.counter("t_total", "help");
    Histogram &totalH = r.histogram("t_us", "help");
    Counter a(&total), b(&total), unbound;
    Histogram ha(&totalH), hb(&totalH), unboundH;
    constexpr int kThreads = 4;
    constexpr uint64_t kPer = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            Counter &c = t % 2 ? a : b;
            Histogram &h = t % 2 ? ha : hb;
            for (uint64_t i = 0; i < kPer; i++) {
                c.inc(2);
                h.observe(uint64_t(t) * 1000 + i % 977);
                unbound.inc();
                unboundH.observe(i);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(a.value(), kThreads / 2 * kPer * 2);
    EXPECT_EQ(b.value(), kThreads / 2 * kPer * 2);
    EXPECT_EQ(unbound.value(), kThreads * kPer);
    EXPECT_EQ(total.value(), a.value() + b.value());

    HistogramSnapshot both = ha.snapshot();
    both.merge(hb.snapshot());
    const HistogramSnapshot t = totalH.snapshot();
    EXPECT_EQ(t.buckets, both.buckets);
    EXPECT_EQ(t.sum, both.sum);
    EXPECT_EQ(t.count(), kThreads * kPer);
    EXPECT_EQ(unboundH.snapshot().count(), kThreads * kPer);

    // The registry renders the totals, never the instances.
    const std::string text = r.renderPrometheus();
    EXPECT_NE(text.find("t_total " + std::to_string(total.value()) + "\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("t_us_count " + std::to_string(t.count()) + "\n"),
              std::string::npos)
        << text;
}

HistogramSnapshot
randomSnapshot(std::mt19937_64 &rng, int observations)
{
    Histogram h;
    for (int i = 0; i < observations; i++)
        h.observe(rng() % 1000000);
    return h.snapshot();
}

TEST(Histogram, MergeIsAssociativeAndExact)
{
    std::mt19937_64 rng(11);
    const HistogramSnapshot a = randomSnapshot(rng, 500);
    const HistogramSnapshot b = randomSnapshot(rng, 300);
    const HistogramSnapshot c = randomSnapshot(rng, 700);

    HistogramSnapshot ab = a;
    ab.merge(b);
    HistogramSnapshot ab_c = ab;
    ab_c.merge(c);

    HistogramSnapshot bc = b;
    bc.merge(c);
    HistogramSnapshot a_bc = a;
    a_bc.merge(bc);

    EXPECT_EQ(ab_c.buckets, a_bc.buckets);
    EXPECT_EQ(ab_c.sum, a_bc.sum);
    EXPECT_EQ(ab_c.count(), a.count() + b.count() + c.count());
    EXPECT_EQ(ab_c.sum, a.sum + b.sum + c.sum);

    // Merging into a default-constructed snapshot is the identity.
    HistogramSnapshot empty;
    empty.merge(a);
    EXPECT_EQ(empty.buckets, a.buckets);
}

TEST(Histogram, PercentileBracketsTrueSample)
{
    std::mt19937_64 rng(23);
    Histogram h;
    std::vector<uint64_t> values;
    for (int i = 0; i < 5000; i++) {
        // Mix of magnitudes, like a latency distribution.
        const uint64_t v = (rng() % 10 == 0) ? rng() % 5000000
                                             : rng() % 20000;
        values.push_back(v);
        h.observe(v);
    }
    std::sort(values.begin(), values.end());
    const HistogramSnapshot s = h.snapshot();
    for (double p : {0.01, 0.25, 0.50, 0.90, 0.99, 1.0}) {
        // Same rank convention as percentileBucket: ⌈p·n⌉, 1-based.
        size_t rank = size_t(std::ceil(p * double(values.size())));
        rank = std::max<size_t>(rank, 1);
        const uint64_t truth = values[rank - 1];
        EXPECT_LE(s.percentileLower(p), double(truth)) << "p=" << p;
        EXPECT_GE(s.percentileUpper(p), double(truth)) << "p=" << p;
    }
    EXPECT_EQ(HistogramSnapshot().percentileUpper(0.5), 0.0);
}

// ----------------------------------------------------------------- registry

TEST(Registry, InterningReturnsTheSameInstrument)
{
    Registry r;
    Counter &a = r.counter("t_total", "help", {{"k", "v"}});
    Counter &b = r.counter("t_total", "help", {{"k", "v"}});
    EXPECT_EQ(&a, &b);
    Counter &c = r.counter("t_total", "help", {{"k", "other"}});
    EXPECT_NE(&a, &c);
    // Label order does not matter: interning sorts by key.
    Counter &d = r.counter("t2_total", "h", {{"a", "1"}, {"b", "2"}});
    Counter &e = r.counter("t2_total", "h", {{"b", "2"}, {"a", "1"}});
    EXPECT_EQ(&d, &e);
}

TEST(RegistryDeathTest, KindMismatchPanics)
{
    Registry r;
    r.counter("t_total", "help");
    EXPECT_DEATH((void)r.gauge("t_total", "help"),
                 "different kind|mixes instrument kinds");
}

TEST(Registry, PrometheusRoundTrip)
{
    Registry r;
    r.counter("t_requests_total", "requests", {{"how", "sim"}}).inc(41);
    r.counter("t_requests_total", "requests", {{"how", "mem"}}).inc(1);
    r.gauge("t_depth", "queue depth").set(-3);
    Histogram &h = r.histogram("t_latency_us", "latency");
    std::mt19937_64 rng(5);
    uint64_t sum = 0;
    for (int i = 0; i < 2000; i++) {
        const uint64_t v = rng() % 300000;
        h.observe(v);
        sum += v;
    }

    const std::string text = r.renderPrometheus();
    EXPECT_NE(text.find("# TYPE t_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE t_latency_us histogram"),
              std::string::npos);

    Scrape scrape;
    std::string err;
    ASSERT_TRUE(Scrape::parse(text, scrape, &err)) << err;

    EXPECT_DOUBLE_EQ(scrape.sum("t_requests_total"), 42.0);
    const Sample *sim = scrape.find("t_requests_total", "how", "sim");
    ASSERT_NE(sim, nullptr);
    EXPECT_DOUBLE_EQ(sim->value, 41.0);
    const Sample *depth = scrape.find("t_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_DOUBLE_EQ(depth->value, -3.0);

    // The reconstructed histogram is bucket-for-bucket identical.
    HistogramSnapshot back;
    ASSERT_TRUE(scrape.histogram("t_latency_us", back));
    const HistogramSnapshot orig = h.snapshot();
    EXPECT_EQ(back.buckets, orig.buckets);
    EXPECT_EQ(back.sum, sum);
    EXPECT_EQ(back.count(), 2000u);
    EXPECT_DOUBLE_EQ(back.percentileUpper(0.99),
                     orig.percentileUpper(0.99));

    // The +Inf bucket is mandatory and equals _count.
    const Sample *inf = scrape.find("t_latency_us_bucket", "le", "+Inf");
    ASSERT_NE(inf, nullptr);
    EXPECT_DOUBLE_EQ(inf->value, 2000.0);
    const Sample *count = scrape.find("t_latency_us_count");
    ASSERT_NE(count, nullptr);
    EXPECT_DOUBLE_EQ(count->value, 2000.0);
}

TEST(Registry, LabelValuesAreEscaped)
{
    Registry r;
    r.counter("t_esc_total", "h", {{"k", "a\"b\\c"}}).inc();
    Scrape scrape;
    std::string err;
    ASSERT_TRUE(Scrape::parse(r.renderPrometheus(), scrape, &err)) << err;
    const Sample *s = scrape.find("t_esc_total", "k", "a\"b\\c");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->value, 1.0);
}

TEST(Registry, JsonRenderParses)
{
    Registry r;
    r.counter("t_total", "h").inc(3);
    // Labeled series ids carry quotes (t_by{k="v"}) that the JSON
    // rendering must escape in the object keys.
    r.counter("t_by", "h", {{"k", "v"}}).inc(7);
    r.histogram("t_us", "h").observe(12);
    json::Reader::Value v;
    ASSERT_NO_THROW(v = json::Reader(r.renderJson()).parse());
    ASSERT_EQ(v.kind, json::Reader::Value::Kind::Obj);
    const json::Reader::Value *counters = v.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->u64Or("t_total", 0), 3u);
    EXPECT_EQ(counters->u64Or("t_by{k=\"v\"}", 0), 7u);
    const json::Reader::Value *hists = v.find("histograms");
    ASSERT_NE(hists, nullptr);
    const json::Reader::Value *h = hists->find("t_us");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->u64Or("count", 0), 1u);
    EXPECT_EQ(h->u64Or("sum", 0), 12u);
}

TEST(Registry, DumperWritesParsableSnapshot)
{
    const std::string path =
        testing::TempDir() + "tango_metrics_dump_test.json";
    std::remove(path.c_str());
    {
        Registry r;
        r.counter("t_total", "h").inc(9);
        r.startDumper(path, 3600 * 1000);   // far period: rely on stop
        r.stopDumper();                     // final write on clean stop
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no snapshot at " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    json::Reader::Value v;
    ASSERT_NO_THROW(v = json::Reader(ss.str()).parse());
    const json::Reader::Value *counters = v.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->u64Or("t_total", 0), 9u);
    std::remove(path.c_str());
}

} // namespace
} // namespace tango::metrics
