/**
 * @file
 * Engine tests: the parallel simulation engine must be a drop-in
 * replacement for serial simulation — bit-identical statistics no
 * matter how many workers run the jobs — and its keyed cache must
 * memoize in memory, spill to disk, and survive failing jobs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/metrics.hh"
#include "runtime/engine.hh"
#include "runtime/run_cache.hh"
#include "runtime/runtime.hh"
#include "sim/gpu.hh"

namespace tango {
namespace {

using rt::Engine;
using rt::EngineOptions;
using rt::JobSpec;

Engine
makeEngine(unsigned threads, const std::string &cachePath = "")
{
    EngineOptions opt;
    opt.threads = threads;
    opt.cachePath = cachePath;
    return Engine(opt);
}

/** Every statistic the suite reports, compared exactly (no epsilon):
 *  parallel execution must not change a single bit. */
void
expectIdentical(const rt::NetRun &a, const rt::NetRun &b)
{
    EXPECT_EQ(a.netName, b.netName);
    EXPECT_EQ(a.deviceBytes, b.deviceBytes);
    EXPECT_EQ(a.totalTimeSec, b.totalTimeSec);
    EXPECT_EQ(a.totalEnergyJ, b.totalEnergyJ);
    EXPECT_EQ(a.peakPowerW, b.peakPowerW);
    EXPECT_EQ(a.maxRegsPerThread, b.maxRegsPerThread);
    EXPECT_EQ(a.maxLiveRegs, b.maxLiveRegs);
    EXPECT_EQ(a.maxResidentWarps, b.maxResidentWarps);
    EXPECT_EQ(a.checkFailures, b.checkFailures);
    EXPECT_EQ(a.totals.all(), b.totals.all());
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t i = 0; i < a.layers.size(); i++) {
        EXPECT_EQ(a.layers[i].name, b.layers[i].name);
        EXPECT_EQ(a.layers[i].timeSec(), b.layers[i].timeSec());
        EXPECT_EQ(a.layers[i].gpuCycles(), b.layers[i].gpuCycles());
        ASSERT_EQ(a.layers[i].kernels.size(), b.layers[i].kernels.size());
        for (size_t k = 0; k < a.layers[i].kernels.size(); k++) {
            EXPECT_EQ(a.layers[i].kernels[k].stats.all(),
                      b.layers[i].kernels[k].stats.all());
        }
    }
}

/** Accounting invariant: every admitted submission lands in exactly one
 *  cache bucket (memory hit, disk hit, or miss = actually simulated).
 *  failures is not a bucket of its own — a failed job was first
 *  admitted as a miss — so it bounds the miss count instead. */
void
expectCacheAccounted(const Engine &e, uint64_t submissions)
{
    const uint64_t memHits = e.counters().memHits.value();
    const uint64_t diskHits = e.counters().diskHits.value();
    const uint64_t misses = e.counters().misses.value();
    EXPECT_EQ(memHits + diskHits + misses, submissions)
        << "memHits=" << memHits << " diskHits=" << diskHits
        << " misses=" << misses;
    EXPECT_LE(e.counters().failures.value(), misses);
}

TEST(Engine, ParallelRunsAreBitIdenticalToSerial)
{
    // One CNN and one RNN, each simulated by a 1-worker and a 4-worker
    // engine alongside enough sibling jobs to actually exercise the
    // pool's interleaving.
    const std::vector<JobSpec> keys = {
        {"cifarnet"}, {"gru"}, {"lstm"}, {"squeezenet"}};

    Engine serial = makeEngine(1);
    Engine parallel = makeEngine(4);
    EXPECT_EQ(serial.threads(), 1u);
    EXPECT_EQ(parallel.threads(), 4u);

    const auto serialRuns = serial.runAll(keys);
    const auto parallelRuns = parallel.runAll(keys);
    ASSERT_EQ(serialRuns.size(), parallelRuns.size());
    for (size_t i = 0; i < keys.size(); i++) {
        SCOPED_TRACE(keys[i].cacheKey().str);
        expectIdentical(*serialRuns[i], *parallelRuns[i]);
    }
    expectCacheAccounted(serial, keys.size());
    expectCacheAccounted(parallel, keys.size());
}

TEST(Engine, CacheHitReturnsTheSameObject)
{
    Engine e = makeEngine(2);
    const JobSpec key{"cifarnet"};
    const rt::NetRun &first = e.run(key);
    const rt::NetRun &second = e.run(key);
    EXPECT_EQ(&first, &second);

    EXPECT_EQ(e.counters().misses.value(), 1u);
    EXPECT_GE(e.counters().memHits.value(), 1u);
    expectCacheAccounted(e, 2);
}

TEST(Engine, CountersAreScopedToTheEngine)
{
    // Two engines in one process: each one's counters see only its own
    // jobs, and the process-wide registry series rise by the sum.
    Engine a = makeEngine(2);
    Engine b = makeEngine(2);
    const auto series = [](const char *name, metrics::Labels labels) {
        return metrics::counter(name, "", labels).value();
    };
    const auto snapshot = [&] {
        return std::vector<uint64_t>{
            series("tango_engine_cache_total", {{"result", "mem_hit"}}),
            series("tango_engine_cache_total", {{"result", "disk_hit"}}),
            series("tango_engine_cache_total", {{"result", "miss"}}),
            series("tango_engine_failures_total", {}),
            series("tango_engine_jobs_total", {{"tier", "sim"}}),
            series("tango_engine_jobs_total", {{"tier", "estimate"}}),
        };
    };
    const auto counts = [](const Engine &e) {
        const Engine::Counters &c = e.counters();
        return std::vector<uint64_t>{
            c.memHits.value(), c.diskHits.value(), c.misses.value(),
            c.failures.value(), c.tierSim.value(), c.tierEstimate.value()};
    };
    const std::vector<uint64_t> before = snapshot();

    // No simulation: the job bodies return a stand-in result.
    const auto stub = [](sim::Gpu &) {
        rt::NetRun run;
        run.netName = "stub";
        return run;
    };
    JobSpec est{"gru"};
    est.tier = rt::Tier::Estimate;
    a.submitJob(JobSpec{"cifarnet"}, 0, stub).future.get();
    a.submitJob(JobSpec{"cifarnet"}, 0, stub).future.get();
    a.submitJob(est, 0, stub).future.get();
    b.submitJob(JobSpec{"lstm"}, 0, stub).future.get();
    EXPECT_THROW(b.run("test/boom", sim::pascalGP102(),
                       [](sim::Gpu &) -> rt::NetRun {
                           throw std::runtime_error("on purpose");
                       }),
                 std::runtime_error);

    //                                  mem disk miss fail sim est
    EXPECT_EQ(counts(a), (std::vector<uint64_t>{1, 0, 2, 0, 2, 1}));
    EXPECT_EQ(counts(b), (std::vector<uint64_t>{0, 0, 2, 1, 1, 0}));
    const std::vector<uint64_t> after = snapshot();
    for (size_t i = 0; i < after.size(); i++)
        EXPECT_EQ(after[i] - before[i], counts(a)[i] + counts(b)[i])
            << "series " << i;
}

TEST(Engine, RunKeyOrderingAndNames)
{
    // The Engine keys its cache by JobSpec::cacheKey(): equal specs share
    // one key, and any field of the base form changes it.
    JobSpec a{"alexnet"};
    JobSpec b{"alexnet"};
    EXPECT_EQ(a.cacheKey(), b.cacheKey());
    EXPECT_FALSE(a.cacheKey() < b.cacheKey());
    EXPECT_FALSE(b.cacheKey() < a.cacheKey());

    b.l1dBytes = 128 * 1024;
    EXPECT_TRUE(a.cacheKey() < b.cacheKey() || b.cacheKey() < a.cacheKey());
    EXPECT_FALSE(a.cacheKey() == b.cacheKey());

    EXPECT_EQ(a.cacheKey().str, "alexnet/GP102/l1=64K/gto/bench");
    JobSpec noL1{"vggnet"};
    noL1.l1dBytes = 0;
    noL1.policy = "mem";
    EXPECT_EQ(noL1.cacheKey().str, "vggnet/GP102/l1=off/gto/mem");
}

TEST(Engine, ThrowingJobDoesNotPoisonThePool)
{
    Engine e = makeEngine(2);

    auto boom = [](sim::Gpu &) -> rt::NetRun {
        throw std::runtime_error("job failed on purpose");
    };
    EXPECT_THROW(e.run("test/boom", sim::pascalGP102(), boom),
                 std::runtime_error);
    EXPECT_EQ(e.counters().failures.value(), 1u);

    // The failed key was evicted: a retry runs the (new) job...
    const rt::NetRun &retried = e.run(
        "test/boom", sim::pascalGP102(), [](sim::Gpu &gpu) {
            return rt::runNetworkByName(gpu, "cifarnet",
                                        rt::RunPolicy::named("bench"));
        });
    EXPECT_GT(retried.totalTimeSec, 0.0);

    // ...and unrelated jobs keep flowing through the same workers.
    const rt::NetRun &after = e.run(JobSpec{"gru"});
    EXPECT_GT(after.totalTimeSec, 0.0);

    // Three submissions (boom, retry, gru), each a miss; the failed one
    // also counted a failure but not a second bucket.
    expectCacheAccounted(e, 3);
}

TEST(Engine, InvalidSpecFailsOnlyItsJob)
{
    Engine e = makeEngine(2);

    // A typo'd network passes admission (its GPU config is buildable)
    // and must fail on the worker as an exception, not end the process.
    JobSpec typo{"alexnett"};
    ASSERT_FALSE(typo.validate().empty());
    try {
        e.run(typo);
        FAIL() << "an invalid spec ran";
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find(typo.validate()),
                  std::string::npos)
            << err.what();
    }
    EXPECT_EQ(e.counters().failures.value(), 1u);

    // A valid job submitted after it still completes.
    const rt::NetRun &after = e.run(JobSpec{"gru"});
    EXPECT_GT(after.totalTimeSec, 0.0);
    expectCacheAccounted(e, 2);
}

TEST(Engine, UnbuildableConfigFailsOnlyItsJob)
{
    // One worker, so the good job reuses the worker whose Gpu refused
    // the bad config.
    Engine e = makeEngine(1);
    JobSpec bad{"cifarnet"};
    bad.l1dBytes = 1;   // smaller than one L1D set
    ASSERT_FALSE(bad.validate().empty());
    try {
        e.run(bad);
        FAIL() << "an unbuildable config ran";
    } catch (const sim::ConfigError &err) {
        EXPECT_EQ(std::string(err.what()), bad.validate());
    }
    EXPECT_EQ(e.counters().failures.value(), 1u);

    const rt::NetRun &after = e.run(JobSpec{"cifarnet"});
    EXPECT_GT(after.totalTimeSec, 0.0);
    expectCacheAccounted(e, 2);
}

TEST(Engine, DiskSpillRoundTrips)
{
    const std::string path =
        testing::TempDir() + "tango_engine_test.runcache.json";
    std::remove(path.c_str());

    rt::NetRun fresh;
    {
        Engine writer = makeEngine(2, path);
        fresh = writer.run(JobSpec{"cifarnet"});
        EXPECT_EQ(writer.counters().misses.value(), 1u);
    }   // destructor flushes the spill

    Engine reader = makeEngine(2, path);
    const rt::NetRun &recalled = reader.run(JobSpec{"cifarnet"});
    EXPECT_EQ(reader.counters().diskHits.value(), 1u);
    EXPECT_EQ(reader.counters().misses.value(), 0u);
    expectIdentical(fresh, recalled);
    expectCacheAccounted(reader, 1);

    std::remove(path.c_str());
}

// ------------------------------------------------- spill-file resilience

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** One simulated NetRun, shared by the spill-file tests below (the
 *  file-format tests only need *a* real record, not a fresh one each). */
const rt::NetRun &
sampleRun()
{
    static const rt::NetRun *run = [] {
        sim::Gpu gpu(sim::pascalGP102());
        return new rt::NetRun(rt::runNetworkByName(
            gpu, "cifarnet", rt::RunPolicy::named("bench")));
    }();
    return *run;
}

TEST(RunCache, CorruptTailKeepsEveryEntryBeforeTheDamage)
{
    const std::string path =
        testing::TempDir() + "tango_runcache_corrupt.json";
    std::remove(path.c_str());

    std::map<std::string, rt::NetRun> runs;
    runs["a/first"] = sampleRun();
    runs["b/second"] = sampleRun();
    ASSERT_TRUE(rt::saveRunCache(path, runs));
    ASSERT_EQ(rt::loadRunCache(path).size(), 2u);

    // Truncate mid-way through the second entry — an interrupted write —
    // early in its header, and inside its stats map, where the decoder
    // is part-way through the entry it must then drop.
    const std::string text = readFile(path);
    const size_t second = text.find("\"b/second\"");
    ASSERT_NE(second, std::string::npos);
    const size_t stats = text.find("\"stats\":{", second);
    ASSERT_NE(stats, std::string::npos);
    ASSERT_GT(text.find('}', stats), stats + 40);
    for (const size_t cut : {second + 40, stats + 40}) {
        writeFile(path, text.substr(0, cut));

        testing::internal::CaptureStderr();
        const auto salvaged = rt::loadRunCache(path);
        const std::string err = testing::internal::GetCapturedStderr();

        // The valid prefix survives, bit-identical; the tail is reported.
        ASSERT_EQ(salvaged.size(), 1u) << cut;
        ASSERT_EQ(salvaged.count("a/first"), 1u);
        expectIdentical(sampleRun(), salvaged.at("a/first"));
        EXPECT_NE(err.find("corrupt tail"), std::string::npos);
    }

    std::remove(path.c_str());
}

TEST(RunCache, DamageBeforeAnyEntryDiscardsTheFile)
{
    const std::string path =
        testing::TempDir() + "tango_runcache_header.json";
    writeFile(path, "{\"version\":1,\"statsVer");
    EXPECT_TRUE(rt::loadRunCache(path).empty());
    std::remove(path.c_str());
}

TEST(RunCache, SizeCapSkipsEntriesButStaysValidJson)
{
    const std::string path = testing::TempDir() + "tango_runcache_cap.json";
    std::remove(path.c_str());

    std::map<std::string, rt::NetRun> one;
    one["a/first"] = sampleRun();
    ASSERT_TRUE(rt::saveRunCache(path, one));
    const uint64_t oneEntryBytes = readFile(path).size();

    // A cap that fits one entry but not two: the second is skipped with
    // a warning and the written file is complete, valid JSON.
    std::map<std::string, rt::NetRun> two = one;
    two["b/second"] = sampleRun();
    testing::internal::CaptureStderr();
    ASSERT_TRUE(rt::saveRunCache(path, two, oneEntryBytes + 16));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("size cap"), std::string::npos);
    EXPECT_LE(readFile(path).size(), oneEntryBytes + 16);

    const auto reloaded = rt::loadRunCache(path);
    ASSERT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(reloaded.count("a/first"), 1u);

    // An uncapped save (max_bytes = 0) keeps everything.
    ASSERT_TRUE(rt::saveRunCache(path, two));
    EXPECT_EQ(rt::loadRunCache(path).size(), 2u);

    std::remove(path.c_str());
}

TEST(Engine, CacheCapBoundsTheSpillFile)
{
    const std::string path =
        testing::TempDir() + "tango_engine_capped.runcache.json";
    std::remove(path.c_str());

    EngineOptions opt;
    opt.threads = 2;
    opt.cachePath = path;
    opt.maxCacheBytes = 64;   // header fits, no entry does
    {
        Engine writer{std::move(opt)};
        testing::internal::CaptureStderr();
        writer.run(JobSpec{"cifarnet"});
        writer.flush();
        EXPECT_NE(testing::internal::GetCapturedStderr().find("size cap"),
                  std::string::npos);
    }
    EXPECT_LE(readFile(path).size(), 64u);

    // The capped spill recalls nothing: the entry is re-simulated.
    Engine reader = makeEngine(2, path);
    reader.run(JobSpec{"cifarnet"});
    EXPECT_EQ(reader.counters().diskHits.value(), 0u);
    EXPECT_EQ(reader.counters().misses.value(), 1u);

    std::remove(path.c_str());
}

TEST(Engine, CacheMaxBytesComesFromTheEnvironment)
{
    setenv("TANGO_ENGINE_CACHE_MAX_MB", "2", 1);
    EXPECT_EQ(EngineOptions::fromEnv().maxCacheBytes, 2ull * 1024 * 1024);
    setenv("TANGO_ENGINE_CACHE_MAX_MB", "0", 1);
    EXPECT_EQ(EngineOptions::fromEnv().maxCacheBytes, 0ull);
    unsetenv("TANGO_ENGINE_CACHE_MAX_MB");
    EXPECT_EQ(EngineOptions::fromEnv().maxCacheBytes, 0ull);
}

} // namespace
} // namespace tango
