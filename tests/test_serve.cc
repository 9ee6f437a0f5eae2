/**
 * @file
 * tango-serve end-to-end tests: protocol framing, request/response
 * parsing, and the daemon's production properties — in-flight dedup
 * (two clients submitting the identical cold JobSpec trigger exactly
 * one Engine simulation and both receive stats bit-identical to the
 * committed golden fixture), bounded admission (queue_full rejects),
 * and graceful drain (in-flight requests answered, new ones refused,
 * clean exit).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <netinet/in.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/json.hh"
#include "metrics/metrics.hh"
#include "metrics/scrape.hh"
#include "runtime/job.hh"
#include "runtime/run_cache.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

#ifndef TANGO_GOLDEN_DIR
#error "TANGO_GOLDEN_DIR must point at tests/golden"
#endif

namespace tango {
namespace {

using rt::JobResult;
using rt::JobSpec;
using rt::NetRun;

// ------------------------------------------------------------------ framing

TEST(ServeProtocol, FrameRoundTrip)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    const std::string payloads[] = {"", "x", std::string(100000, 'j'),
                                    "{\"type\":\"ping\"}"};
    for (const std::string &p : payloads) {
        ASSERT_TRUE(serve::writeFrame(sv[0], p));
        std::string got;
        ASSERT_EQ(serve::readFrame(sv[1], got), serve::FrameStatus::Ok);
        EXPECT_EQ(got, p);
    }

    // Clean close at a frame boundary is Eof, not Error.
    ::close(sv[0]);
    std::string got;
    EXPECT_EQ(serve::readFrame(sv[1], got), serve::FrameStatus::Eof);
    ::close(sv[1]);
}

TEST(ServeProtocol, OversizedFrameRejected)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    // A length prefix past the cap must be refused without allocating.
    const uint8_t hdr[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::write(sv[0], hdr, 4), 4);
    std::string got;
    EXPECT_EQ(serve::readFrame(sv[1], got), serve::FrameStatus::Error);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeProtocol, RequestRoundTrip)
{
    JobSpec job;
    job.net = "lstm";
    job.policy = "exact";
    job.functional = true;
    job.seqLen = 16;

    serve::Request req;
    std::string err;
    ASSERT_TRUE(serve::parseRequest(serve::makeRunRequest(7, job), req,
                                    &err))
        << err;
    EXPECT_EQ(req.type, serve::Request::Type::Run);
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.job.toJson(), job.toJson());

    ASSERT_TRUE(serve::parseRequest(serve::makeStatsRequest(), req, &err));
    EXPECT_EQ(req.type, serve::Request::Type::Stats);
    ASSERT_TRUE(
        serve::parseRequest(serve::makeMetricsRequest(), req, &err));
    EXPECT_EQ(req.type, serve::Request::Type::Metrics);
    ASSERT_TRUE(serve::parseRequest(serve::makePingRequest(), req, &err));
    EXPECT_EQ(req.type, serve::Request::Type::Ping);
    ASSERT_TRUE(
        serve::parseRequest(serve::makeShutdownRequest(), req, &err));
    EXPECT_EQ(req.type, serve::Request::Type::Shutdown);

    EXPECT_FALSE(serve::parseRequest("{\"type\":\"dance\"}", req, &err));
    EXPECT_FALSE(serve::parseRequest("{\"type\":\"run\",\"id\":1}", req,
                                     &err))
        << "run without a job object must be rejected";
}

TEST(ServeProtocol, ResultResponseRoundTrip)
{
    JobResult res;
    res.ok = false;
    res.error = "queue_full";
    res.served = "reject";
    res.latencyMs = 0.25;

    uint64_t id = 0;
    JobResult back;
    std::string err;
    ASSERT_TRUE(serve::parseResultResponse(
        serve::makeResultResponse(42, res), id, back, &err))
        << err;
    EXPECT_EQ(id, 42u);
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, "queue_full");
    EXPECT_EQ(back.served, "reject");
}

// ----------------------------------------------------------------- harness

/** A started server on an ephemeral port plus a connect helper. */
struct TestServer
{
    explicit TestServer(serve::ServerOptions opt = {})
        : server(std::move(opt))
    {
        std::string err;
        if (!server.start(&err))
            ADD_FAILURE() << "server start failed: " << err;
    }

    serve::Client connect()
    {
        serve::Client c;
        std::string err;
        if (!c.connect("127.0.0.1", server.port(), &err))
            ADD_FAILURE() << "connect failed: " << err;
        return c;
    }

    serve::Server server;
};

JobSpec
gruExactJob()
{
    // Matches tests/golden/gru.json: full (unreduced) GRU, default
    // seqLen, policy "exact" with functional outputs, on the default
    // GP102 configuration.
    JobSpec job;
    job.net = "gru";
    job.policy = "exact";
    job.functional = true;
    return job;
}

std::string
goldenFixture(const std::string &name)
{
    std::ifstream in(std::string(TANGO_GOLDEN_DIR) + "/" + name + ".json",
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden fixture " << name;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Serialize with the launch-memoization meta-counters pinned: they
 *  record how launches were *served*, not what was simulated, and are
 *  the one legitimate run-to-run difference (see test_golden_stats). */
std::string
canonicalRun(NetRun run)
{
    run.totals.set("mem.replayed_launches", 0.0);
    run.totals.set("mem.simulated_launches", 0.0);
    return rt::serializeNetRun(run);
}

/** Accounting invariant: every run request is resolved exactly once —
 *  rejected (draining / queue-full), refused as an invalid spec, or
 *  served from one of the four sources.  @p invalidSpecs is the number
 *  of run requests with a bad JobSpec (Counters::invalid also counts
 *  malformed frames, which never reach runRequests, so the caller says
 *  how many of the invalids were run requests).  failures happen to
 *  already-served requests, so they bound rather than add. */
void
expectRunsAccounted(const serve::Server::Counters &c,
                    uint64_t invalidSpecs = 0)
{
    const uint64_t run = c.runRequests.value();
    const uint64_t drain = c.rejectedDraining.value();
    const uint64_t full = c.rejectedQueueFull.value();
    const uint64_t sim = c.servedSim.value(), join = c.servedJoin.value();
    const uint64_t mem = c.servedMem.value(), disk = c.servedDisk.value();
    EXPECT_EQ(run, drain + full + invalidSpecs + sim + join + mem + disk)
        << "run=" << run << " drain=" << drain << " full=" << full
        << " invalid=" << invalidSpecs << " sim=" << sim
        << " join=" << join << " mem=" << mem << " disk=" << disk;
    EXPECT_LE(c.failures.value(), sim + join + mem + disk);
}

/** A raw protocol connection: whole frames out and in, so tests see the
 *  exact response bytes (serve::Client parses them away). */
class RawConn
{
  public:
    explicit RawConn(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof addr) != 0)
            ADD_FAILURE() << "raw connect to port " << port << " failed";
    }
    ~RawConn() { ::close(fd_); }

    RawConn(const RawConn &) = delete;
    RawConn &operator=(const RawConn &) = delete;

    /** Send @p frame and return the response payload ("" on error). */
    std::string roundTrip(const std::string &frame)
    {
        std::string response;
        if (!serve::writeFrame(fd_, frame) ||
            serve::readFrame(fd_, response) != serve::FrameStatus::Ok)
            ADD_FAILURE() << "raw round trip failed";
        return response;
    }

  private:
    int fd_ = -1;
};

// ------------------------------------------------------------------- serving

// Every proper prefix of a real result frame is refused with a json
// error by the one-pass decoder, never accepted and never a crash.
TEST(ServeProtocol, EveryTruncatedResultFrameIsAJsonError)
{
    JobResult res;
    res.ok = true;
    res.served = "mem";
    ASSERT_TRUE(rt::parseNetRunJson(goldenFixture("cifarnet"), res.run));
    const std::string frame = serve::makeResultResponse(7, res);

    uint64_t id = 0;
    JobResult back;
    std::string err;
    ASSERT_TRUE(serve::parseResultResponse(frame, id, back, &err)) << err;
    EXPECT_EQ(id, 7u);
    EXPECT_EQ(rt::serializeNetRun(back.run), rt::serializeNetRun(res.run));

    std::string prefix;
    for (size_t n = 0; n < frame.size(); n++) {
        prefix.assign(frame, 0, n);
        err.clear();
        ASSERT_FALSE(serve::parseResultResponse(prefix, id, back, &err))
            << "accepted a " << n << "-byte prefix";
        ASSERT_EQ(err.rfind("json: ", 0), 0u) << n << ": " << err;
    }
}

TEST(Serve, DeeplyNestedFrameIsABadRequestNotACrash)
{
    // Well under kMaxFrameBytes; before the reader capped its nesting
    // this recursed once per byte and killed the daemon.
    TestServer ts;
    RawConn conn(ts.server.port());
    const std::string response =
        conn.roundTrip(std::string(1 << 20, '['));

    uint64_t id = 99;
    JobResult res;
    std::string err;
    ASSERT_TRUE(serve::parseResultResponse(response, id, res, &err)) << err;
    EXPECT_EQ(id, 0u);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error.rfind("bad request: json: nesting too deep", 0), 0u)
        << res.error;

    // The same connection and new ones are still served.
    EXPECT_EQ(conn.roundTrip(serve::makePingRequest()), "{\"type\":\"pong\"}");
    serve::Client client = ts.connect();
    EXPECT_TRUE(client.ping(&err)) << err;
    EXPECT_EQ(ts.server.counters().invalid.value(), 1u);
}

TEST(Serve, OutOfRangeNumberInRunRequestIsRefused)
{
    TestServer ts;
    RawConn conn(ts.server.port());
    const std::string response = conn.roundTrip(
        R"({"type":"run","id":3,"job":{"net":"gru","l1dBytes":1e999}})");
    uint64_t id = 99;
    JobResult res;
    std::string err;
    ASSERT_TRUE(serve::parseResultResponse(response, id, res, &err)) << err;
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("json: number out of range"), std::string::npos)
        << res.error;
    EXPECT_EQ(ts.server.counters().runRequests.value(), 0u);
}

/** A cheap stand-in result whose statistics exercise every number
 *  spelling the writer has (inf, nan, subnormal, 17-digit). */
NetRun
syntheticRun(const JobSpec &spec)
{
    NetRun run;
    run.netName = spec.net;
    run.deviceBytes = 123456789;
    run.totalTimeSec = 0.001234567890123456;
    run.totalEnergyJ = std::numeric_limits<double>::denorm_min();
    run.peakPowerW = std::numeric_limits<double>::infinity();
    run.totals.set("sim.cycles", 987654321.0);
    run.totals.set("x.nan", std::numeric_limits<double>::quiet_NaN());
    run.layers.emplace_back();
    run.layers.back().name = "conv \"1\"";
    run.layers.back().kernels.emplace_back();
    run.layers.back().kernels.back().name = "k0";
    run.layers.back().kernels.back().gpuCycles = 1e21;
    return run;
}

/** The response frame of a run request, checked byte for byte against
 *  makeResultResponse over the engine's resident NetRun (latencyMs
 *  taken from the response: doubles round-trip exactly). */
void
expectServedBytes(serve::Server &server, const std::string &response,
                  uint64_t id, const JobSpec &job, const char *served)
{
    uint64_t gotId = 0;
    JobResult got;
    std::string err;
    ASSERT_TRUE(serve::parseResultResponse(response, gotId, got, &err))
        << err;
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_EQ(gotId, id);
    EXPECT_EQ(got.served, served);

    const rt::Engine::Submitted sub = server.engine().submitJob(job);
    ASSERT_EQ(sub.served, rt::Engine::Submitted::Served::MemHit);
    JobResult want;
    want.ok = true;
    want.served = served;
    want.latencyMs = got.latencyMs;
    want.run = *sub.future.get();
    EXPECT_EQ(response, serve::makeResultResponse(id, want)) << served;
}

TEST(Serve, ResponseBytesIdenticalForEveryServedKind)
{
    const std::string cache = ::testing::TempDir() + "/serve_bytes.json";
    std::remove(cache.c_str());

    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    serve::ServerOptions opt;
    opt.engine.cachePath = cache;
    opt.runner = [gate](sim::Gpu &gpu, const JobSpec &spec) {
        if (spec.tier == rt::Tier::Estimate)
            return rt::runJob(gpu, spec);   // the real estimate tier
        gate.wait();
        return syntheticRun(spec);
    };

    JobSpec job;
    job.net = "cifarnet";
    JobSpec est = job;
    est.tier = rt::Tier::Estimate;
    {
        TestServer ts(opt);
        // sim + join: the second request arrives while the first is
        // pinned in flight.
        RawConn a(ts.server.port()), b(ts.server.port());
        auto first = std::async(std::launch::async, [&] {
            return a.roundTrip(serve::makeRunRequest(1, job));
        });
        while (ts.server.engine().inFlightSims() == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        auto joined = std::async(std::launch::async, [&] {
            return b.roundTrip(serve::makeRunRequest(2, job));
        });
        while (ts.server.counters().servedJoin.value() == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        release.set_value();
        expectServedBytes(ts.server, first.get(), 1, job, "sim");
        expectServedBytes(ts.server, joined.get(), 2, job, "join");

        // mem: a warm hit, twice (the second reuses the cached body).
        for (uint64_t id : {3, 4})
            expectServedBytes(ts.server,
                              a.roundTrip(serve::makeRunRequest(id, job)),
                              id, job, "mem");

        // The retired "replay" tier is the sim tier: same cache entry.
        expectServedBytes(ts.server,
                          b.roundTrip(R"({"type":"run","id":9,"job":)"
                                      R"({"net":"cifarnet","tier":"replay"}})"),
                          9, job, "mem");

        // The estimate tier, cold then warm.
        expectServedBytes(ts.server,
                          a.roundTrip(serve::makeRunRequest(5, est)), 5,
                          est, "sim");
        expectServedBytes(ts.server,
                          b.roundTrip(serve::makeRunRequest(6, est)), 6,
                          est, "mem");
        EXPECT_TRUE(ts.server.engine().submitJob(est).future.get()->estimated)
            << "the estimate tier must answer from its models here";
    }   // drain flushes the disk spill

    // disk: a fresh server recalls both results from the spill.
    TestServer ts(opt);
    RawConn c(ts.server.port());
    expectServedBytes(ts.server, c.roundTrip(serve::makeRunRequest(7, job)),
                      7, job, "disk");
    expectServedBytes(ts.server, c.roundTrip(serve::makeRunRequest(8, est)),
                      8, est, "disk");
    EXPECT_EQ(ts.server.engine().counters().misses.value(), 0u);
    std::remove(cache.c_str());
}


TEST(Serve, PingStatsAndInvalidSpec)
{
    TestServer ts;
    serve::Client client = ts.connect();

    std::string err;
    EXPECT_TRUE(client.ping(&err)) << err;

    std::string stats;
    ASSERT_TRUE(client.stats(stats, &err)) << err;
    const json::Reader::Value v = json::Reader(stats).parse();
    EXPECT_EQ(v.strOr("type"), "stats");
    EXPECT_EQ(v.u64Or("run_requests", 999), 0u);

    JobSpec bad;
    bad.net = "transformer";
    JobResult res;
    ASSERT_TRUE(client.run(bad, res, &err)) << err;
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("unknown network"), std::string::npos);

    JobSpec traced = gruExactJob();
    traced.trace = true;
    ASSERT_TRUE(client.run(traced, res, &err)) << err;
    EXPECT_FALSE(res.ok) << "traced jobs must be refused";

    // Both run requests were refused as invalid specs; nothing served.
    expectRunsAccounted(ts.server.counters(), 2);
}

TEST(Serve, ConcurrentIdenticalColdJobsSimulateOnceBitIdenticalToGolden)
{
    serve::ServerOptions opt;
    // Hold every simulation briefly so the second client's request
    // arrives while the first is still in flight — the dedup window.
    opt.runner = [](sim::Gpu &gpu, const JobSpec &spec) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return rt::runJob(gpu, spec);
    };
    TestServer ts(opt);

    const JobSpec job = gruExactJob();
    auto submit = [&]() -> JobResult {
        serve::Client client = ts.connect();
        JobResult res;
        std::string err;
        EXPECT_TRUE(client.run(job, res, &err)) << err;
        return res;
    };
    auto fa = std::async(std::launch::async, submit);
    auto fb = std::async(std::launch::async, submit);
    const JobResult a = fa.get();
    const JobResult b = fb.get();

    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;

    // Exactly one simulation: the Engine's miss counter is the number
    // of jobs actually simulated.
    const rt::Engine::Counters &cache = ts.server.engine().counters();
    EXPECT_EQ(cache.misses.value(), 1u);
    EXPECT_EQ(cache.failures.value(), 0u);

    // One request simulated; the other joined it (or, if it lost the
    // race entirely, was served the resident result).
    const serve::Server::Counters &m = ts.server.counters();
    EXPECT_EQ(m.servedSim.value(), 1u);
    EXPECT_EQ(m.servedJoin.value() + m.servedMem.value(), 1u);

    // Both clients got stats bit-identical to the committed fixture.
    NetRun golden;
    ASSERT_TRUE(rt::parseNetRunJson(goldenFixture("gru"), golden));
    const std::string want = canonicalRun(golden);
    EXPECT_EQ(canonicalRun(a.run), want);
    EXPECT_EQ(canonicalRun(b.run), want);

    // A repeat of the same job is now a warm memory hit.
    const JobResult warm = submit();
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.served, "mem");
    EXPECT_EQ(canonicalRun(warm.run), want);
    EXPECT_EQ(ts.server.engine().counters().misses.value(), 1u);
    expectRunsAccounted(ts.server.counters());
}

TEST(Serve, QueueFullRejectsNewSimulationsButAdmitsJoins)
{
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();

    serve::ServerOptions opt;
    opt.queueMax = 1;
    opt.runner = [gate](sim::Gpu &gpu, const JobSpec &spec) {
        gate.wait();
        return rt::runJob(gpu, spec);
    };
    TestServer ts(opt);

    JobSpec small = gruExactJob();   // cheap exact model

    // First job occupies the single admission slot.
    auto first = std::async(std::launch::async, [&]() -> JobResult {
        serve::Client client = ts.connect();
        JobResult res;
        std::string err;
        EXPECT_TRUE(client.run(small, res, &err)) << err;
        return res;
    });
    while (ts.server.engine().inFlightSims() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // A different job would need a second simulation: rejected.
    JobSpec other = small;
    other.net = "lstm";
    {
        serve::Client client = ts.connect();
        JobResult res;
        std::string err;
        ASSERT_TRUE(client.run(other, res, &err)) << err;
        EXPECT_FALSE(res.ok);
        EXPECT_EQ(res.error, "queue_full");
    }

    // The identical job joins the in-flight simulation: admitted even
    // at the admission bound (it costs no new slot).
    auto joined = std::async(std::launch::async, [&]() -> JobResult {
        serve::Client client = ts.connect();
        JobResult res;
        std::string err;
        EXPECT_TRUE(client.run(small, res, &err)) << err;
        return res;
    });

    release.set_value();
    const JobResult a = first.get();
    const JobResult j = joined.get();
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(j.ok) << j.error;

    const serve::Server::Counters &m = ts.server.counters();
    EXPECT_EQ(m.rejectedQueueFull.value(), 1u);
    EXPECT_EQ(m.servedSim.value(), 1u);
    EXPECT_EQ(ts.server.engine().counters().misses.value(), 1u);
    expectRunsAccounted(m);
}

TEST(Serve, GracefulDrainFinishesInFlightAndRefusesNew)
{
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();

    serve::ServerOptions opt;
    opt.runner = [gate](sim::Gpu &gpu, const JobSpec &spec) {
        gate.wait();
        return rt::runJob(gpu, spec);
    };
    TestServer ts(opt);

    // Open both connections BEFORE the drain: draining refuses new run
    // requests on live connections (the listener itself is closed).
    serve::Client late = ts.connect();

    auto inflight = std::async(std::launch::async, [&]() -> JobResult {
        serve::Client client = ts.connect();
        JobResult res;
        std::string err;
        EXPECT_TRUE(client.run(gruExactJob(), res, &err)) << err;
        return res;
    });
    while (ts.server.engine().inFlightSims() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    ts.server.requestDrain();
    while (!ts.server.draining())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // A run request during the drain is refused...
    JobResult res;
    std::string err;
    ASSERT_TRUE(late.run(gruExactJob(), res, &err)) << err;
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "draining");

    // ...but the in-flight one completes and is answered.
    release.set_value();
    const JobResult done = inflight.get();
    ASSERT_TRUE(done.ok) << done.error;

    ts.server.waitDrained();
    const serve::Server::Counters &m = ts.server.counters();
    EXPECT_EQ(m.rejectedDraining.value(), 1u);
    EXPECT_EQ(m.servedSim.value(), 1u);
    expectRunsAccounted(m);
}

TEST(Serve, MetricsFrameScrapeDeltas)
{
    // The registry is process-wide and cumulative across every Server
    // in this binary, so the frame is asserted on DELTAS around one
    // served run, not absolute values.
    TestServer ts;
    serve::Client client = ts.connect();
    std::string err, text;

    ASSERT_TRUE(client.metrics(text, &err)) << err;
    metrics::Scrape before;
    ASSERT_TRUE(metrics::Scrape::parse(text, before, &err)) << err;

    JobResult res;
    ASSERT_TRUE(client.run(gruExactJob(), res, &err)) << err;
    ASSERT_TRUE(res.ok) << res.error;

    ASSERT_TRUE(client.metrics(text, &err)) << err;
    metrics::Scrape after;
    ASSERT_TRUE(metrics::Scrape::parse(text, after, &err)) << err;

    const auto delta = [&](const char *family) {
        return after.sum(family) - before.sum(family);
    };
    EXPECT_EQ(delta("tango_serve_run_requests_total"), 1.0);
    EXPECT_EQ(delta("tango_serve_served_total"), 1.0);
    EXPECT_EQ(delta("tango_serve_rejects_total"), 0.0);
    // Every served run was admitted under exactly one accuracy tier.
    EXPECT_EQ(delta("tango_serve_tier_total"),
              delta("tango_serve_served_total"));
    const metrics::Sample *sim =
        after.find("tango_serve_served_total", "how", "sim");
    ASSERT_NE(sim, nullptr);
    EXPECT_GE(sim->value, 1.0);

    // The engine saw one miss for the cold job, and its in-flight gauge
    // is back to zero now that the run was answered.
    EXPECT_EQ(delta("tango_engine_cache_total"), 1.0);
    const metrics::Sample *depth =
        after.find("tango_engine_inflight_sims");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->value, 0.0);

    // The scrape-side latency histogram counted the run too.
    metrics::HistogramSnapshot hb, ha;
    const double countBefore =
        before.histogram("tango_serve_latency_us", hb)
            ? double(hb.count())
            : 0.0;
    ASSERT_TRUE(after.histogram("tango_serve_latency_us", ha));
    EXPECT_EQ(double(ha.count()) - countBefore, 1.0);

    // And the stats reply's bucket-bound percentiles agree with this
    // server's own view: one run recorded, p99 >= p50 >= 0.
    std::string stats;
    ASSERT_TRUE(client.stats(stats, &err)) << err;
    const json::Reader::Value v = json::Reader(stats).parse();
    const json::Reader::Value *lat = v.find("latency_ms");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->u64Or("count", 0), 1u);
    EXPECT_GE(lat->numOr("p99", -1.0), lat->numOr("p50", -1.0));
    EXPECT_GE(lat->numOr("p50", -1.0), 0.0);
}

TEST(Serve, TwoServersCountOnlyTheirOwnRequests)
{
    // Two servers in one process: each stats reply and each set of
    // counters sees only that server's requests, and the process-wide
    // registry series rise by the sum of both.
    serve::ServerOptions opt;
    opt.runner = [](sim::Gpu &, const JobSpec &spec) {
        return syntheticRun(spec);
    };
    TestServer a(opt), b(opt);
    const auto series = [](const char *name, metrics::Labels labels = {}) {
        return metrics::counter(name, "", labels).value();
    };
    const auto registry = [&] {
        return std::map<std::string, uint64_t>{
            {"requests", series("tango_serve_requests_total")},
            {"invalid", series("tango_serve_invalid_total")},
            {"run_requests", series("tango_serve_run_requests_total")},
            {"served_sim",
             series("tango_serve_served_total", {{"how", "sim"}})},
            {"served_mem",
             series("tango_serve_served_total", {{"how", "mem"}})},
            {"tier_sim", series("tango_serve_tier_total", {{"tier", "sim"}})},
            {"cache_misses",
             series("tango_engine_cache_total", {{"result", "miss"}})},
            {"cache_mem_hits",
             series("tango_engine_cache_total", {{"result", "mem_hit"}})},
            {"latency_count",
             metrics::histogram("tango_serve_latency_us", "")
                 .snapshot()
                 .count()},
        };
    };
    const std::map<std::string, uint64_t> before = registry();

    std::string err, statsA, statsB;
    JobResult res;
    JobSpec cifar;
    cifar.net = "cifarnet";
    serve::Client ca = a.connect(), cb = b.connect();
    ASSERT_TRUE(ca.ping(&err)) << err;
    ASSERT_TRUE(ca.run(cifar, res, &err) && res.ok) << err << res.error;
    ASSERT_TRUE(ca.run(cifar, res, &err) && res.ok) << err << res.error;
    ASSERT_TRUE(cb.run(gruExactJob(), res, &err) && res.ok)
        << err << res.error;
    JobSpec bad;
    bad.net = "transformer";
    ASSERT_TRUE(cb.run(bad, res, &err) && !res.ok) << err;
    ASSERT_TRUE(ca.stats(statsA, &err)) << err;
    ASSERT_TRUE(cb.stats(statsB, &err)) << err;

    // Each stats frame counts itself among its server's requests.
    const std::map<std::string, uint64_t> wantA = {
        {"requests", 4},     {"invalid", 0},        {"run_requests", 2},
        {"served_sim", 1},   {"served_mem", 1},     {"tier_sim", 2},
        {"cache_misses", 1}, {"cache_mem_hits", 1}, {"latency_count", 2}};
    const std::map<std::string, uint64_t> wantB = {
        {"requests", 3},     {"invalid", 1},        {"run_requests", 2},
        {"served_sim", 1},   {"served_mem", 0},     {"tier_sim", 1},
        {"cache_misses", 1}, {"cache_mem_hits", 0}, {"latency_count", 1}};
    const auto expectStats = [](const std::string &stats,
                                const std::map<std::string, uint64_t> &want,
                                serve::Server &server) {
        const json::Reader::Value v = json::Reader(stats).parse();
        const serve::Server::Counters &c = server.counters();
        const rt::Engine::Counters &e = server.engine().counters();
        const std::map<std::string, uint64_t> counters = {
            {"requests", c.requests.value()},
            {"invalid", c.invalid.value()},
            {"run_requests", c.runRequests.value()},
            {"served_sim", c.servedSim.value()},
            {"served_mem", c.servedMem.value()},
            {"tier_sim", c.tierSim.value()},
            {"cache_misses", e.misses.value()},
            {"cache_mem_hits", e.memHits.value()},
            {"latency_count", c.latencyUs.snapshot().count()}};
        EXPECT_EQ(counters, want);
        for (const auto &[key, n] : want) {
            const uint64_t got =
                key == "latency_count"
                    ? v.find("latency_ms")->u64Or("count", 999)
                    : v.u64Or(key.c_str(), 999);
            EXPECT_EQ(got, n) << key;
        }
    };
    expectStats(statsA, wantA, a.server);
    expectStats(statsB, wantB, b.server);

    const std::map<std::string, uint64_t> after = registry();
    for (const auto &[key, n] : after)
        EXPECT_EQ(n - before.at(key), wantA.at(key) + wantB.at(key)) << key;
}

TEST(Serve, ShutdownRequestTriggersDrain)
{
    TestServer ts;
    serve::Client client = ts.connect();
    std::string err;
    ASSERT_TRUE(client.shutdown(&err)) << err;
    ts.server.waitDrained();
    EXPECT_TRUE(ts.server.draining());
}

// ------------------------------------------------------------------- chaos
// Well-formed requests that once reached a fatal() and killed the
// daemon.  These run under the ctest label "chaos" (tests/CMakeLists.txt).

/** Send one run request carrying the raw JobSpec JSON @p job and decode
 *  the result. */
JobResult
rawRun(RawConn &conn, const std::string &job)
{
    const std::string response =
        conn.roundTrip(R"({"type":"run","id":1,"job":)" + job + "}");
    uint64_t id = 0;
    JobResult res;
    std::string err;
    EXPECT_TRUE(serve::parseResultResponse(response, id, res, &err)) << err;
    return res;
}

TEST(ServeChaos, UnbuildableConfigAndShardCountAreBadRequests)
{
    TestServer ts;
    RawConn conn(ts.server.port());
    for (const char *job :
         {R"({"net":"cifarnet","l1dBytes":1})",
          R"({"net":"gru","runPolicy":{"sim":{"shards":1000}}})"}) {
        const JobResult res = rawRun(conn, job);
        EXPECT_FALSE(res.ok) << job;
        EXPECT_EQ(res.error.rfind("bad request: ", 0), 0u) << res.error;
    }
    // Fields that would be truncated or defaulted are refused when the
    // frame is parsed: 2^32 + 65536 must not run as a 64 KiB L1D.
    for (const char *job :
         {R"({"net":"cifarnet","l1dBytes":4295032832})",
          R"({"net":"gru","runPolicy":{"sim":{"shards":4294967304}}})",
          R"({"net":"cifarnet","l1dBytes":"64K"})"}) {
        const JobResult res = rawRun(conn, job);
        EXPECT_FALSE(res.ok) << job;
        EXPECT_EQ(res.error.rfind("bad request: ", 0), 0u) << res.error;
    }
    expectRunsAccounted(ts.server.counters(), 2);
    EXPECT_EQ(ts.server.counters().invalid.value(), 5u);
    std::string err;
    EXPECT_TRUE(ts.connect().ping(&err)) << err;
}

TEST(ServeChaos, CycleCapFailsOneJobAndTheDaemonKeepsServing)
{
    TestServer ts;
    RawConn conn(ts.server.port());
    const std::string cappedJob =
        R"({"net":"gru","seqLen":4,"runPolicy":{"sim":{"maxCycles":10}}})";
    for (int attempt = 1; attempt <= 2; attempt++) {
        // A failed job is not cached: the retry simulates and fails again.
        const JobResult capped = rawRun(conn, cappedJob);
        EXPECT_FALSE(capped.ok);
        EXPECT_EQ(capped.error.rfind("simulation failed: ", 0), 0u)
            << capped.error;
        EXPECT_NE(capped.error.find("safety cap"), std::string::npos)
            << capped.error;
        EXPECT_EQ(ts.server.counters().failures.value(), uint64_t(attempt));
    }

    // The next request on the same daemon and connection simulates.
    const JobResult next = rawRun(conn, R"({"net":"gru","seqLen":4})");
    EXPECT_TRUE(next.ok) << next.error;
    EXPECT_EQ(next.served, "sim");
    expectRunsAccounted(ts.server.counters());
}

} // namespace
} // namespace tango
