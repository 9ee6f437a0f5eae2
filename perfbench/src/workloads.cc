#include "workloads.hh"

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "catalog.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "estimate/estimator.hh"
#include "metrics/metrics.hh"
#include "mirror.hh"
#include "runtime/engine.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace perfbench {

namespace rt = tango::rt;
namespace serve = tango::serve;

namespace {

/** serve_hits: requests per round.  1000 samples leave 10 beyond p99. */
constexpr uint32_t kServeRequests = 1000;
/** serve_hits: closed-loop client connections (2 connections + 2 server
 *  connection threads stay within 4 cores). */
constexpr unsigned kServeClients = 2;
/** serve_hits: set-ups per untraced run; setup_s is their median. */
constexpr int kServeSetups = 5;
/** Cold workloads: extra set-ups before each untraced round. */
constexpr int kColdSetups = 20;
/** rnn_replay_cold sequence length: 1025 launches per network, all but
 *  a handful replayed; short enough for ~20 rounds per run. */
constexpr uint32_t kRnnSeqLen = 1024;
/** Repeats per resident job when timing hits and serialization. */
constexpr int kRepeats = 20;

double
now()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Whether a step of about @p step seconds, started now, still ends by
 *  @p deadline (on now()'s clock).  Keeps a run within --seconds. */
bool
fits(double deadline, double step)
{
    return now() + step <= deadline;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (@p q in (0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

/** " 1.234 5.678": per-round values for the run's log. */
std::string
listOf(const std::vector<double> &v)
{
    std::string out;
    char buf[32];
    for (const double x : v) {
        std::snprintf(buf, sizeof buf, " %.4g", x);
        out += buf;
    }
    return out;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;   // ru_maxrss is in KiB on Linux
}

uint64_t
counterValue(const char *name, tango::metrics::Labels labels = {})
{
    return tango::metrics::counter(name, "", labels).value();
}

/** Attempted and failed operations; safe to share between threads. */
class Tally
{
  public:
    void fail(const std::string &why)
    {
        attempted_++;
        failed_++;
        std::lock_guard<std::mutex> lock(mu_);
        if (errors_.size() < 8)
            errors_.push_back(why);
    }
    /** Count one operation; @p why empty means it passed. */
    void check(const std::string &why)
    {
        if (why.empty())
            attempted_++;
        else
            fail(why);
    }
    void into(Outcome &out)
    {
        out.attempted = attempted_;
        out.failed = failed_;
        std::lock_guard<std::mutex> lock(mu_);
        out.errors = errors_;
    }

  private:
    std::atomic<uint64_t> attempted_{0}, failed_{0};
    std::mutex mu_;
    std::vector<std::string> errors_;
};

rt::EngineOptions
engineOptions(unsigned workers)
{
    rt::EngineOptions opt;
    opt.threads = workers;   // no disk spill: every round starts cold
    return opt;
}

// ------------------------------------------------------------ cold rounds

struct ColdRound
{
    double setupSec = 0.0;
    double hostSec = 0.0;
    /** Per job, in list order (default-constructed for a job that
     *  threw). */
    std::vector<StatsSummary> summaries;
};

/** Collect every future; a job that threw yields nullptr. */
std::vector<const rt::NetRun *>
collect(std::vector<rt::Engine::Submitted> &subs, Tally &tally,
        const std::vector<rt::JobSpec> &specs)
{
    std::vector<const rt::NetRun *> runs;
    for (size_t i = 0; i < subs.size(); i++) {
        try {
            runs.push_back(subs[i].future.get());
        } catch (const std::exception &e) {
            tally.fail(specs[i].cacheKey().str + " threw: " + e.what());
            runs.push_back(nullptr);
        }
    }
    return runs;
}

/** A cold round's set-up: a fresh Engine, and the job list validated. */
std::unique_ptr<rt::Engine>
coldSetup(const std::vector<rt::JobSpec> &specs, unsigned workers)
{
    auto engine = std::make_unique<rt::Engine>(engineOptions(workers));
    for (const auto &s : specs) {
        const std::string why = s.validate();
        if (!why.empty())
            tango::fatal("invalid benchmark job: %s", why.c_str());
    }
    return engine;
}

/** One untraced round: a fresh Engine simulates the list through the
 *  standard job body (Engine::submitJob -> runJob -> Runtime::run). */
ColdRound
coldRound(const std::vector<rt::JobSpec> &specs, unsigned workers,
          const References &refs, Tally &tally)
{
    ColdRound r;
    const double t0 = now();
    const auto engine = coldSetup(specs, workers);
    r.setupSec = now() - t0;

    const double t1 = now();
    std::vector<rt::Engine::Submitted> subs;
    for (const auto &s : specs)
        subs.push_back(engine->submitJob(s));
    const std::vector<const rt::NetRun *> runs = collect(subs, tally, specs);
    r.hostSec = now() - t1;

    r.summaries.resize(specs.size());
    for (size_t i = 0; i < specs.size(); i++) {
        if (!runs[i])
            continue;
        const std::string key = specs[i].cacheKey().str;
        r.summaries[i] = summarize(*runs[i]);
        if (subs[i].served != rt::Engine::Submitted::Served::Simulated)
            tally.fail(key + " was not simulated cold");
        else
            tally.check(checkAgainst(refs, key, r.summaries[i]));
    }
    return r;
}

/** Add each layer's summed span self time to its *.self_ms metric
 *  (already zeroed).  The server's time is JobResult::latencyMs. */
void
putSelfTimes(Outcome &out, double serverMs)
{
    static const std::map<std::string, std::string> metricOf = {
        {"runtime.run", "runtime.self_ms"},
        {"engine.job", "engine.self_ms"},
        {"engine.hit", "engine.self_ms"},
        {"serialize", "serialize.self_ms"},
        {"client.request", "client.self_ms"},
        {"client.make_request", "client.self_ms"},
        {"client.parse", "client.self_ms"},
        {"estimate", "estimate.self_ms"},
    };
    for (const auto &[name, t] : totalsByName(out.spans)) {
        const auto it = metricOf.find(name);
        if (it != metricOf.end())
            out.metrics[it->second] += 1e3 * t.selfSeconds;
    }
    out.metrics["server.self_ms"] = serverMs;
}

/** Fill the sim / memo / nn / lowering metrics from the launch records. */
void
putLaunchMetrics(Outcome &out, const std::vector<TracedJob> &recs,
                 uint64_t mismatches)
{
    struct Acc
    {
        double host = 0, simHost = 0, simIssued = 0;
    };
    std::map<std::string, Acc> fam;
    double build = 0, lower = 0, kernels = 0, launchHost = 0, issued = 0,
           gpuCycles = 0, smCycles = 0, simHost = 0, simIssued = 0,
           simSmCycles = 0, replayHost = 0, rnnArmHost = 0;
    uint64_t launches = 0, replayed = 0, rnnSimulated = 0;
    for (const TracedJob &j : recs) {
        build += j.buildSec;
        lower += j.lowerSec;
        kernels += j.kernels;
        for (const LaunchRecord &l : j.launches) {
            launches++;
            launchHost += l.hostSec;
            issued += l.issuedWinst;
            gpuCycles += l.gpuCycles;
            smCycles += l.smCycles;
            Acc &f = fam[l.family];
            f.host += l.hostSec;
            if (l.replayed) {
                replayed++;
                replayHost += l.hostSec;
                continue;
            }
            simHost += l.hostSec;
            simIssued += l.issuedWinst;
            simSmCycles += l.smCycles;
            f.simHost += l.hostSec;
            f.simIssued += l.issuedWinst;
            if (l.family == "GRU" || l.family == "LSTM") {
                rnnSimulated++;
                rnnArmHost += l.hostSec;
            }
        }
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto &m = out.metrics;
    m["nn.build_ms"] = 1e3 * build;
    m["lowering.ms"] = 1e3 * lower;
    m["lowering.kernels"] = kernels;
    m["sim.launch_s"] = launchHost;
    m["sim.launches"] = static_cast<double>(launches);
    m["sim.issued_winst"] = issued;
    m["sim.gpu_cycles"] = gpuCycles;
    m["sim.sm_cycles"] = smCycles;
    m["sim.winst_per_s"] = ratio(simIssued, simHost);
    m["sim.host_ns_per_cycle"] = 1e9 * ratio(simHost, simSmCycles);
    for (const char *f : kFamilies) {
        const Acc a = fam.count(f) ? fam.at(f) : Acc{};
        m["sim." + familyKey(f) + ".host_s"] = a.host;
        m["sim." + familyKey(f) + ".winst_per_s"] =
            ratio(a.simIssued, a.simHost);
    }
    m["memo.simulated"] = static_cast<double>(launches - replayed);
    m["memo.replayed"] = static_cast<double>(replayed);
    m["memo.replay_ratio"] = ratio(replayed, launches);
    m["memo.mismatches"] = static_cast<double>(mismatches);
    m["memo.replay_us"] = 1e6 * ratio(replayHost, replayed);
    m["memo.arm_ms"] = 1e3 * ratio(rnnArmHost, rnnSimulated);
}

Outcome
coldUntraced(const RunArgs &args, const References &refs)
{
    const auto specs = jobList(args.workload);
    const unsigned workers = engineWorkers(args.workload);
    Outcome out;
    Tally tally;
    // A set-up takes well under a millisecond, so take the median of
    // many, spread over the run like the rounds.
    std::vector<double> setups, hosts;
    const double deadline = now() + args.seconds;
    do {
        for (int k = 0; k < kColdSetups; k++) {
            const double t0 = now();
            const auto engine = coldSetup(specs, workers);
            setups.push_back(now() - t0);
        }
        const ColdRound r = coldRound(specs, workers, refs, tally);
        setups.push_back(r.setupSec);
        hosts.push_back(r.hostSec);
    } while (fits(deadline, median(hosts)));
    tally.into(out);
    out.metrics["setup_s"] = median(setups);
    out.metrics["host_s"] = median(hosts);
    out.metrics["peak_rss_mb"] = peakRssMb();
    out.report = "rounds of " + std::to_string(specs.size()) +
                 " jobs, host_s:" + listOf(hosts) + "\n";
    return out;
}

/** One traced cold round and what it recorded. */
struct TracedCold
{
    SpanLog log;
    std::vector<TracedJob> recs;
    std::vector<double> waitSec;
    uint64_t mismatches = 0;
    double hostSec = 0.0;
};

/** A fresh Engine runs the list through tracedRun(), each job inside a
 *  timestamping JobFn; every result must equal the untraced round's. */
std::unique_ptr<TracedCold>
tracedColdRound(const std::vector<rt::JobSpec> &specs, unsigned workers,
                const ColdRound &plain, const References &refs, Tally &tally)
{
    auto tc = std::make_unique<TracedCold>();
    tc->recs.resize(specs.size());
    tc->waitSec.resize(specs.size());
    std::vector<uint64_t> jobSpan(specs.size()), waitSpan(specs.size());
    const uint64_t mismatches0 =
        counterValue("tango_sim_memo_mismatches_total");
    rt::Engine engine(engineOptions(workers));
    const double t1 = now();
    std::vector<rt::Engine::Submitted> subs;
    for (size_t i = 0; i < specs.size(); i++) {
        const uint64_t group = i + 1;
        jobSpan[i] = tc->log.open("engine.job", 0, group);
        waitSpan[i] = tc->log.open("engine.queue_wait", jobSpan[i], group);
        subs.push_back(engine.submitJob(
            specs[i], 0, [&, i, group](tango::sim::Gpu &gpu) {
                tc->waitSec[i] = tc->log.close(waitSpan[i]);
                rt::NetRun run = tracedRun(gpu, specs[i], tc->log,
                                           jobSpan[i], group, tc->recs[i]);
                tc->log.close(jobSpan[i]);
                return run;
            }));
    }
    const std::vector<const rt::NetRun *> runs = collect(subs, tally, specs);
    tc->hostSec = now() - t1;
    tc->mismatches =
        counterValue("tango_sim_memo_mismatches_total") - mismatches0;
    for (size_t i = 0; i < specs.size(); i++) {
        if (!runs[i])
            continue;
        const std::string key = specs[i].cacheKey().str;
        const StatsSummary s = summarize(*runs[i]);
        if (!(s == plain.summaries[i]))
            tally.fail(key + ": traced statistics differ from the "
                             "untraced run");
        else
            tally.check(checkAgainst(refs, key, s));
    }
    return tc;
}

/** Pairs of untraced and traced rounds for --seconds; the per-layer
 *  metrics come from the last traced round, the overhead from the
 *  median pair. */
Outcome
coldTraced(const RunArgs &args, const References &refs)
{
    const auto specs = jobList(args.workload);
    const unsigned workers = engineWorkers(args.workload);
    Outcome out;
    Tally tally;
    std::vector<double> overheads;
    std::unique_ptr<TracedCold> tc;
    const double deadline = now() + args.seconds;
    double pairSec = 0.0;
    do {
        const double t0 = now();
        const ColdRound plain = coldRound(specs, workers, refs, tally);
        tc = tracedColdRound(specs, workers, plain, refs, tally);
        overheads.push_back(tc->hostSec - plain.hostSec);
        pairSec = now() - t0;
    } while (fits(deadline, pairSec));

    tally.into(out);
    for (const MetricDef &d : perLayerMetrics())
        out.metrics[d.name] = 0.0;
    putLaunchMetrics(out, tc->recs, tc->mismatches);
    out.metrics["engine.queue_wait_ms"] = 1e3 * mean(tc->waitSec);
    out.spans = tc->log.spans();
    putSelfTimes(out, 0.0);
    out.metrics["trace.overhead_s"] = median(overheads);
    return out;
}

// ------------------------------------------------------------- serve_hits

/** A TCP connection speaking the serve protocol through its public frame
 *  functions, so the traced run can time serve::Client::run's steps. */
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
            tango::fatal("traced client cannot connect to port %u", port);
        const int one = 1;   // as serve::Client::connect does
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    ~RawConn() { ::close(fd_); }

    RawConn(const RawConn &) = delete;
    RawConn &operator=(const RawConn &) = delete;

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

struct ServeState
{
    std::vector<rt::JobSpec> specs;
    /** specs[j].cacheKey().str, worked out once for the checks. */
    std::vector<std::string> keys;
    std::unique_ptr<serve::Server> server;
    /** In-process results, resident in the server's Engine. */
    std::vector<const rt::NetRun *> resident;
};

/** "" when a hit response is right: ok, served from memory, and equal to
 *  the in-process NetRun's totals. */
std::string
checkHit(const rt::JobResult &res, const rt::NetRun &want,
         const std::string &key)
{
    if (!res.ok)
        return key + ": error '" + res.error + "'";
    if (res.served != "mem")
        return key + ": served as '" + res.served +
               "' in the timed phase (prefill incomplete)";
    if (res.run.totals.all() != want.totals.all() ||
        res.run.totalTimeSec != want.totalTimeSec ||
        res.run.totalEnergyJ != want.totalEnergyJ)
        return key + ": response totals differ from the in-process run";
    return "";
}

/** Build, start and prefill a server.  @return the set-up seconds. */
double
serveSetup(ServeState &st, const References &refs, Tally &tally)
{
    st.specs = jobList("serve_hits");
    st.keys.clear();
    for (const auto &s : st.specs)
        st.keys.push_back(s.cacheKey().str);
    st.resident.clear();
    st.server.reset();
    const double t0 = now();
    serve::ServerOptions so;
    so.engine = engineOptions(engineWorkers("serve_hits"));
    st.server = std::make_unique<serve::Server>(so);
    std::string err;
    if (!st.server->start(&err))
        tango::fatal("server start failed: %s", err.c_str());
    const uint16_t port = st.server->port();
    std::vector<rt::JobResult> results(st.specs.size());
    std::vector<std::string> errors(st.specs.size());
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kServeClients; c++) {
        clients.emplace_back([&, c] {
            serve::Client client;
            std::string e;
            if (!client.connect("127.0.0.1", port, &e))
                tango::fatal("prefill client: %s", e.c_str());
            for (size_t i = c; i < st.specs.size(); i += kServeClients) {
                if (!client.run(st.specs[i], results[i], &e))
                    errors[i] = "transport: " + e;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    const double setup = now() - t0;

    for (size_t i = 0; i < st.specs.size(); i++) {
        const std::string &key = st.keys[i];
        auto sub = st.server->engine().submitJob(st.specs[i]);
        st.resident.push_back(sub.future.get());
        if (!errors[i].empty() || !results[i].ok)
            tally.fail(key + ": prefill failed " + errors[i] +
                       results[i].error);
        else if (results[i].served != "sim")
            tally.fail(key + ": prefill served as '" + results[i].served +
                       "', not simulated");
        else if (!(summarize(results[i].run) ==
                   summarize(*st.resident.back())))
            tally.fail(key + ": prefill response differs from the "
                             "in-process run");
        else
            tally.check(checkAgainst(refs, key,
                                     summarize(*st.resident.back())));
    }
    return setup;
}

/** One round's request order: the fixed composition, shuffled. */
std::vector<uint32_t>
shuffledRound(tango::Rng &rng)
{
    std::vector<uint32_t> order;
    const auto counts = serveComposition(kServeRequests);
    for (uint32_t j = 0; j < counts.size(); j++)
        order.insert(order.end(), counts[j], j);
    for (size_t i = order.size() - 1; i > 0; i--)
        std::swap(order[i], order[rng.below(static_cast<uint32_t>(i + 1))]);
    return order;
}

/** Closed-loop client threads that live for the whole run, each on its
 *  own serve::Client connection; run() drives one round. */
class ClientLoop
{
  public:
    ClientLoop(const ServeState &st, Tally &tally)
        : st_(st), tally_(tally), clients_(kServeClients)
    {
        for (auto &c : clients_) {
            std::string err;
            if (!c.connect("127.0.0.1", st.server->port(), &err))
                tango::fatal("client connect: %s", err.c_str());
        }
        for (auto &c : clients_)
            threads_.emplace_back([this, &c] { body(c); });
    }

    ~ClientLoop()
    {
        stop_ = true;
        sync_.arrive_and_wait();
        for (auto &t : threads_)
            t.join();
    }

    ClientLoop(const ClientLoop &) = delete;
    ClientLoop &operator=(const ClientLoop &) = delete;

    /** Send @p order once across the clients.  @return wall seconds. */
    double run(const std::vector<uint32_t> &order)
    {
        order_ = &order;
        next_ = 0;
        const double t0 = now();
        sync_.arrive_and_wait();   // start
        sync_.arrive_and_wait();   // every client done
        return now() - t0;
    }

  private:
    void body(serve::Client &client)
    {
        rt::JobResult res;
        std::string err;
        for (;;) {
            sync_.arrive_and_wait();
            if (stop_)
                return;
            for (size_t i; (i = next_++) < order_->size();) {
                const uint32_t j = (*order_)[i];
                if (!client.run(st_.specs[j], res, &err))
                    tally_.fail("transport: " + err);
                else
                    tally_.check(checkHit(res, *st_.resident[j],
                                          st_.keys[j]));
            }
            sync_.arrive_and_wait();
        }
    }

    const ServeState &st_;
    Tally &tally_;
    std::vector<serve::Client> clients_;
    std::barrier<> sync_{kServeClients + 1};
    // Written by run() / the destructor before a barrier phase, read by
    // the clients after it.
    const std::vector<uint32_t> *order_ = nullptr;
    bool stop_ = false;
    std::atomic<size_t> next_{0};
    std::vector<std::thread> threads_;   ///< declared last: joined first
};

Outcome
serveUntraced(const RunArgs &args, const References &refs)
{
    Outcome out;
    Tally tally;
    ServeState st;
    const double start = now();
    std::vector<double> setups = {serveSetup(st, refs, tally)};
    tango::Rng rng(args.seed);
    std::vector<double> hosts;
    {
        // The further set-ups come out of the run's --seconds too.
        const double deadline =
            start + args.seconds - (kServeSetups - 1) * setups[0];
        ClientLoop loop(st, tally);
        do {
            hosts.push_back(loop.run(shuffledRound(rng)));
        } while (fits(deadline, median(hosts)));
    }
    // Peak RSS of a process that set up once and served, as a daemon
    // does; the further set-ups only time set-up.
    const double rss = peakRssMb();
    for (int k = 1; k < kServeSetups; k++)
        setups.push_back(serveSetup(st, refs, tally));
    st.server.reset();

    tally.into(out);
    out.metrics["setup_s"] = median(setups);
    out.metrics["host_s"] = median(hosts);
    out.metrics["peak_rss_mb"] = rss;
    out.report = "set-ups, setup_s:" + listOf(setups) + "\nrounds of " +
                 std::to_string(kServeRequests) +
                 " requests, host_s:" + listOf(hosts) + "\n";
    return out;
}

struct RequestSample
{
    double rttMs = 0, roundTripMs = 0, parseMs = 0, serverMs = 0;
};

/** One traced closed-loop round and what it recorded. */
struct TracedServe
{
    SpanLog log;
    std::vector<RequestSample> samples;
    double hostSec = 0.0;
    double hits = 0.0, misses = 0.0;   ///< engine cache lookups
};

/** serve::Client::run taken apart into its public protocol calls, one
 *  span each, over fresh connections. */
std::unique_ptr<TracedServe>
tracedServeRound(const ServeState &st, const std::vector<uint32_t> &order,
                 Tally &tally)
{
    auto ts = std::make_unique<TracedServe>();
    const auto lookups = [] {
        const char *k = "tango_engine_cache_total";
        return std::pair<double, double>(
            counterValue(k, {{"result", "mem_hit"}}),
            counterValue(k, {{"result", "miss"}}) +
                counterValue(k, {{"result", "disk_hit"}}));
    };
    const auto before = lookups();
    std::vector<std::vector<RequestSample>> samples(kServeClients);
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    SpanLog &log = ts->log;
    const double t0 = now();
    for (unsigned c = 0; c < kServeClients; c++) {
        threads.emplace_back([&, c] {
            RawConn conn(st.server->port());
            for (size_t i; (i = next++) < order.size();) {
                const uint32_t j = order[i];
                const uint64_t id = i + 1;
                RequestSample s;
                ScopedSpan req(log, "client.request", 0, id);
                std::string frame, response;
                {
                    ScopedSpan sp(log, "client.make_request", req.id(), id);
                    frame = serve::makeRunRequest(id, st.specs[j]);
                }
                bool ok = false;
                {
                    ScopedSpan sp(log, "client.roundtrip", req.id(), id);
                    ok = serve::writeFrame(conn.fd(), frame) &&
                         serve::readFrame(conn.fd(), response) ==
                             serve::FrameStatus::Ok;
                    s.roundTripMs = 1e3 * sp.close();
                }
                rt::JobResult res;
                uint64_t gotId = 0;
                {
                    ScopedSpan sp(log, "client.parse", req.id(), id);
                    ok = ok && serve::parseResultResponse(response, gotId,
                                                          res);
                    s.parseMs = 1e3 * sp.close();
                }
                s.rttMs = 1e3 * req.close();
                s.serverMs = res.latencyMs;
                const std::string &key = st.keys[j];
                if (!ok || gotId != id)
                    tally.fail(key + ": transport or protocol failure");
                else
                    tally.check(checkHit(res, *st.resident[j], key));
                samples[c].push_back(s);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    ts->hostSec = now() - t0;
    const auto after = lookups();
    ts->hits = after.first - before.first;
    ts->misses = after.second - before.second;
    for (const auto &v : samples)
        ts->samples.insert(ts->samples.end(), v.begin(), v.end());
    return ts;
}

/** Pairs of untraced and traced rounds for --seconds (metrics from the
 *  last traced round, overhead from the median pair), then the engine
 *  hit path, serialization and the estimator timed on their own. */
Outcome
serveTraced(const RunArgs &args, const References &refs)
{
    Outcome out;
    Tally tally;
    ServeState st;
    const double deadline = now() + args.seconds;
    serveSetup(st, refs, tally);
    tango::Rng rng(args.seed);
    std::vector<double> overheads;
    std::unique_ptr<TracedServe> ts;
    {
        ClientLoop loop(st, tally);
        double pairSec = 0.0;
        do {
            const double t0 = now();
            const double plain = loop.run(shuffledRound(rng));
            ts = tracedServeRound(st, shuffledRound(rng), tally);
            overheads.push_back(ts->hostSec - plain);
            pairSec = now() - t0;
        } while (fits(deadline, pairSec));
    }
    SpanLog &log = ts->log;

    // Engine hits and serialization, timed by the benchmark on the resident
    // results: what the server does per request besides the socket.
    const auto counts = serveComposition(kServeRequests);
    std::vector<double> hitUs, serMs(st.specs.size()), kb(st.specs.size());
    for (size_t j = 0; j < st.specs.size(); j++) {
        const std::string &key = st.keys[j];
        for (int r = 0; r < kRepeats; r++) {
            ScopedSpan sp(log, "engine.hit", 0, 0);
            auto sub = st.server->engine().submitJob(st.specs[j]);
            const rt::NetRun *run = sub.future.get();
            hitUs.push_back(1e6 * sp.close());
            if (sub.served != rt::Engine::Submitted::Served::MemHit ||
                run != st.resident[j])
                tally.fail(key + ": engine lookup was not a memory hit");
        }
        std::vector<double> ms;
        for (int r = 0; r < kRepeats; r++) {
            ScopedSpan sp(log, "serialize", 0, 0);
            rt::JobResult res;
            res.ok = true;
            res.served = "mem";
            res.run = *st.resident[j];
            const std::string frame = serve::makeResultResponse(1, res);
            ms.push_back(1e3 * sp.close());
            kb[j] = frame.size() / 1024.0;
        }
        serMs[j] = median(ms);
    }

    // The estimate tier, on a fresh Estimator over the same bundles (so
    // the bundle load that serve_hits set-up pays is inside the calls).
    std::vector<double> estMs;
    uint64_t answered = 0;
    {
        tango::estimate::Estimator est(
            tango::estimate::Estimator::global().dir());
        for (int pass = 0; pass < 3; pass++) {
            for (size_t j = 0; j < st.specs.size(); j++) {
                if (st.specs[j].tier != rt::Tier::Estimate)
                    continue;
                rt::NetRun run;
                ScopedSpan sp(log, "estimate", 0, 0);
                const bool ok = est.estimate(st.specs[j], run);
                estMs.push_back(1e3 * sp.close());
                answered += ok;
                const std::string &key = st.keys[j];
                if (ok && !(summarize(run) == summarize(*st.resident[j])))
                    tally.fail(key + ": estimate differs from the served "
                                     "estimate");
                else
                    tally.check(ok ? "" : key + ": estimator refused");
            }
        }
    }
    st.server.reset();

    tally.into(out);
    for (const MetricDef &d : perLayerMetrics())
        out.metrics[d.name] = 0.0;
    const std::vector<RequestSample> &all = ts->samples;
    std::vector<double> rtt, rtMs, parse, server;
    for (const RequestSample &s : all) {
        rtt.push_back(s.rttMs);
        rtMs.push_back(s.roundTripMs);
        parse.push_back(s.parseMs);
        server.push_back(s.serverMs);
    }
    auto &m = out.metrics;
    const double rttSum = std::accumulate(rtt.begin(), rtt.end(), 0.0);
    const double serverSum =
        std::accumulate(server.begin(), server.end(), 0.0);
    m["client.requests"] = static_cast<double>(all.size());
    m["client.rtt_p50_ms"] = percentile(rtt, 0.50);
    m["client.rtt_p99_ms"] = percentile(rtt, 0.99);
    m["client.roundtrip_ms"] = mean(rtMs);
    m["client.parse_ms"] = mean(parse);
    m["server.latency_p50_ms"] = percentile(server, 0.50);
    m["server.latency_p99_ms"] = percentile(server, 0.99);
    m["server.rtt_share"] = rttSum > 0 ? serverSum / rttSum : 0.0;
    m["engine.hit_us"] = mean(hitUs);
    m["engine.hit_ratio"] = ts->hits + ts->misses > 0
                                ? ts->hits / (ts->hits + ts->misses)
                                : 0.0;
    double serW = 0, kbW = 0;
    for (size_t j = 0; j < st.specs.size(); j++) {
        serW += counts[j] * serMs[j];
        kbW += counts[j] * kb[j];
        if (st.specs[j].tier == rt::Tier::Sim) {
            m["serialize." + st.specs[j].net + ".ms"] = serMs[j];
            m["response." + st.specs[j].net + ".kb"] = kb[j];
        }
    }
    m["serialize.ms"] = serW / kServeRequests;
    m["response.kb"] = kbW / kServeRequests;
    m["estimate.ms"] = mean(estMs);
    m["estimate.answer_ratio"] =
        estMs.empty() ? 0.0 : double(answered) / estMs.size();
    out.spans = log.spans();
    putSelfTimes(out, serverSum);
    m["trace.overhead_s"] = median(overheads);
    return out;
}

/** The traced run's report: every per-layer metric with its layer's self
 *  time and the end-to-end metric it should move. */
std::string
reportTable(const RunArgs &args, const Outcome &out)
{
    const auto &m = out.metrics;
    const std::map<std::string, double> selfMs = {
        // nn.build, lowering and sim.launch spans have no children, so
        // their self time is their total.
        {"nn", m.at("nn.build_ms")},
        {"runtime.lowering", m.at("lowering.ms")},
        {"sim", 1e3 * m.at("sim.launch_s")},
        {"runtime", m.at("runtime.self_ms")},
        {"runtime.engine", m.at("engine.self_ms")},
        {"serve.protocol",
         m.at("client.self_ms") + m.at("serialize.self_ms")},
        {"serve.server", m.at("server.self_ms")},
        {"estimate", m.at("estimate.self_ms")},
    };
    std::string t;
    char line[256];
    std::snprintf(line, sizeof line, "%-26s %16s %-6s %-17s %12s  %s\n",
                  "per-layer metric", "value", "unit", "layer",
                  "layer self ms", "should move (workload)");
    t += line;
    for (const MetricDef &d : perLayerMetrics()) {
        const bool here =
            ("," + d.workload + ",").find("," + args.workload + ",") !=
            std::string::npos;
        std::string self = "-";
        if (const auto it = selfMs.find(d.layer); it != selfMs.end()) {
            std::snprintf(line, sizeof line, "%.3f", it->second);
            self = line;
        }
        std::snprintf(line, sizeof line,
                      "%-26s %16.6g %-6s %-17s %12s  %s on %s%s\n",
                      d.name.c_str(), m.at(d.name), d.unit.c_str(),
                      d.layer.c_str(), self.c_str(), d.moves.c_str(),
                      d.workload.c_str(), here ? "" : " (not exercised here)");
        t += line;
    }
    std::snprintf(line, sizeof line,
                  "tracing overhead: %.4f s (traced minus untraced round)\n",
                  m.at("trace.overhead_s"));
    t += line;
    return t;
}

} // namespace

unsigned
engineWorkers(const std::string &workload)
{
    return workload == "rnn_replay_cold" ? 1 : 2;
}

std::vector<rt::JobSpec>
jobList(const std::string &workload)
{
    std::vector<rt::JobSpec> out;
    if (workload == "cnn_sweep_cold") {
        // Tango Figs 2 and 15: L1D on/off and GTO vs LRR.  Largest
        // networks first so the two workers pack evenly.
        const std::pair<tango::sim::SchedPolicy, uint32_t> configs[] = {
            {tango::sim::SchedPolicy::GTO, 64 * 1024},
            {tango::sim::SchedPolicy::LRR, 64 * 1024},
            {tango::sim::SchedPolicy::GTO, 0},
        };
        for (const char *net : {"alexnet", "resnet", "mobilenet",
                                "cifarnet"}) {
            for (const auto &[sched, l1d] : configs) {
                rt::JobSpec s;
                s.net = net;
                s.sched = sched;
                s.l1dBytes = l1d;
                out.push_back(s);
            }
        }
    } else if (workload == "rnn_replay_cold") {
        for (const char *net : {"gru", "lstm"}) {
            rt::JobSpec s;
            s.net = net;
            s.policy = "exact";
            s.seqLen = kRnnSeqLen;
            out.push_back(s);
        }
    } else if (workload == "serve_hits") {
        for (const rt::Tier tier : {rt::Tier::Sim, rt::Tier::Estimate}) {
            for (const char *net : kServeNets) {
                rt::JobSpec s;
                s.net = net;
                s.tier = tier;
                out.push_back(s);
            }
        }
    }
    return out;
}

std::vector<uint32_t>
serveComposition(uint32_t n)
{
    const size_t k = jobList("serve_hits").size();
    std::vector<double> w(k);
    for (size_t r = 0; r < k; r++)
        w[r] = 1.0 / (r + 1);
    const double total = std::accumulate(w.begin(), w.end(), 0.0);
    // Largest-remainder rounding keeps the sum exactly n.
    std::vector<uint32_t> counts(k);
    std::vector<std::pair<double, size_t>> rem;
    uint32_t given = 0;
    for (size_t r = 0; r < k; r++) {
        const double exact = n * w[r] / total;
        counts[r] = static_cast<uint32_t>(exact);
        given += counts[r];
        rem.emplace_back(exact - counts[r], r);
    }
    std::sort(rem.begin(), rem.end(), [](const auto &a, const auto &b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (size_t i = 0; given < n; i++, given++)
        counts[rem[i % k].second]++;
    return counts;
}

Outcome
runWorkload(const RunArgs &args, const References &refs)
{
    Outcome out;
    if (args.workload == "serve_hits")
        out = args.trace ? serveTraced(args, refs)
                         : serveUntraced(args, refs);
    else
        out = args.trace ? coldTraced(args, refs) : coldUntraced(args, refs);
    if (args.trace)
        out.report = reportTable(args, out);
    return out;
}

References
recordReferences()
{
    References refs;
    for (const char *wl : kWorkloads) {
        rt::Engine engine(engineOptions(engineWorkers(wl)));
        const auto specs = jobList(wl);
        std::vector<rt::Engine::Submitted> subs;
        for (const auto &s : specs)
            subs.push_back(engine.submitJob(s));
        for (size_t i = 0; i < specs.size(); i++)
            refs[specs[i].cacheKey().str] = summarize(*subs[i].future.get());
    }
    return refs;
}

} // namespace perfbench
