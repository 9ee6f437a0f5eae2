#include "serve/server.hh"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "metrics/metrics.hh"
#include "runtime/run_cache.hh"

namespace tango::serve {

namespace {

/** Process-wide serve instruments.  The registry view is cumulative
 *  across every Server in the process (one, for the daemon); the
 *  per-server Metrics struct remains the stats-reply source so tests
 *  with several servers still see exact per-server counts. */
struct ServeMetrics
{
    metrics::Counter &requests, &invalid, &runRequests, &failures;
    metrics::Counter &rejectQueueFull, &rejectDraining;
    metrics::Counter &servedSim, &servedJoin, &servedMem, &servedDisk;
    metrics::Counter &tierSim, &tierReplay, &tierEstimate;
    metrics::Histogram &latencyUs;

    static ServeMetrics &get()
    {
        static constexpr const char *kRej = "tango_serve_rejects_total";
        static constexpr const char *kRejHelp =
            "Run requests rejected, by reason";
        static constexpr const char *kSrv = "tango_serve_served_total";
        static constexpr const char *kSrvHelp =
            "Run requests served, by how the engine satisfied them";
        static constexpr const char *kTier = "tango_serve_tier_total";
        static constexpr const char *kTierHelp =
            "Admitted run requests by requested accuracy tier";
        static ServeMetrics m{
            metrics::counter("tango_serve_requests_total",
                             "Frames parsed successfully"),
            metrics::counter("tango_serve_invalid_total",
                             "Malformed frames or invalid job specs"),
            metrics::counter("tango_serve_run_requests_total",
                             "Run requests received"),
            metrics::counter("tango_serve_failures_total",
                             "Admitted runs whose simulation threw"),
            metrics::counter(kRej, kRejHelp, {{"reason", "queue_full"}}),
            metrics::counter(kRej, kRejHelp, {{"reason", "draining"}}),
            metrics::counter(kSrv, kSrvHelp, {{"how", "sim"}}),
            metrics::counter(kSrv, kSrvHelp, {{"how", "join"}}),
            metrics::counter(kSrv, kSrvHelp, {{"how", "mem"}}),
            metrics::counter(kSrv, kSrvHelp, {{"how", "disk"}}),
            metrics::counter(kTier, kTierHelp, {{"tier", "sim"}}),
            metrics::counter(kTier, kTierHelp, {{"tier", "replay"}}),
            metrics::counter(kTier, kTierHelp, {{"tier", "estimate"}}),
            metrics::histogram("tango_serve_latency_us",
                               "End-to-end latency of admitted run "
                               "requests in microseconds"),
        };
        return m;
    }
};

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

ServerOptions
ServerOptions::fromEnv()
{
    ServerOptions opt;
    if (const char *h = std::getenv("TANGO_SERVE_HOST"))
        opt.host = h;
    opt.port = static_cast<uint16_t>(envUint("TANGO_SERVE_PORT", 0));
    opt.queueMax =
        static_cast<unsigned>(envUint("TANGO_SERVE_QUEUE_MAX", 32));
    opt.engine = rt::EngineOptions::fromEnv();
    return opt;
}

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)), engine_(opt_.engine)
{
}

Server::~Server()
{
    if (started_) {
        requestDrain();
        waitDrained();
    }
    if (pipeR_ >= 0)
        ::close(pipeR_);
    if (pipeW_ >= 0)
        ::close(pipeW_);
}

bool
Server::start(std::string *err)
{
    const auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
        return false;
    };

    int pipefd[2];
    if (::pipe(pipefd) != 0)
        return fail(std::string("pipe: ") + std::strerror(errno));
    pipeR_ = pipefd[0];
    pipeW_ = pipefd[1];

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail(std::string("socket: ") + std::strerror(errno));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opt_.port);
    if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1)
        return fail("bad host '" + opt_.host + "' (IPv4 dotted quad)");
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        return fail(std::string("bind: ") + std::strerror(errno));
    if (::listen(listenFd_, 64) != 0)
        return fail(std::string("listen: ") + std::strerror(errno));

    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0)
        return fail(std::string("getsockname: ") + std::strerror(errno));
    port_ = ntohs(bound.sin_port);

    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::requestDrain()
{
    if (pipeW_ >= 0) {
        const char c = 'd';
        // A full pipe already has a pending drain byte; ignore.
        (void)!::write(pipeW_, &c, 1);
    }
}

bool
Server::draining() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return draining_;
}

void
Server::waitDrained()
{
    if (!started_ || drained_)
        return;
    acceptThread_.join();
    // The accept thread has shut every connection socket down; the
    // connection threads are unblocking from their reads now.
    std::list<Conn> conns;
    {
        std::unique_lock<std::mutex> lock(mu_);
        conns.swap(conns_);
    }
    for (Conn &c : conns) {
        c.thread.join();
        ::close(c.fd);
    }
    drained_ = true;
    engine_.flush();
}

void
Server::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0}, {pipeR_, POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll: %s", std::strerror(errno));
            break;
        }
        if (fds[1].revents)
            break;   // drain requested
        if (!(fds[0].revents))
            continue;
        const int cfd = ::accept(listenFd_, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: accept: %s", std::strerror(errno));
            break;
        }
        const int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        std::unique_lock<std::mutex> lock(mu_);
        conns_.emplace_back();
        Conn &conn = conns_.back();
        conn.fd = cfd;
        conn.thread = std::thread([this, cfd] { connectionLoop(cfd); });
    }

    // Graceful drain: stop accepting, let every in-flight run request
    // finish (new ones are rejected with "draining"), then unblock the
    // connection threads.
    ::close(listenFd_);
    listenFd_ = -1;
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    cv_.wait(lock, [&] { return activeRuns_ == 0; });
    // SHUT_RD only: blocked reads see EOF and the connection threads
    // exit, but a response frame still being written (activeRuns_ is
    // released just before the write) must flush to the client.
    for (Conn &c : conns_)
        ::shutdown(c.fd, SHUT_RD);
}

void
Server::connectionLoop(int fd)
{
    std::string payload;
    for (;;) {
        const FrameStatus st = readFrame(fd, payload);
        if (st != FrameStatus::Ok)
            break;
        const std::string response = handleRequest(payload);
        if (!writeFrame(fd, response))
            break;
    }
    // The joiner owns close(); shutting down here just releases the
    // peer without risking an fd-reuse race.
    ::shutdown(fd, SHUT_RDWR);
}

std::string
Server::handleRequest(const std::string &payload)
{
    Request req;
    std::string why;
    if (!parseRequest(payload, req, &why)) {
        ServeMetrics::get().invalid.inc();
        std::unique_lock<std::mutex> lock(mu_);
        metrics_.invalid++;
        rt::JobResult res;
        res.ok = false;
        res.error = "bad request: " + why;
        return makeResultResponse(0, res);
    }
    ServeMetrics::get().requests.inc();
    {
        std::unique_lock<std::mutex> lock(mu_);
        metrics_.requests++;
    }
    switch (req.type) {
    case Request::Type::Ping:
        return "{\"type\":\"pong\"}";
    case Request::Type::Stats:
        return statsJson();
    case Request::Type::Metrics:
        // The scrape endpoint: the whole process's metrics registry —
        // serve counters, engine cache/queue state, sim launch mix,
        // estimate fallbacks — as one Prometheus text document.  This
        // is what tango-top and the CI invariants consume.
        return metrics::Registry::global().renderPrometheus();
    case Request::Type::Shutdown:
        requestDrain();
        return "{\"type\":\"ok\",\"draining\":true}";
    case Request::Type::Run:
        return handleRun(req);
    }
    return "{\"type\":\"error\"}";   // unreachable
}

std::string
Server::handleRun(const Request &req)
{
    const double t0 = nowMs();
    rt::JobResult res;
    res.ok = false;

    const auto reject = [&](std::string why) {
        res.error = std::move(why);
        res.served = "reject";
        res.latencyMs = nowMs() - t0;
        return makeResultResponse(req.id, res);
    };

    ServeMetrics::get().runRequests.inc();
    {
        std::unique_lock<std::mutex> lock(mu_);
        metrics_.runRequests++;
        if (draining_) {
            metrics_.rejectedDraining++;
            lock.unlock();
            ServeMetrics::get().rejectDraining.inc();
            return reject("draining");
        }
        activeRuns_++;
    }
    // From here every exit must release activeRuns_ (drain waits on it).
    const auto release = [&] {
        std::unique_lock<std::mutex> lock(mu_);
        if (--activeRuns_ == 0 && draining_)
            cv_.notify_all();
    };

    std::string why = req.job.validate();
    if (why.empty() && req.job.trace)
        why = "traced jobs are not served (use tango-trace locally)";
    if (!why.empty()) {
        ServeMetrics::get().invalid.inc();
        std::unique_lock<std::mutex> lock(mu_);
        metrics_.invalid++;
        lock.unlock();
        release();
        return reject("bad request: " + why);
    }

    rt::Engine::JobFn fn;
    if (opt_.runner) {
        const rt::JobSpec job = req.job;
        auto runner = opt_.runner;
        fn = [runner, job](sim::Gpu &gpu) { return runner(gpu, job); };
    }
    const rt::Engine::Submitted sub =
        engine_.submitJob(req.job, opt_.queueMax, std::move(fn));

    using Served = rt::Engine::Submitted::Served;
    if (sub.served == Served::Rejected) {
        ServeMetrics::get().rejectQueueFull.inc();
        std::unique_lock<std::mutex> lock(mu_);
        metrics_.rejectedQueueFull++;
        lock.unlock();
        release();
        return reject("queue_full");
    }
    ServeMetrics &sm = ServeMetrics::get();
    switch (sub.served) {
    case Served::Simulated: sm.servedSim.inc(); break;
    case Served::Joined: sm.servedJoin.inc(); break;
    case Served::MemHit: sm.servedMem.inc(); break;
    case Served::DiskHit: sm.servedDisk.inc(); break;
    case Served::Rejected: break;
    }
    switch (req.job.tier) {
    case rt::Tier::Sim: sm.tierSim.inc(); break;
    case rt::Tier::Replay: sm.tierReplay.inc(); break;
    case rt::Tier::Estimate: sm.tierEstimate.inc(); break;
    }
    {
        std::unique_lock<std::mutex> lock(mu_);
        switch (sub.served) {
        case Served::Simulated: metrics_.servedSim++; break;
        case Served::Joined: metrics_.servedJoin++; break;
        case Served::MemHit: metrics_.servedMem++; break;
        case Served::DiskHit: metrics_.servedDisk++; break;
        case Served::Rejected: break;
        }
        switch (req.job.tier) {
        case rt::Tier::Sim: metrics_.tierSim++; break;
        case rt::Tier::Replay: metrics_.tierReplay++; break;
        case rt::Tier::Estimate: metrics_.tierEstimate++; break;
        }
    }

    const std::string *body = nullptr;
    try {
        body = &runJson(*sub.future.get());
        res.ok = true;
        res.served = sub.served == Served::Simulated ? "sim"
                     : sub.served == Served::Joined  ? "join"
                     : sub.served == Served::MemHit  ? "mem"
                                                     : "disk";
    } catch (const std::exception &e) {
        ServeMetrics::get().failures.inc();
        std::unique_lock<std::mutex> lock(mu_);
        metrics_.failures++;
        res.error = std::string("simulation failed: ") + e.what();
    }
    res.latencyMs = nowMs() - t0;
    recordLatency(res.latencyMs);
    release();
    return makeResultResponse(req.id, res, body);
}

const std::string &
Server::runJson(const rt::NetRun &run)
{
    Body *b = nullptr;
    {
        std::unique_lock<std::mutex> lock(bodiesMu_);
        b = &bodies_[&run];   // node-based: the address stays valid
    }
    // Serialize outside the map lock; concurrent first responses for
    // the same result (joins) wait here for the one serialization.
    std::call_once(b->once, [&] { b->json = rt::serializeNetRun(run); });
    return b->json;
}

void
Server::recordLatency(double ms)
{
    // Lock-free: two relaxed atomic adds per histogram.  Every request
    // is recorded — the old fixed sample ring (and its whole-history
    // bias once full) is gone.
    const uint64_t us = ms > 0 ? static_cast<uint64_t>(ms * 1000.0) : 0;
    latencyUs_.observe(us);
    ServeMetrics::get().latencyUs.observe(us);
}

Server::Metrics
Server::metrics() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return metrics_;
}

std::string
Server::statsJson() const
{
    const rt::Engine::CacheStats cache = engine_.cacheStats();
    const unsigned depth = engine_.inFlightSims();

    Metrics m;
    bool draining;
    {
        std::unique_lock<std::mutex> lock(mu_);
        m = metrics_;
        draining = draining_;
    }
    const metrics::HistogramSnapshot lat = latencyUs_.snapshot();

    const uint64_t lookups = cache.memHits + cache.diskHits + cache.misses;
    const double hitRate =
        lookups ? double(cache.memHits + cache.diskHits) / double(lookups)
                : 0.0;

    std::string out;
    json::ObjWriter o(out);
    o.str("type", "stats");
    o.u64("requests", m.requests);
    o.u64("invalid", m.invalid);
    o.u64("run_requests", m.runRequests);
    o.u64("rejected_queue_full", m.rejectedQueueFull);
    o.u64("rejected_draining", m.rejectedDraining);
    o.u64("served_sim", m.servedSim);
    o.u64("served_join", m.servedJoin);
    o.u64("served_mem", m.servedMem);
    o.u64("served_disk", m.servedDisk);
    o.u64("failures", m.failures);
    o.u64("tier_sim", m.tierSim);
    o.u64("tier_replay", m.tierReplay);
    o.u64("tier_estimate", m.tierEstimate);
    o.u64("cache_mem_hits", cache.memHits);
    o.u64("cache_disk_hits", cache.diskHits);
    o.u64("cache_misses", cache.misses);
    o.num("cache_hit_rate", hitRate);
    o.u64("queue_depth", depth);
    o.u64("queue_max", opt_.queueMax);
    o.boolean("draining", draining);
    o.key("latency_ms");
    {
        // Percentiles are exact log2-bucket upper bounds (≤12.5%
        // resolution error) over EVERY run this server served.
        json::ObjWriter l(out);
        l.u64("count", lat.count());
        l.num("p50", double(lat.percentileUpper(0.50)) / 1000.0);
        l.num("p99", double(lat.percentileUpper(0.99)) / 1000.0);
        l.close();
    }
    o.close();
    return out;
}

} // namespace tango::serve
