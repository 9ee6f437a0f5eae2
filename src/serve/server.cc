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

// The labelled tango_serve_* families, one series per label value.
metrics::Counter &
rejects(const char *reason)
{
    return metrics::counter("tango_serve_rejects_total",
                            "Run requests rejected, by reason",
                            {{"reason", reason}});
}

metrics::Counter &
served(const char *how)
{
    return metrics::counter(
        "tango_serve_served_total",
        "Run requests served, by how the engine satisfied them",
        {{"how", how}});
}

metrics::Counter &
tier(const char *name)
{
    return metrics::counter("tango_serve_tier_total",
                            "Admitted run requests by requested accuracy "
                            "tier",
                            {{"tier", name}});
}

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

Server::Counters::Counters()
    : requests(&metrics::counter("tango_serve_requests_total",
                                 "Frames parsed successfully")),
      invalid(&metrics::counter("tango_serve_invalid_total",
                                "Malformed frames or invalid job specs")),
      runRequests(&metrics::counter("tango_serve_run_requests_total",
                                    "Run requests received")),
      rejectedQueueFull(&rejects("queue_full")),
      rejectedDraining(&rejects("draining")),
      servedSim(&served("sim")), servedJoin(&served("join")),
      servedMem(&served("mem")), servedDisk(&served("disk")),
      failures(&metrics::counter("tango_serve_failures_total",
                                 "Admitted runs whose simulation threw")),
      tierSim(&tier("sim")), tierEstimate(&tier("estimate")),
      latencyUs(&metrics::histogram("tango_serve_latency_us",
                                    "End-to-end latency of admitted run "
                                    "requests in microseconds"))
{
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
        counters_.invalid.inc();
        rt::JobResult res;
        res.ok = false;
        res.error = "bad request: " + why;
        return makeResultResponse(0, res);
    }
    counters_.requests.inc();
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

    counters_.runRequests.inc();
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (draining_) {
            lock.unlock();
            counters_.rejectedDraining.inc();
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
        counters_.invalid.inc();
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
        counters_.rejectedQueueFull.inc();
        release();
        return reject("queue_full");
    }
    switch (sub.served) {
    case Served::Simulated: counters_.servedSim.inc(); break;
    case Served::Joined: counters_.servedJoin.inc(); break;
    case Served::MemHit: counters_.servedMem.inc(); break;
    case Served::DiskHit: counters_.servedDisk.inc(); break;
    case Served::Rejected: break;
    }
    switch (req.job.tier) {
    case rt::Tier::Sim: counters_.tierSim.inc(); break;
    case rt::Tier::Estimate: counters_.tierEstimate.inc(); break;
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
        counters_.failures.inc();
        res.error = std::string("simulation failed: ") + e.what();
    }
    res.latencyMs = nowMs() - t0;
    // Lock-free, and every request is recorded (no sample ring).
    counters_.latencyUs.observe(
        res.latencyMs > 0 ? static_cast<uint64_t>(res.latencyMs * 1000.0)
                          : 0);
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

std::string
Server::statsJson() const
{
    const Counters &m = counters_;
    const rt::Engine::Counters &cache = engine_.counters();
    const uint64_t memHits = cache.memHits.value();
    const uint64_t diskHits = cache.diskHits.value();
    const uint64_t misses = cache.misses.value();
    const unsigned depth = engine_.inFlightSims();
    const bool draining = this->draining();
    const metrics::HistogramSnapshot lat = m.latencyUs.snapshot();

    const uint64_t lookups = memHits + diskHits + misses;
    const double hitRate =
        lookups ? double(memHits + diskHits) / double(lookups) : 0.0;

    std::string out;
    json::ObjWriter o(out);
    o.str("type", "stats");
    o.u64("requests", m.requests.value());
    o.u64("invalid", m.invalid.value());
    o.u64("run_requests", m.runRequests.value());
    o.u64("rejected_queue_full", m.rejectedQueueFull.value());
    o.u64("rejected_draining", m.rejectedDraining.value());
    o.u64("served_sim", m.servedSim.value());
    o.u64("served_join", m.servedJoin.value());
    o.u64("served_mem", m.servedMem.value());
    o.u64("served_disk", m.servedDisk.value());
    o.u64("failures", m.failures.value());
    o.u64("tier_sim", m.tierSim.value());
    o.u64("tier_estimate", m.tierEstimate.value());
    o.u64("cache_mem_hits", memHits);
    o.u64("cache_disk_hits", diskHits);
    o.u64("cache_misses", misses);
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
