/**
 * @file
 * serve::Server — the tango-serve daemon core.
 *
 * A Server listens on TCP, speaks the framed protocol of
 * serve/protocol.hh, and fronts one rt::Engine: every run request
 * becomes an Engine::submitJob() under the job's canonical cache key.
 * That single design choice buys the production properties for free:
 *
 *  - in-flight dedup: the Engine slot map IS the dedup table — N
 *    clients submitting the same cold JobSpec trigger exactly one
 *    simulation, and all N block on its shared future;
 *  - warm serving: repeat jobs are memory (or disk-spill) hits and
 *    return in microseconds — each resident NetRun is serialized once,
 *    on its first served response, and later responses splice that
 *    body into their envelope (no NetRun copy, no re-serialization);
 *  - backpressure: admission is bounded — a run request that would
 *    start a NEW simulation while queueMax are already in flight is
 *    rejected with a "queue_full" error result (hits and joins are
 *    always admitted).
 *
 * Threading: one accept thread plus one thread per connection, each
 * handling its connection's requests sequentially (clients get
 * concurrency by opening more connections).  Graceful drain
 * (requestDrain(), a shutdown request, or — in tango_serve.cc — a
 * SIGTERM via the self-pipe drainFd()): stop accepting, finish every
 * in-flight run request, answer later run requests with a "draining"
 * reject, then close all connections and return from waitDrained().
 */

#ifndef TANGO_SERVE_SERVER_HH
#define TANGO_SERVE_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "metrics/metrics.hh"
#include "runtime/engine.hh"
#include "serve/protocol.hh"

namespace tango::serve {

struct ServerOptions
{
    std::string host = "127.0.0.1";
    /** TCP port; 0 = ephemeral (read the bound port from port()). */
    uint16_t port = 0;
    /** Max simulations in flight before new (non-dedupable) run
     *  requests are rejected with "queue_full". */
    unsigned queueMax = 32;
    /** The fronted Engine's knobs (worker pool, disk spill). */
    rt::EngineOptions engine;
    /** Test seam: replaces the standard job body runJob(gpu, spec). */
    std::function<rt::NetRun(sim::Gpu &, const rt::JobSpec &)> runner;

    /** Read TANGO_SERVE_PORT / TANGO_SERVE_QUEUE_MAX (strict integers,
     *  see envUint) and rt::EngineOptions::fromEnv(). */
    static ServerOptions fromEnv();
};

class Server
{
  public:
    explicit Server(ServerOptions opt = {});

    /** Drains (abandoning nothing in flight) and joins every thread. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and start accepting.  @return false with @p err on
     *  bind failure (port in use, bad host). */
    bool start(std::string *err = nullptr);

    /** The bound port (the real one when options asked for 0). */
    uint16_t port() const { return port_; }

    /** Begin graceful drain from thread context. */
    void requestDrain();

    /** Write end of the drain self-pipe: a signal handler write()s one
     *  byte here to trigger drain (async-signal-safe; this is the ONLY
     *  server entry point a handler may touch). */
    int drainFd() const { return pipeW_; }

    /** Block until drain completes and all connections are closed.
     *  Returns immediately if start() was never called. */
    void waitDrained();

    bool draining() const;

    /** The fronted engine (tests inspect its cacheStats()). */
    rt::Engine &engine() { return engine_; }

    /** Counter snapshot (also served as the "stats" response). */
    struct Metrics
    {
        uint64_t requests = 0;          ///< frames parsed OK
        uint64_t invalid = 0;           ///< malformed frames/specs
        uint64_t runRequests = 0;
        uint64_t rejectedQueueFull = 0;
        uint64_t rejectedDraining = 0;
        uint64_t servedSim = 0;
        uint64_t servedJoin = 0;        ///< dedup onto in-flight job
        uint64_t servedMem = 0;
        uint64_t servedDisk = 0;
        uint64_t failures = 0;          ///< simulations that threw
        // Admitted run requests by requested tier (JobSpec::tier).
        uint64_t tierSim = 0;
        uint64_t tierEstimate = 0;
    };
    Metrics metrics() const;

    /** The "stats" response payload: metrics, cache hit rate, queue
     *  depth and service-time percentiles as one JSON object.  The
     *  p50/p99 values are exact log2-bucket upper bounds from the
     *  run-latency histogram (metrics.hh), aggregated over every
     *  request this server ever served — no sample ring, no cap. */
    std::string statsJson() const;

  private:
    struct Conn
    {
        int fd = -1;
        std::thread thread;
    };

    void acceptLoop();
    void connectionLoop(int fd);
    std::string handleRequest(const std::string &payload);
    std::string handleRun(const Request &req);
    const std::string &runJson(const rt::NetRun &run);
    void recordLatency(double ms);

    ServerOptions opt_;
    rt::Engine engine_;

    int listenFd_ = -1;
    int pipeR_ = -1, pipeW_ = -1;   ///< drain self-pipe
    uint16_t port_ = 0;
    std::thread acceptThread_;
    bool started_ = false;
    bool drained_ = false;   ///< waitDrained() already completed

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::list<Conn> conns_;
    bool draining_ = false;
    unsigned activeRuns_ = 0;   ///< run requests being served right now
    Metrics metrics_;
    /** End-to-end run-request latency (µs).  Per-server (the stats
     *  reply is this server's view); the process-wide registry carries
     *  a second copy under tango_serve_latency_us for scrapes. */
    metrics::Histogram latencyUs_;

    /** serializeNetRun() of a resident result, built at most once. */
    struct Body
    {
        std::once_flag once;
        std::string json;
    };
    /** Keyed by the Engine's result address, which is stable and never
     *  reused while engine_ lives: entries share the NetRun's lifetime.
     *  Grows by one body per resident result that has been served. */
    std::mutex bodiesMu_;
    std::unordered_map<const rt::NetRun *, Body> bodies_;
};

} // namespace tango::serve

#endif // TANGO_SERVE_SERVER_HH
