/**
 * @file
 * tango::metrics — the process-wide runtime metrics registry.
 *
 * Every runtime layer (rt::Engine, serve::Server, sim::Gpu, the
 * estimate tier) records its operational counters here, so one scrape
 * shows the whole serving picture: request mix, cache effectiveness,
 * launch memoization, queue depth, latency percentiles.  Three
 * instrument kinds:
 *
 *  - Counter   — monotonic uint64 (requests served, cache misses);
 *  - Gauge     — signed level that moves both ways (in-flight sims);
 *  - Histogram — fixed log2-bucket value distribution (latencies,
 *                sim wall times).  Buckets are powers of two split
 *                into 8 linear sub-buckets, so every reported
 *                percentile is an exact bucket bound within 12.5% of
 *                the true sample.
 *
 * Hot-path updates are single relaxed atomic RMWs — no locks, no
 * allocation, safe from any thread (the sim worker pool, per-connection
 * serve threads).  Readers snapshot bucket arrays value-by-value and
 * merge snapshots; merging is associative and exact (integer adds), so
 * per-shard or per-interval snapshots compose.
 *
 * Exposition: renderPrometheus() (text format v0.0.4; the serve
 * protocol's "metrics" frame and tango-top consume this) and
 * renderJson() (the TANGO_METRICS_DUMP periodic snapshot file, and
 * what tango-load embeds into BENCH_serve.json).
 */

#ifndef TANGO_METRICS_METRICS_HH
#define TANGO_METRICS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace tango::metrics {

/** One `key="value"` instrument label. */
using Label = std::pair<std::string, std::string>;
using Labels = std::vector<Label>;

/**
 * A monotonically increasing counter.  One built with a @p total (a
 * registry series) is a per-instance instrument: every inc() also adds
 * to the total, so an event is counted once, at one site, yet shows both
 * in its owner's view (one Server, one Engine) and in the process-wide
 * scrape.  Registry instruments have no total.
 */
class Counter
{
  public:
    Counter() = default;
    explicit Counter(Counter *total) : total_(total) {}

    void inc(uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
        if (total_)
            total_->inc(n);
    }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
    Counter *const total_ = nullptr;
};

/** A level that can move both ways (queue depths, in-flight work). */
class Gauge
{
  public:
    void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    void sub(int64_t n = 1) { v_.fetch_sub(n, std::memory_order_relaxed); }
    int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v_{0};
};

/**
 * The fixed log2 bucket layout shared by every Histogram: values
 * 0..7 get exact one-value buckets (group 0); each later group g
 * covers [2^(g+2), 2^(g+3)) split into 8 equal sub-buckets of width
 * 2^(g-1).  The layout is a compile-time constant, which is what makes
 * snapshot merging exact and percentile bounds honest: a reported
 * percentile is the upper bound of the bucket holding the rank-p
 * sample, never an interpolation.
 */
struct Buckets
{
    static constexpr unsigned kSubBits = 3;
    static constexpr unsigned kSub = 1u << kSubBits;   // 8 sub-buckets
    static constexpr unsigned kGroups = 44;
    static constexpr unsigned kCount = kGroups * kSub;  // 352 buckets

    /** The bucket @p v falls into (values beyond the last bucket clamp
     *  into it). */
    static unsigned index(uint64_t v);
    /** Smallest / largest value bucket @p idx holds. */
    static uint64_t lower(unsigned idx);
    static uint64_t upper(unsigned idx);
};

/** A point-in-time copy of one histogram; merge() composes them. */
struct HistogramSnapshot
{
    std::vector<uint64_t> buckets;   ///< kCount entries (empty = zero)
    uint64_t sum = 0;                ///< sum of observed values

    uint64_t count() const;
    /** Add @p other in (associative, exact integer arithmetic). */
    void merge(const HistogramSnapshot &other);

    /** Upper / lower bound of the bucket holding the rank-⌈p·count⌉
     *  sample (0 when empty).  The true percentile lies in
     *  [percentileLower(p), percentileUpper(p)] — pinned by
     *  test_metrics. */
    double percentileUpper(double p) const;
    double percentileLower(double p) const;
};

/** A fixed-log2-bucket histogram over non-negative integer values
 *  (microseconds, milliseconds — the name carries the unit).  Like a
 *  Counter, one built with a @p total also observes into it. */
class Histogram
{
  public:
    explicit Histogram(Histogram *total = nullptr);

    void observe(uint64_t v)
    {
        buckets_[Buckets::index(v)].fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        if (total_)
            total_->observe(v);
    }

    HistogramSnapshot snapshot() const;

  private:
    std::atomic<uint64_t> buckets_[Buckets::kCount];
    std::atomic<uint64_t> sum_{0};
    Histogram *const total_;
};

/**
 * The instrument registry.  Registration (counter()/gauge()/histogram())
 * takes a mutex and interns by (family name, labels) — re-registering
 * returns the SAME instrument, so call sites can hold references in
 * function-local statics and update lock-free forever after.
 * Instruments live as long as the registry; global() is leaked (like
 * rt::Engine::global()) so instruments stay valid during exit.
 */
class Registry
{
  public:
    Registry();   // out of line: members need the full Instrument type
    ~Registry();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter &counter(const std::string &name, const std::string &help,
                     const Labels &labels = {});
    Gauge &gauge(const std::string &name, const std::string &help,
                 const Labels &labels = {});
    Histogram &histogram(const std::string &name, const std::string &help,
                         const Labels &labels = {});

    /** Prometheus text exposition (HELP/TYPE per family, cumulative
     *  `_bucket{le=...}` + `_sum` + `_count` per histogram). */
    std::string renderPrometheus() const;

    /** One JSON object: {"counters":{series:value},"gauges":{...},
     *  "histograms":{series:{count,sum,p50,p99,buckets:[[le,n],...]}}}. */
    std::string renderJson() const;

    /** Start a background thread writing renderJson() to @p path every
     *  @p periodMs (atomic tmp+rename).  stopDumper() joins it. */
    void startDumper(const std::string &path, uint64_t periodMs);
    void stopDumper();
    /** Write one snapshot to the dumper path now (no-op when no dumper
     *  was started). */
    void dumpNow();

    /** The process-wide registry.  First use honours
     *  TANGO_METRICS_DUMP=<path>,<ms> by starting the dumper. */
    static Registry &global();

  private:
    struct Instrument;
    Instrument &intern(const std::string &name, const std::string &help,
                       const Labels &labels, int kind);
    void dumperLoop();
    void writeSnapshot() const;

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Instrument>> instruments_;

    std::thread dumper_;
    std::atomic<bool> dumperStop_{false};
    std::string dumpPath_;
    uint64_t dumpPeriodMs_ = 0;
    mutable std::mutex dumpMu_;   ///< serializes snapshot file writes
};

// Convenience forwarders onto Registry::global() — what instrumentation
// sites use:
//   static auto &hits = metrics::counter("tango_engine_cache_total",
//                                        "...", {{"result", "mem_hit"}});
Counter &counter(const std::string &name, const std::string &help,
                 const Labels &labels = {});
Gauge &gauge(const std::string &name, const std::string &help,
             const Labels &labels = {});
Histogram &histogram(const std::string &name, const std::string &help,
                     const Labels &labels = {});

} // namespace tango::metrics

#endif // TANGO_METRICS_METRICS_HH
