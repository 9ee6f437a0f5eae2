/**
 * @file
 * In-memory spans for the traced run.  The benchmark opens a span around
 * each public call it makes into a tango module; spans of one job or
 * request share a group id.  Nothing is written until the run ends.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    uint64_t id = 0;       ///< 1-based; 0 means "no span"
    uint64_t parent = 0;   ///< 0 for a root span
    uint64_t group = 0;    ///< the job or request the span belongs to
    std::string name;
    double start = 0.0;    ///< seconds since the log was created
    double end = 0.0;
};

/** A thread-safe span recorder. */
class SpanLog
{
  public:
    SpanLog() : t0_(std::chrono::steady_clock::now()) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** Open a span now; close() may run on another thread. */
    uint64_t open(const std::string &name, uint64_t parent, uint64_t group);
    /** Close span @p id now.  @return its duration in seconds. */
    double close(uint64_t id);

    /** @return a copy of every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    double now() const;

    const std::chrono::steady_clock::time_point t0_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;   ///< spans_[id - 1]
};

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, uint64_t parent,
               uint64_t group)
        : log_(log), id_(log.open(name, parent, group))
    {
    }
    ~ScopedSpan() { close(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return id_; }

    /** Close early.  @return the duration in seconds. */
    double close()
    {
        if (!closed_) {
            seconds_ = log_.close(id_);
            closed_ = true;
        }
        return seconds_;
    }

  private:
    SpanLog &log_;
    const uint64_t id_;
    bool closed_ = false;
    double seconds_ = 0.0;
};

/** Totals per span name. */
struct NameTotals
{
    uint64_t count = 0;
    double seconds = 0.0;       ///< summed durations
    double selfSeconds = 0.0;   ///< summed self times
};

/** Sum spans by name.  A span's self time is its duration minus the part
 *  of its interval that its child spans cover. */
std::map<std::string, NameTotals> totalsByName(const std::vector<Span> &spans);

/** Spans as one JSON array (the traced run's span dump). */
std::string spansToJson(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
