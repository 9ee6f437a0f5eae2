#include "metrics/metrics.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/json.hh"
#include "common/logging.hh"

namespace tango::metrics {

// ----------------------------------------------------------------- Buckets

unsigned
Buckets::index(uint64_t v)
{
    if (v < kSub)
        return static_cast<unsigned>(v);
    const unsigned e = 63 - static_cast<unsigned>(std::countl_zero(v));
    const unsigned g = e - kSubBits + 1;
    const unsigned sub =
        static_cast<unsigned>((v >> (e - kSubBits)) & (kSub - 1));
    const unsigned idx = g * kSub + sub;
    return idx < kCount ? idx : kCount - 1;
}

uint64_t
Buckets::lower(unsigned idx)
{
    const unsigned g = idx / kSub, sub = idx % kSub;
    if (g == 0)
        return sub;
    return static_cast<uint64_t>(kSub + sub) << (g - 1);
}

uint64_t
Buckets::upper(unsigned idx)
{
    const unsigned g = idx / kSub;
    if (g == 0)
        return lower(idx);
    return lower(idx) + ((uint64_t(1) << (g - 1)) - 1);
}

// ------------------------------------------------------- HistogramSnapshot

uint64_t
HistogramSnapshot::count() const
{
    uint64_t n = 0;
    for (uint64_t b : buckets)
        n += b;
    return n;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (buckets.empty())
        buckets.assign(Buckets::kCount, 0);
    for (size_t i = 0; i < other.buckets.size(); i++)
        buckets[i] += other.buckets[i];
    sum += other.sum;
}

namespace {

/** Index of the bucket holding the rank-⌈p·count⌉ sample, or -1. */
int
percentileBucket(const HistogramSnapshot &s, double p)
{
    const uint64_t n = s.count();
    if (n == 0)
        return -1;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(std::clamp(p, 0.0, 1.0) * double(n)));
    rank = std::clamp<uint64_t>(rank, 1, n);
    uint64_t cum = 0;
    for (size_t i = 0; i < s.buckets.size(); i++) {
        cum += s.buckets[i];
        if (cum >= rank)
            return static_cast<int>(i);
    }
    return static_cast<int>(s.buckets.size()) - 1;   // unreachable
}

} // namespace

double
HistogramSnapshot::percentileUpper(double p) const
{
    const int idx = percentileBucket(*this, p);
    return idx < 0 ? 0.0 : double(Buckets::upper(unsigned(idx)));
}

double
HistogramSnapshot::percentileLower(double p) const
{
    const int idx = percentileBucket(*this, p);
    return idx < 0 ? 0.0 : double(Buckets::lower(unsigned(idx)));
}

// --------------------------------------------------------------- Histogram

Histogram::Histogram(Histogram *total) : total_(total)
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    s.buckets.resize(Buckets::kCount);
    for (unsigned i = 0; i < Buckets::kCount; i++)
        s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
}

// ---------------------------------------------------------------- Registry

struct Registry::Instrument
{
    enum Kind { KCounter, KGauge, KHistogram };

    std::string name;    ///< family name (no labels)
    std::string help;
    Labels labels;       ///< sorted by key
    int kind = KCounter;

    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;   ///< KHistogram only (big)

    /** `name{k="v",...}` series id (just the name when unlabeled). */
    std::string seriesId(const Labels &extra = {}) const
    {
        std::string out = name;
        if (labels.empty() && extra.empty())
            return out;
        out += '{';
        bool first = true;
        for (const Labels *ls : {&labels, &extra}) {
            for (const auto &[k, v] : *ls) {
                if (!first)
                    out += ',';
                first = false;
                out += k;
                out += "=\"";
                for (char c : v) {   // minimal escaping, \ and "
                    if (c == '\\' || c == '"')
                        out += '\\';
                    out += c;
                }
                out += '"';
            }
        }
        out += '}';
        return out;
    }
};

Registry::Registry() = default;

Registry::~Registry()
{
    stopDumper();
}

Registry::Instrument &
Registry::intern(const std::string &name, const std::string &help,
                 const Labels &labels, int kind)
{
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &ins : instruments_) {
        if (ins->name == name && ins->labels == sorted) {
            if (ins->kind != kind)
                panic("metrics: instrument '%s' re-registered as a "
                      "different kind", name.c_str());
            return *ins;
        }
        if (ins->name == name && ins->kind != kind)
            panic("metrics: family '%s' mixes instrument kinds",
                  name.c_str());
    }
    auto ins = std::make_unique<Instrument>();
    ins->name = name;
    ins->help = help;
    ins->labels = std::move(sorted);
    ins->kind = kind;
    if (kind == Instrument::KHistogram)
        ins->histogram = std::make_unique<Histogram>();
    instruments_.push_back(std::move(ins));
    return *instruments_.back();
}

Counter &
Registry::counter(const std::string &name, const std::string &help,
                  const Labels &labels)
{
    return intern(name, help, labels, Instrument::KCounter).counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help,
                const Labels &labels)
{
    return intern(name, help, labels, Instrument::KGauge).gauge;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help,
                    const Labels &labels)
{
    return *intern(name, help, labels, Instrument::KHistogram).histogram;
}

namespace {

void
appendNumber(std::string &out, double v)
{
    char buf[32];
    // Counters/bucket counts are integers; print them as such so the
    // text round-trips exactly.
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15)
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

} // namespace

std::string
Registry::renderPrometheus() const
{
    // Stable output: families sorted by name, series in registration
    // order within a family, HELP/TYPE emitted once per family.
    std::vector<const Instrument *> sorted;
    {
        std::lock_guard<std::mutex> lock(mu_);
        sorted.reserve(instruments_.size());
        for (const auto &ins : instruments_)
            sorted.push_back(ins.get());
    }
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Instrument *a, const Instrument *b) {
                         return a->name < b->name;
                     });

    std::string out;
    const std::string *lastFamily = nullptr;
    for (const Instrument *ins : sorted) {
        if (!lastFamily || *lastFamily != ins->name) {
            lastFamily = &ins->name;
            out += "# HELP " + ins->name + " " + ins->help + "\n";
            out += "# TYPE " + ins->name + " ";
            out += ins->kind == Instrument::KCounter   ? "counter"
                   : ins->kind == Instrument::KGauge   ? "gauge"
                                                       : "histogram";
            out += '\n';
        }
        switch (ins->kind) {
        case Instrument::KCounter:
            out += ins->seriesId();
            out += ' ';
            appendNumber(out, double(ins->counter.value()));
            out += '\n';
            break;
        case Instrument::KGauge:
            out += ins->seriesId();
            out += ' ';
            appendNumber(out, double(ins->gauge.value()));
            out += '\n';
            break;
        case Instrument::KHistogram: {
            const HistogramSnapshot s = ins->histogram->snapshot();
            // Cumulative buckets; empty buckets are elided (their le
            // boundary adds no information) except +Inf, which is
            // mandatory and equals _count.
            Instrument bucketIns = {};
            bucketIns.name = ins->name + "_bucket";
            bucketIns.labels = ins->labels;
            uint64_t cum = 0;
            for (unsigned i = 0; i < s.buckets.size(); i++) {
                if (s.buckets[i] == 0)
                    continue;
                cum += s.buckets[i];
                out += bucketIns.seriesId(
                    {{"le", std::to_string(Buckets::upper(i))}});
                out += ' ';
                appendNumber(out, double(cum));
                out += '\n';
            }
            out += bucketIns.seriesId({{"le", "+Inf"}});
            out += ' ';
            appendNumber(out, double(cum));
            out += '\n';
            Instrument aux = {};
            aux.labels = ins->labels;
            aux.name = ins->name + "_sum";
            out += aux.seriesId();
            out += ' ';
            appendNumber(out, double(s.sum));
            out += '\n';
            aux.name = ins->name + "_count";
            out += aux.seriesId();
            out += ' ';
            appendNumber(out, double(cum));
            out += '\n';
            break;
        }
        }
    }
    return out;
}

std::string
Registry::renderJson() const
{
    std::vector<const Instrument *> all;
    {
        std::lock_guard<std::mutex> lock(mu_);
        all.reserve(instruments_.size());
        for (const auto &ins : instruments_)
            all.push_back(ins.get());
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Instrument *a, const Instrument *b) {
                         return a->name < b->name;
                     });

    std::string out;
    json::ObjWriter o(out);
    for (int kind : {Instrument::KCounter, Instrument::KGauge,
                     Instrument::KHistogram}) {
        o.key(kind == Instrument::KCounter   ? "counters"
              : kind == Instrument::KGauge   ? "gauges"
                                             : "histograms");
        json::ObjWriter section(out);
        for (const Instrument *ins : all) {
            if (ins->kind != kind)
                continue;
            const std::string series = ins->seriesId();
            switch (kind) {
            case Instrument::KCounter:
                section.u64(series.c_str(), ins->counter.value());
                break;
            case Instrument::KGauge:
                section.num(series.c_str(), double(ins->gauge.value()));
                break;
            case Instrument::KHistogram: {
                const HistogramSnapshot s = ins->histogram->snapshot();
                section.key(series.c_str());
                json::ObjWriter h(out);
                h.u64("count", s.count());
                h.u64("sum", s.sum);
                h.num("p50", s.percentileUpper(0.50));
                h.num("p99", s.percentileUpper(0.99));
                h.key("buckets");
                out += '[';
                bool first = true;
                for (unsigned i = 0; i < s.buckets.size(); i++) {
                    if (s.buckets[i] == 0)
                        continue;
                    if (!first)
                        out += ',';
                    first = false;
                    out += '[';
                    json::appendU64(out, Buckets::upper(i));
                    out += ',';
                    json::appendU64(out, s.buckets[i]);
                    out += ']';
                }
                out += ']';
                h.close();
                break;
            }
            }
        }
        section.close();
    }
    o.close();
    return out;
}

// ------------------------------------------------------------------ dumper

void
Registry::writeSnapshot() const
{
    std::lock_guard<std::mutex> lock(dumpMu_);
    const std::string tmp = dumpPath_ + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        warn("metrics: cannot write snapshot '%s': %s", tmp.c_str(),
             std::strerror(errno));
        return;
    }
    const std::string body = renderJson();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    if (std::rename(tmp.c_str(), dumpPath_.c_str()) != 0)
        warn("metrics: cannot rename snapshot onto '%s': %s",
             dumpPath_.c_str(), std::strerror(errno));
}

void
Registry::dumperLoop()
{
    using namespace std::chrono;
    auto next = steady_clock::now() + milliseconds(dumpPeriodMs_);
    while (!dumperStop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(milliseconds(
            std::min<uint64_t>(dumpPeriodMs_, 50)));
        if (steady_clock::now() < next)
            continue;
        next = steady_clock::now() + milliseconds(dumpPeriodMs_);
        writeSnapshot();
    }
    writeSnapshot();   // final state on clean stop
}

void
Registry::startDumper(const std::string &path, uint64_t periodMs)
{
    if (dumper_.joinable())
        return;   // already running
    dumpPath_ = path;
    dumpPeriodMs_ = periodMs ? periodMs : 1000;
    dumperStop_.store(false, std::memory_order_release);
    dumper_ = std::thread([this] { dumperLoop(); });
}

void
Registry::stopDumper()
{
    if (!dumper_.joinable())
        return;
    dumperStop_.store(true, std::memory_order_release);
    dumper_.join();
}

void
Registry::dumpNow()
{
    if (!dumpPath_.empty())
        writeSnapshot();
}

Registry &
Registry::global()
{
    // Leaked like Engine::global(): instruments must outlive any worker
    // thread still bumping counters while exit() runs static dtors.
    static Registry *g = [] {
        Registry *r = new Registry();
        if (const char *env = std::getenv("TANGO_METRICS_DUMP")) {
            const std::string spec = env;
            const size_t comma = spec.rfind(',');
            uint64_t ms = 0;
            bool ok = comma != std::string::npos && comma > 0 &&
                      comma + 1 < spec.size();
            if (ok) {
                for (size_t i = comma + 1; i < spec.size(); i++) {
                    if (spec[i] < '0' || spec[i] > '9') {
                        ok = false;
                        break;
                    }
                    ms = ms * 10 + uint64_t(spec[i] - '0');
                }
            }
            if (!ok)
                fatal("TANGO_METRICS_DUMP='%s': expected <path>,<ms>",
                      spec.c_str());
            r->startDumper(spec.substr(0, comma), ms);
            std::atexit([] { Registry::global().dumpNow(); });
        }
        return r;
    }();
    return *g;
}

Counter &
counter(const std::string &name, const std::string &help,
        const Labels &labels)
{
    return Registry::global().counter(name, help, labels);
}

Gauge &
gauge(const std::string &name, const std::string &help, const Labels &labels)
{
    return Registry::global().gauge(name, help, labels);
}

Histogram &
histogram(const std::string &name, const std::string &help,
          const Labels &labels)
{
    return Registry::global().histogram(name, help, labels);
}

} // namespace tango::metrics
