#include "spans.hh"

#include <algorithm>
#include <unordered_map>

#include "common/json.hh"

namespace perfbench {

double
SpanLog::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
}

uint64_t
SpanLog::open(const std::string &name, uint64_t parent, uint64_t group)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.group = group;
    s.name = name;
    s.start = t;
    s.end = t;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

double
SpanLog::close(uint64_t id)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    Span &s = spans_.at(id - 1);
    s.end = t;
    return s.end - s.start;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, NameTotals>
totalsByName(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
        children;
    for (const Span &s : spans) {
        if (s.parent)
            children[s.parent].emplace_back(s.start, s.end);
    }
    std::map<std::string, NameTotals> out;
    for (const Span &s : spans) {
        const double dur = s.end - s.start;
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            double lo = s.start, hi = s.start;   // current merged run
            for (auto [a, b] : iv) {
                a = std::clamp(a, s.start, s.end);
                b = std::clamp(b, s.start, s.end);
                if (a > hi) {
                    covered += hi - lo;
                    lo = a;
                }
                hi = std::max(hi, b);
            }
            covered += hi - lo;
        }
        NameTotals &t = out[s.name];
        t.count++;
        t.seconds += dur;
        t.selfSeconds += dur - covered;
    }
    return out;
}

std::string
spansToJson(const std::vector<Span> &spans)
{
    std::string out = "[";
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        out += i ? ",\n" : "\n";
        tango::json::ObjWriter o(out);
        o.u64("id", s.id);
        o.u64("parent", s.parent);
        o.u64("group", s.group);
        o.str("name", s.name);
        o.num("start_s", s.start);
        o.num("end_s", s.end);
        o.close();
    }
    out += "\n]\n";
    return out;
}

} // namespace perfbench
