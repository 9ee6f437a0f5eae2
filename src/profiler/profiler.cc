#include "profiler/profiler.hh"

#include <algorithm>
#include <map>
#include <tuple>

#include "sim/isa.hh"
#include "sim/profile.hh"

namespace tango::prof {

Series
stallBreakdown(const StatSet &stats)
{
    Series out;
    double total = 0.0;
    for (size_t i = 0; i < sim::numStalls; i++) {
        const std::string key =
            std::string("stall.") +
            sim::stallName(static_cast<sim::Stall>(i));
        total += stats.get(key);
    }
    for (size_t i = 0; i < sim::numStalls; i++) {
        const char *name = sim::stallName(static_cast<sim::Stall>(i));
        const double v = stats.get(std::string("stall.") + name);
        out.emplace_back(name, total > 0 ? v / total : 0.0);
    }
    return out;
}

Series
opBreakdown(const StatSet &stats)
{
    Series out;
    const double total = stats.sumPrefix("op.");
    if (total <= 0)
        return out;
    for (const auto &[k, v] : stats.all()) {
        if (k.rfind("op.", 0) == 0 && v > 0)
            out.emplace_back(k.substr(3), v / total);
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    return out;
}

Series
dtypeBreakdown(const StatSet &stats)
{
    Series out;
    const double total = stats.sumPrefix("dtype.");
    if (total <= 0)
        return out;
    // Keep the paper's legend order: f32, u32, u16, s32, s16.
    for (const char *t : {"f32", "u32", "u16", "s32", "s16"}) {
        const double v = stats.get(std::string("dtype.") + t);
        out.emplace_back(t, v / total);
    }
    return out;
}

Series
topN(const Series &s, size_t n)
{
    Series out;
    double rest = 0.0;
    for (size_t i = 0; i < s.size(); i++) {
        if (i < n)
            out.push_back(s[i]);
        else
            rest += s[i].second;
    }
    if (rest > 0.0)
        out.emplace_back("Others", rest);
    return out;
}

Series
layerTimeBreakdown(const rt::NetRun &run)
{
    Series out;
    double total = 0.0;
    for (const std::string &fig : run.figTypes())
        total += run.figTypeTime(fig);
    for (const std::string &fig : run.figTypes()) {
        out.emplace_back(fig,
                         total > 0 ? run.figTypeTime(fig) / total : 0.0);
    }
    return out;
}

Series
layerEnergyBreakdown(const rt::NetRun &run)
{
    Series out;
    double total = 0.0;
    std::vector<std::pair<std::string, double>> vals;
    for (const std::string &fig : run.figTypes()) {
        const double e = run.figTypeEnergy(fig);
        vals.emplace_back(fig, e);
        total += e;
    }
    for (auto &[fig, e] : vals)
        out.emplace_back(fig, total > 0 ? e / total : 0.0);
    return out;
}

Series
layerStat(const rt::NetRun &run, const std::string &stat)
{
    Series out;
    for (const std::string &fig : run.figTypes())
        out.emplace_back(fig, run.figTypeStat(fig, stat));
    return out;
}

StatSet
mergeTotals(const std::vector<const rt::NetRun *> &runs)
{
    StatSet out;
    for (const rt::NetRun *r : runs)
        out.merge(r->totals);
    return out;
}

// --------------------------------------------------- per-PC attribution

std::vector<Hotspot>
hotspots(const rt::NetRun &run)
{
    // Aggregation key: kernel name + '\0' + label (both are '\0'-free).
    std::map<std::string, Hotspot> agg;
    for (const auto &layer : run.layers) {
        for (const auto &ks : layer.kernels) {
            if (!ks.profile)
                continue;
            const sim::KernelProfile &p = *ks.profile;
            for (uint32_t pc = 0; pc < p.numPcs(); pc++) {
                const std::string &label = p.labelAt(pc);
                Hotspot &h =
                    agg[ks.name + std::string(1, '\0') + label];
                h.kernel = ks.name;
                h.label = label;
                const double issued = p.scaled(p.issued[pc]);
                const double stalled = p.scaled(p.stallTotalAt(pc));
                h.issued += issued;
                h.stallCycles += stalled;
                h.cycles += issued + stalled;
                if (ks.replayed)
                    h.replayedCycles += issued + stalled;
                h.l1dMisses += p.scaled(p.l1dMisses[pc]);
                h.l2Misses += p.scaled(p.l2Misses[pc]);
                h.dramBytes += p.scaled(p.dramTxns[pc]) * p.lineBytes;
            }
        }
    }
    std::vector<Hotspot> out;
    out.reserve(agg.size());
    for (auto &[key, h] : agg)
        out.push_back(std::move(h));
    std::sort(out.begin(), out.end(), [](const Hotspot &a, const Hotspot &b) {
        if (a.cycles != b.cycles)
            return a.cycles > b.cycles;
        return std::tie(a.kernel, a.label) < std::tie(b.kernel, b.label);
    });
    return out;
}

std::vector<AnnotatedLine>
annotateKernel(const rt::NetRun &run, const std::string &kernel)
{
    std::vector<AnnotatedLine> out;
    for (const auto &layer : run.layers) {
        for (const auto &ks : layer.kernels) {
            if (ks.name != kernel || !ks.profile)
                continue;
            const sim::KernelProfile &p = *ks.profile;
            if (out.size() < p.numPcs())
                out.resize(p.numPcs());
            for (uint32_t pc = 0; pc < p.numPcs(); pc++) {
                AnnotatedLine &l = out[pc];
                l.pc = pc;
                if (l.text.empty() && pc < p.disasm.size())
                    l.text = p.disasm[pc];
                if (l.label.empty())
                    l.label = p.labelAt(pc);
                l.issued += p.scaled(p.issued[pc]);
                l.stallCycles += p.scaled(p.stallTotalAt(pc));
                l.l1dMisses += p.scaled(p.l1dMisses[pc]);
                l.l2Misses += p.scaled(p.l2Misses[pc]);
                l.dramBytes += p.scaled(p.dramTxns[pc]) * p.lineBytes;
            }
        }
    }
    return out;
}

std::string
foldedStacks(const rt::NetRun &run)
{
    // One folded line per (layer, kernel, label), in run order: flamegraph
    // tools merge equal stacks themselves, but emitting them pre-merged
    // keeps the file small and diffable.
    std::string out;
    for (const auto &layer : run.layers) {
        std::map<std::string, double> stacks;   // stack -> cycles
        for (const auto &ks : layer.kernels) {
            if (!ks.profile)
                continue;
            const sim::KernelProfile &p = *ks.profile;
            for (uint32_t pc = 0; pc < p.numPcs(); pc++) {
                const std::string &label = p.labelAt(pc);
                const double cycles =
                    p.scaled(p.issued[pc] + p.stallTotalAt(pc));
                if (cycles <= 0.0)
                    continue;
                stacks[run.netName + ";" + layer.name + ";" + ks.name +
                       ";" + (label.empty() ? "(unlabeled)" : label)] +=
                    cycles;
            }
        }
        for (const auto &[stack, cycles] : stacks) {
            out += stack;
            out += ' ';
            out += std::to_string(
                static_cast<unsigned long long>(cycles + 0.5));
            out += '\n';
        }
    }
    return out;
}

bool
checkProfileConsistency(const rt::NetRun &run, std::string *why)
{
    for (const auto &layer : run.layers) {
        for (const auto &ks : layer.kernels) {
            if (!ks.profile)
                continue;
            std::string detail;
            if (!sim::profileConsistent(*ks.profile, ks.stats, &detail)) {
                if (why)
                    *why = layer.name + "/" + ks.name + ": " + detail;
                return false;
            }
        }
    }
    return true;
}

} // namespace tango::prof
