#include "estimate/estimator.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "metrics/metrics.hh"
#include "nn/models/models.hh"

#ifndef TANGO_DEFAULT_ESTIMATE_WEIGHTS
#define TANGO_DEFAULT_ESTIMATE_WEIGHTS "weights/estimate"
#endif

namespace tango::estimate {

namespace {

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Synthesize the KernelStats one model evaluation stands in for.
 *  @p targets holds every predicted statistic in raw units. */
sim::KernelStats
predictKernel(const double targets[kNumTargets], const Features &f,
              const std::string &name, const kern::Dim3 &grid,
              const kern::Dim3 &block, double core_clock_ghz)
{
    sim::KernelStats k;
    k.name = name;
    k.grid = grid;
    k.block = block;
    k.totalCtas = static_cast<uint64_t>(
        f.v[4]);   // the ctas feature: CTAs across the layer's kernels
    k.totalWarpsPerCta =
        (static_cast<uint32_t>(block.count()) + 31) / 32;

    const double cycles = targets[static_cast<int>(Target::Cycles)];
    k.gpuCycles = cycles;
    k.smCycles = static_cast<uint64_t>(std::llround(cycles));
    k.timeSec = cycles / (core_clock_ghz * 1e9);
    k.energyJ = targets[static_cast<int>(Target::EnergyJ)];
    if (k.timeSec > 0) {
        k.avgPowerW = k.energyJ / k.timeSec;
        k.peakPowerW = k.avgPowerW;
    }
    // One aggregate stall counter: the models predict the stall total,
    // not the per-reason mix, and sumPrefix("stall.") still finds it.
    k.stats.set("stall.total",
                targets[static_cast<int>(Target::Stalls)]);
    k.stats.set("mem.l1d.misses",
                targets[static_cast<int>(Target::L1dMisses)]);
    k.stats.set("mem.l2.misses",
                targets[static_cast<int>(Target::L2Misses)]);
    k.stats.set("dram.accesses",
                targets[static_cast<int>(Target::DramAccesses)]);
    return k;
}

/** Fold one estimated layer into the run's whole-network totals. */
void
accumulate(rt::NetRun &run, const rt::LayerRun &lr)
{
    for (const sim::KernelStats &k : lr.kernels) {
        run.totals.merge(k.stats);
        run.totalTimeSec += k.timeSec;
        run.totalEnergyJ += k.energyJ;
        run.peakPowerW = std::max(run.peakPowerW, k.peakPowerW);
    }
}

} // namespace

Estimator::Estimator(std::string weights_dir) : dir_(std::move(weights_dir))
{
}

const Estimator::Entry &
Estimator::load(const std::string &policy, const std::string &platform)
{
    const std::string file = Bundle::fileName(policy, platform);
    auto it = cache_.find(file);
    if (it != cache_.end())
        return it->second;

    Entry e;
    const std::string path = dir_ + "/" + file;
    std::string text;
    if (!readFile(path, text)) {
        e.error = "no fitted bundle at " + path;
    } else {
        auto bundle = std::make_unique<Bundle>();
        std::string why;
        if (!Bundle::fromJson(text, *bundle, &why))
            e.error = path + ": " + why;
        else
            e.bundle = std::move(bundle);
    }
    if (!e.bundle)
        inform("estimate: %s", e.error.c_str());
    return cache_.emplace(file, std::move(e)).first->second;
}

bool
Estimator::estimate(const rt::JobSpec &spec, rt::NetRun &run,
                    std::string *reason)
{
    // Answered vs fell-back-and-why, scrapeable live: the fallback mix
    // is the first thing to look at when the estimate tier stops
    // holding its <1ms promise (a missing bundle turns every request
    // into a full simulation).
    const auto fallCounter = [](const char *slug) -> metrics::Counter & {
        return metrics::counter("tango_estimate_fallbacks_total",
                                "Estimate-tier jobs that fell back to "
                                "simulation, by reason",
                                {{"reason", slug}});
    };
    const auto fall = [&](const char *slug, const std::string &why) {
        fallCounter(slug).inc();
        if (reason)
            *reason = why;
        return false;
    };
    if (spec.hasInlinePolicy)
        return fall("inline_policy", "inline policies have no fitted bundle");
    if (spec.functional || spec.profile)
        return fall("needs_simulator",
                    "functional/profile runs need the simulator");
    // tango-fit sweeps (dataset.cc generate()) run at the JobSpec
    // default L1D size and scheduler; the models know nothing else.
    const rt::JobSpec fitted;
    if (spec.l1dBytes != fitted.l1dBytes || spec.sched != fitted.sched)
        return fall("config_mismatch",
                    "the models were fit at the default L1D size and "
                    "scheduler only");

    std::lock_guard<std::mutex> lock(mu_);
    const Entry &entry = load(spec.policy, spec.platform);
    if (!entry.bundle)
        return fall("no_bundle", entry.error);
    const Bundle &bundle = *entry.bundle;

    // Collect (family, features, name-parts) per layer first so an
    // unfitted family rejects the job before any output is built.
    struct Pending
    {
        int layerIndex;
        std::string name;
        std::string figType;
        Family family;
        Features feat;
        kern::Dim3 grid, block;
        double targets[kNumTargets];
    };
    std::vector<Pending> pending;

    const bool rnn = spec.net == "gru" || spec.net == "lstm";
    if (rnn) {
        nn::RnnModel model = spec.net == "gru"
                                 ? nn::models::buildGru()
                                 : nn::models::buildLstm();
        if (spec.seqLen)
            model.seqLen = spec.seqLen;
        const char *fig = model.lstm ? "LSTM" : "GRU";
        const Features cellF = rnnCellFeatures(model);
        const kern::Dim3 cellBlock =
            model.lstm ? kern::Dim3{model.hidden, 1, 1}
                       : kern::Dim3{10, 10, 1};
        for (uint32_t t = 0; t < model.seqLen; t++) {
            pending.push_back({static_cast<int>(t),
                               model.name + ".cell#" + std::to_string(t),
                               fig, Family::RnnCell, cellF,
                               kern::Dim3{1, 1, 1}, cellBlock});
        }
        pending.push_back(
            {static_cast<int>(model.seqLen),
             model.name + ".fc#" + std::to_string(model.seqLen), fig,
             Family::Fc, rnnReadoutFeatures(model), kern::Dim3{1, 1, 1},
             kern::Dim3{model.hidden, 1, 1}});
        run.netName = model.name;
    } else {
        const nn::Network net = nn::models::buildCnn(spec.net);
        const auto &layers = net.layers();
        for (size_t i = 0; i < layers.size(); i++) {
            const nn::Layer &l = layers[i];
            Family fam;
            if (!layerFamily(l.kind, fam))
                continue;   // Input/Concat: no kernels, nothing to predict
            pending.push_back({static_cast<int>(i), l.name, l.figType,
                               fam, layerFeatures(l), l.hint.grid,
                               l.hint.block});
        }
        run.netName = net.name;
    }

    // Resolve every layer before building any output, so a refusal
    // (unfitted family, bound violation) leaves run untouched.  A shape
    // the sweep memorized answers from the table and carries only its
    // duplicate-row spread as error; a novel shape regresses and
    // carries the family's holdout bounds.
    double p50 = 0.0, p95 = 0.0;
    for (Pending &p : pending) {
        const FamilyModel &fm = bundle.family(p.family);
        if (!fm.fitted)
            return fall("unfitted_family",
                        std::string("no fitted model for family ") +
                            familyName(p.family));
        double layerP50, layerP95;
        if (fm.lookup(p.feat, p.targets)) {
            layerP50 = fm.tableP50;
            layerP95 = fm.tableP95;
        } else {
            for (int ti = 0; ti < kNumTargets; ti++)
                p.targets[ti] =
                    fm.predict(static_cast<Target>(ti), p.feat);
            const TargetModel &cyc =
                fm.targets[static_cast<int>(Target::Cycles)];
            layerP50 = cyc.p50;
            layerP95 = cyc.p95;
        }
        if (spec.maxRelErr > 0 && layerP95 > spec.maxRelErr) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "layer %s (family %s) validated p95 %.3f "
                          "exceeds requested bound %.3f",
                          p.name.c_str(), familyName(p.family), layerP95,
                          spec.maxRelErr);
            return fall("bound_exceeded", buf);
        }
        p50 = std::max(p50, layerP50);
        p95 = std::max(p95, layerP95);
    }

    const double clockGhz = spec.gpuConfig().coreClockGhz;
    const std::string prefix = run.netName + ".";
    for (const Pending &p : pending) {
        rt::LayerRun lr;
        lr.layerIndex = p.layerIndex;
        lr.name = p.name;
        lr.figType = p.figType;
        lr.kernels.push_back(
            predictKernel(p.targets, p.feat,
                          rnn ? p.name : prefix + p.name, p.grid,
                          p.block, clockGhz));
        accumulate(run, lr);
        run.layers.push_back(std::move(lr));
    }

    run.estimated = true;
    run.estErrP50 = p50;
    run.estErrP95 = p95;
    static metrics::Counter &answers =
        metrics::counter("tango_estimate_answers_total",
                         "Estimate-tier jobs answered from fitted "
                         "bundles (no simulation)");
    answers.inc();
    return true;
}

Estimator &
Estimator::global()
{
    static Estimator *g = [] {
        const char *env = std::getenv("TANGO_ESTIMATE_WEIGHTS");
        return new Estimator(env && *env ? env
                                         : TANGO_DEFAULT_ESTIMATE_WEIGHTS);
    }();
    return *g;
}

} // namespace tango::estimate
