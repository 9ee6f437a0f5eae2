#include "mirror.hh"

#include <algorithm>

#include "common/logging.hh"
#include "nn/models/models.hh"
#include "runtime/lowering.hh"
#include "sim/gpu.hh"

namespace perfbench {

namespace rt = tango::rt;
namespace sim = tango::sim;

namespace {

/** Runtime's finalizeTotals() (runtime/runtime.cc), which is private. */
void
finalizeTotals(rt::NetRun &run)
{
    uint64_t replayed = 0, simulated = 0;
    for (const auto &l : run.layers) {
        for (const auto &k : l.kernels) {
            run.totals.merge(k.stats);
            run.totalTimeSec += k.timeSec;
            run.totalEnergyJ += k.energyJ;
            run.peakPowerW = std::max(run.peakPowerW, k.peakPowerW);
            run.maxRegsPerThread =
                std::max(run.maxRegsPerThread, k.regsPerThread);
            run.maxLiveRegs = std::max(run.maxLiveRegs, k.maxLiveRegs);
            const uint32_t warps =
                k.residentCtas *
                ((static_cast<uint32_t>(k.block.count()) + 31) / 32);
            run.maxResidentWarps = std::max(run.maxResidentWarps, warps);
            (k.replayed ? replayed : simulated)++;
        }
    }
    run.totals.set("mem.replayed_launches", static_cast<double>(replayed));
    run.totals.set("mem.simulated_launches",
                   static_cast<double>(simulated));
}

/** One Gpu::launch under a span, with loop-channel work scaling applied
 *  the way Runtime does it. */
sim::KernelStats
launch(sim::Gpu &gpu, const rt::LoweredKernel &lk,
       const rt::RunPolicy &policy, SpanLog &log, uint64_t parent,
       uint64_t group, TracedJob &rec)
{
    ScopedSpan span(log, "sim.launch", parent, group);
    sim::KernelStats ks = gpu.launch(lk.launch, policy.sim);
    const double host = span.close();
    const double ws = lk.workScale;
    if (ws != 1.0) {
        ks.stats.scale(ws);
        ks.scale *= ws;
        ks.smCycles = static_cast<uint64_t>(ks.smCycles * ws);
        ks.gpuCycles *= ws;
        ks.timeSec *= ws;
        ks.energyJ *= ws;
    }
    LaunchRecord r;
    r.family = lk.figType;
    r.replayed = ks.replayed;
    r.hostSec = host;
    r.issuedWinst = ks.stats.get("issued");
    r.gpuCycles = ks.gpuCycles;
    r.smCycles = ks.smCycles;
    rec.launches.push_back(std::move(r));
    return ks;
}

} // namespace

rt::NetRun
tracedRun(sim::Gpu &gpu, const rt::JobSpec &spec, SpanLog &log,
          uint64_t parent, uint64_t group, TracedJob &rec)
{
    const rt::RunPolicy policy = spec.resolvedPolicy();
    if (spec.tier != rt::Tier::Sim || policy.functional || policy.check ||
        policy.sim.profile)
        tango::fatal("traced run supports timing-only sim-tier jobs only");

    ScopedSpan runSpan(log, "runtime.run", parent, group);
    const uint64_t top = runSpan.id();

    ScopedSpan buildSpan(log, "nn.build", top, group);
    tango::nn::AnyModel model = [&] {
        if (spec.net == "gru")
            return tango::nn::AnyModel(
                spec.seqLen ? tango::nn::models::buildGru(spec.seqLen)
                            : tango::nn::models::buildGru());
        if (spec.net == "lstm")
            return tango::nn::AnyModel(
                spec.seqLen ? tango::nn::models::buildLstm(spec.seqLen)
                            : tango::nn::models::buildLstm());
        return tango::nn::models::buildAny(spec.net);
    }();
    rec.buildSec = buildSpan.close();

    rt::NetRun run;
    run.netName = model.name();
    sim::DeviceMemory &mem = gpu.mem();
    mem.reset();
    gpu.coldStart();

    if (model.isRnn()) {
        const tango::nn::RnnModel &rnn = model.rnn();
        ScopedSpan lowerSpan(log, "lowering", top, group);
        const rt::LoweredRnn low = rt::lowerRnn(rnn, mem, false);
        rec.lowerSec = lowerSpan.close();
        rec.kernels = low.kernels.size();
        run.deviceBytes = low.deviceBytes;
        run.layers.reserve(low.kernels.size());
        for (const auto &lk : low.kernels) {
            rt::LayerRun lr;
            lr.layerIndex = lk.layerIndex;
            lr.name = lk.launch.program->name + "#" +
                      std::to_string(lk.layerIndex);
            lr.figType = lk.figType;
            lr.kernels.push_back(
                launch(gpu, lk, policy, log, top, group, rec));
            run.layers.push_back(std::move(lr));
        }
    } else {
        const tango::nn::Network &net = model.cnn();
        ScopedSpan lowerSpan(log, "lowering", top, group);
        const rt::LoweredNet low =
            rt::lower(net, mem, false, policy.maxLoopChannels);
        rec.lowerSec = lowerSpan.close();
        rec.kernels = low.kernels.size();
        run.deviceBytes = low.deviceBytes;
        const auto &layers = net.layers();
        run.layers.reserve(layers.size());
        size_t ki = 0;
        for (size_t li = 0; li < layers.size(); li++) {
            rt::LayerRun lr;
            lr.layerIndex = static_cast<int>(li);
            lr.name = layers[li].name;
            lr.figType = layers[li].figType;
            while (ki < low.kernels.size() &&
                   low.kernels[ki].layerIndex == static_cast<int>(li)) {
                lr.kernels.push_back(launch(gpu, low.kernels[ki], policy,
                                            log, top, group, rec));
                ki++;
            }
            if (!lr.kernels.empty() ||
                layers[li].kind == tango::nn::LayerKind::Concat)
                run.layers.push_back(std::move(lr));
        }
    }
    finalizeTotals(run);
    return run;
}

} // namespace perfbench
