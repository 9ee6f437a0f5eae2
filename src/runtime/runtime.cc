#include "runtime/runtime.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "nn/models/models.hh"
#include "nn/weights.hh"
#include "trace/trace.hh"

namespace tango::rt {

double
LayerRun::timeSec() const
{
    double t = 0.0;
    for (const auto &k : kernels)
        t += k.timeSec;
    return t;
}

double
LayerRun::energyJ() const
{
    double e = 0.0;
    for (const auto &k : kernels)
        e += k.energyJ;
    return e;
}

double
LayerRun::gpuCycles() const
{
    double c = 0.0;
    for (const auto &k : kernels)
        c += k.gpuCycles;
    return c;
}

namespace {

/** Whether a layer of figType @p type is drawn as figure type @p fig. */
bool
drawnAs(const std::string &type, const std::string &fig)
{
    return type == fig ||
           (fig == "Fire" && (type == "Fire_Squeeze" || type == "Fire_Expand"));
}

} // namespace

StatSet
NetRun::figTypeStats(const std::string &fig) const
{
    StatSet out;
    for (const auto &l : layers) {
        if (!drawnAs(l.figType, fig))
            continue;
        for (const auto &k : l.kernels)
            out.merge(k.stats);
    }
    return out;
}

double
NetRun::figTypeStat(const std::string &fig, const std::string &stat) const
{
    return figTypeStats(fig).get(stat);
}

double
NetRun::figTypeTime(const std::string &fig) const
{
    double total = 0.0;
    for (const auto &l : layers) {
        if (drawnAs(l.figType, fig))
            total += l.timeSec();
    }
    return total;
}

double
NetRun::figTypeEnergy(const std::string &fig) const
{
    double total = 0.0;
    for (const auto &l : layers) {
        if (drawnAs(l.figType, fig))
            total += l.energyJ();
    }
    return total;
}

std::vector<std::string>
NetRun::figTypes() const
{
    std::vector<std::string> out;
    for (const auto &l : layers) {
        if (std::find(out.begin(), out.end(), l.figType) == out.end())
            out.push_back(l.figType);
    }
    return out;
}

namespace {

/** Compare a device buffer against a reference tensor. */
uint64_t
checkBuffer(const sim::DeviceMemory &mem, uint32_t addr,
            const nn::Tensor &ref, float tol, const std::string &what)
{
    uint64_t failures = 0;
    for (uint64_t i = 0; i < ref.size(); i++) {
        const float got = mem.read<float>(addr + 4 * i);
        const float want = ref[i];
        const float err = std::fabs(got - want);
        const float lim = tol * std::max(1.0f, std::fabs(want));
        if (!(err <= lim)) {   // catches NaN too
            if (failures < 3) {
                warn("%s[%llu]: got %g want %g", what.c_str(),
                     static_cast<unsigned long long>(i), got, want);
            }
            failures++;
        }
    }
    return failures;
}

void
finalizeTotals(NetRun &run)
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
    // Launch-memoization meta-counters: how the launches were *served*,
    // not what they simulated.  The golden-fixture diff deliberately
    // ignores mem.replayed_launches / mem.simulated_launches — they are
    // the one legitimate difference between memo-on and memo-off runs.
    run.totals.set("mem.replayed_launches", static_cast<double>(replayed));
    run.totals.set("mem.simulated_launches",
                   static_cast<double>(simulated));
}

/**
 * Record a layer span edge at the *current* global trace cycle (the sink
 * rebases cycle 0).  Layer begins are recorded before the first kernel
 * launch and ends after the last, so kernel spans nest strictly inside.
 */
void
traceLayerEdge(trace::EventKind kind, const std::string &name,
               int layer_index)
{
    trace::TraceSink *ts = trace::threadSink();
    if (!ts || !ts->wants(kind))
        return;
    trace::Event e;
    e.kind = kind;
    e.cycle = 0;
    e.payload = layer_index >= 0 ? static_cast<uint64_t>(layer_index) : 0;
    e.arg = ts->intern(name);
    ts->record(e);
}

} // namespace

NetRun
Runtime::run(const nn::AnyModel &model, const RunPolicy &policy,
             const RunIo &io)
{
    if (model.isRnn())
        return rnnRun(model.rnn(), policy, io.sequence, io.prediction);
    return cnnRun(model.cnn(), policy, io.image);
}

NetRun
Runtime::cnnRun(const nn::Network &net, const RunPolicy &policy,
                const nn::Tensor *input)
{
    NetRun run;
    run.netName = net.name;

    sim::DeviceMemory &mem = gpu_.mem();
    mem.reset();
    gpu_.coldStart();   // addresses are being reused for new data
    const bool upload = policy.functional || policy.check;
    LoweredNet low = lower(net, mem, upload,
                           upload ? 0 : policy.maxLoopChannels);
    run.deviceBytes = low.deviceBytes;

    // Functional preparation: reference outputs for every layer.
    nn::Tensor localInput;
    std::vector<nn::Tensor> refOuts;
    if (upload) {
        if (!input) {
            localInput =
                nn::models::makeInputImage(net.inC, net.inH, net.inW);
            input = &localInput;
        }
        mem.copyIn(low.inputAddr, input->data(), input->bytes());
        refOuts = net.forwardAll(*input);
    }

    // Group kernels by layer, preserving launch order.
    const auto &layers = net.layers();
    run.layers.reserve(layers.size());
    size_t ki = 0;
    for (size_t li = 0; li < layers.size(); li++) {
        LayerRun lr;
        lr.layerIndex = static_cast<int>(li);
        lr.name = layers[li].name;
        lr.figType = layers[li].figType;
        const bool hasKernels =
            ki < low.kernels.size() &&
            low.kernels[ki].layerIndex == static_cast<int>(li);
        if (hasKernels) {
            traceLayerEdge(trace::EventKind::LayerBegin, lr.name,
                           lr.layerIndex);
        }
        while (ki < low.kernels.size() &&
               low.kernels[ki].layerIndex == static_cast<int>(li)) {
            sim::KernelStats ks =
                gpu_.launch(low.kernels[ki].launch, policy.sim);
            const double ws = low.kernels[ki].workScale;
            if (ws != 1.0) {
                // Loop-channel sampling: extrapolate to the full layer.
                ks.stats.scale(ws);
                ks.scale *= ws;
                ks.smCycles = static_cast<uint64_t>(ks.smCycles * ws);
                ks.gpuCycles *= ws;
                ks.timeSec *= ws;
                ks.energyJ *= ws;
                if (ks.profile) {
                    // Replays share the memo entry's profile object: clone
                    // before recording the extra scale factor.
                    auto p = std::make_shared<sim::KernelProfile>(*ks.profile);
                    p->workScale *= ws;
                    ks.profile = std::move(p);
                }
            }
            lr.kernels.push_back(std::move(ks));
            ki++;
        }
        if (hasKernels) {
            traceLayerEdge(trace::EventKind::LayerEnd, lr.name,
                           lr.layerIndex);
        }
        if (upload && layers[li].kind != nn::LayerKind::Input) {
            const nn::Tensor &ref = refOuts[li];
            if (policy.check && !lr.kernels.empty() &&
                layers[li].concatInto < 0) {
                run.checkFailures +=
                    checkBuffer(mem, low.layerOut[li], ref,
                                policy.tolerance,
                                net.name + "." + layers[li].name);
            }
            // Overwrite with the exact reference so CTA sampling cannot
            // corrupt downstream layers.
            mem.copyIn(low.layerOut[li], ref.data(), ref.bytes());
        }
        if (!lr.kernels.empty() ||
            layers[li].kind == nn::LayerKind::Concat) {
            run.layers.push_back(std::move(lr));
        }
    }
    TANGO_ASSERT(ki == low.kernels.size(), "unconsumed kernels");

    finalizeTotals(run);
    return run;
}

NetRun
Runtime::rnnRun(const nn::RnnModel &model, const RunPolicy &policy,
                const std::vector<float> *sequence, float *prediction)
{
    NetRun run;
    run.netName = model.name;

    sim::DeviceMemory &mem = gpu_.mem();
    mem.reset();
    gpu_.coldStart();   // addresses are being reused for new data
    const bool upload = policy.functional || policy.check;
    LoweredRnn low = lowerRnn(model, mem, upload);
    run.deviceBytes = low.deviceBytes;

    std::vector<float> localSeq;
    if (upload) {
        if (!sequence) {
            localSeq = nn::models::makeStockSequence(model.seqLen *
                                                     model.inputSize);
            sequence = &localSeq;
        }
        TANGO_ASSERT(sequence->size() ==
                         size_t(model.seqLen) * model.inputSize,
                     "sequence length mismatch");
        // Zero the initial hidden/cell state.  (The inputs are staged
        // into low.xAddr one step at a time inside the launch loop.)
        std::vector<float> zeros(model.hidden, 0.0f);
        mem.copyIn(low.hAddr[0], zeros.data(), 4ull * model.hidden);
        mem.copyIn(low.cAddr[0], zeros.data(), 4ull * model.hidden);
    }

    for (const auto &lk : low.kernels) {
        // Stage this step's input vector into the shared slot.  A
        // value-only host write between launches: the cell kernel's
        // control flow and addresses are input-independent, so the
        // launch-memoization layer keeps replaying through it.
        const bool isCell = lk.layerIndex < static_cast<int>(model.seqLen);
        if (upload && isCell) {
            mem.copyIn(low.xAddr,
                       sequence->data() +
                           size_t(lk.layerIndex) * model.inputSize,
                       4ull * model.inputSize);
        }
        LayerRun lr;
        lr.layerIndex = lk.layerIndex;
        lr.name = lk.launch.program->name + "#" +
                  std::to_string(lk.layerIndex);
        lr.figType = lk.figType;
        traceLayerEdge(trace::EventKind::LayerBegin, lr.name,
                       lr.layerIndex);
        lr.kernels.push_back(gpu_.launch(lk.launch, policy.sim));
        traceLayerEdge(trace::EventKind::LayerEnd, lr.name, lr.layerIndex);
        run.layers.push_back(std::move(lr));
    }

    if (upload) {
        if (policy.check && sequence) {
            // Reference hidden state after the full sequence.
            std::vector<float> h(model.hidden, 0.0f), c(model.hidden, 0.0f);
            std::vector<float> x(model.inputSize);
            for (uint32_t t = 0; t < model.seqLen; t++) {
                std::copy_n(sequence->begin() +
                                size_t(t) * model.inputSize,
                            model.inputSize, x.begin());
                model.step(x, h, c);
            }
            nn::Tensor refH({model.hidden});
            std::copy(h.begin(), h.end(), refH.data());
            run.checkFailures += checkBuffer(mem, low.finalH, refH,
                                             policy.tolerance,
                                             model.name + ".h");
            const float refPred = model.forward(*sequence);
            const float got = mem.read<float>(low.outAddr);
            if (std::fabs(got - refPred) >
                policy.tolerance * std::max(1.0f, std::fabs(refPred))) {
                warn("%s prediction: got %g want %g", model.name.c_str(),
                     got, refPred);
                run.checkFailures++;
            }
        }
        if (prediction)
            *prediction = mem.read<float>(low.outAddr);
    }

    finalizeTotals(run);
    return run;
}

namespace {

/** The named-policy registry (guarded: Engine workers call named()
 *  concurrently). */
struct PolicyRegistry
{
    std::mutex mu;
    std::map<std::string, RunPolicy> policies;

    PolicyRegistry()
    {
        RunPolicy bench;
        bench.sim.maxResidentCtas = 0;   // let the warp budget decide
        bench.sim.maxResidentWarps = 16;
        bench.sim.maxSampledCtas = 0;    // one resident wave
        bench.sim.maxWarpsPerCta = 6;
        bench.maxLoopChannels = 8;
        policies["bench"] = bench;

        RunPolicy mem;
        mem.sim.maxResidentCtas = 0;
        mem.sim.maxResidentWarps = 32;
        mem.sim.maxSampledCtas = 0;
        mem.sim.maxWarpsPerCta = 2;
        mem.maxLoopChannels = 8;
        policies["mem"] = mem;

        RunPolicy stall;
        stall.sim.maxResidentCtas = 0;
        stall.sim.maxResidentWarps = 48;
        stall.sim.maxSampledCtas = 0;
        stall.sim.maxWarpsPerCta = 12;
        stall.maxLoopChannels = 8;
        policies["stall"] = stall;

        RunPolicy exact;
        exact.sim.fullSim = true;
        exact.sim.maxResidentCtas = 0;
        policies["exact"] = exact;
    }

    static PolicyRegistry &instance()
    {
        static PolicyRegistry reg;
        return reg;
    }
};

} // namespace

RunPolicy
RunPolicy::named(const std::string &name)
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto it = reg.policies.find(name);
    if (it == reg.policies.end()) {
        std::string known;
        for (const auto &[n, p] : reg.policies) {
            if (!known.empty())
                known += ", ";
            known += n;
        }
        fatal("unknown run policy '%s' (known policies: %s)", name.c_str(),
              known.c_str());
    }
    return it->second;
}

void
RunPolicy::registerPolicy(const std::string &name, const RunPolicy &p)
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.policies[name] = p;
}

std::vector<std::string>
RunPolicy::names()
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::vector<std::string> out;
    for (const auto &[name, p] : reg.policies)
        out.push_back(name);
    return out;
}

NetRun
runNetworkByName(sim::Gpu &gpu, const std::string &name,
                 const RunPolicy &policy)
{
    Runtime rt(gpu);
    nn::AnyModel model = nn::models::buildAny(name);
    if (policy.functional || policy.check)
        nn::initWeights(model);
    return rt.run(model, policy);
}

} // namespace tango::rt
