#include "runtime/lowering.hh"

#include <unordered_set>

#include "common/logging.hh"
#include "kernels/kernels.hh"

namespace tango::rt {

using nn::Layer;
using nn::LayerKind;

uint64_t
layerWeightBytes(const Layer &l)
{
    switch (l.kind) {
      case LayerKind::Conv: {
        const uint64_t bytesPerW = l.quantWeights ? 2 : 4;
        return bytesPerW * l.K * l.C * l.R * l.S +
               (l.bias ? 4ull * l.K : 0);
      }
      case LayerKind::Depthwise:
        return 4ull * l.C * l.R * l.S + (l.bias ? 4ull * l.C : 0);
      case LayerKind::FC:
        return 4ull * l.outN * l.inN + (l.bias ? 4ull * l.outN : 0);
      case LayerKind::BatchNorm:
      case LayerKind::Scale:
        return 8ull * l.C;
      default:
        return 0;
    }
}

namespace {

/** Upload a tensor if it holds data; otherwise leave the garbage bytes
 *  (timing-only runs never read results). */
void
maybeUpload(sim::DeviceMemory &mem, uint32_t addr, const nn::Tensor &t,
            bool upload)
{
    if (upload && t.size())
        mem.copyIn(addr, t.data(), t.bytes());
}

/** Mark every launch of a timing-only lowering valuesUnobserved when
 *  each of its distinct programs passes sim::valueOblivious (judged once
 *  per program, not once per launch: an RNN launches 2 programs over
 *  seqLen + 1 kernels). */
void
markValuesUnobserved(std::vector<LoweredKernel> &kernels)
{
    std::unordered_set<const sim::Program *> judged;
    for (const LoweredKernel &k : kernels) {
        const sim::Program *p = k.launch.program.get();
        if (judged.insert(p).second && !sim::valueOblivious(*p))
            return;
    }
    for (LoweredKernel &k : kernels)
        k.launch.valuesUnobserved = true;
}

} // namespace

LoweredNet
lower(const nn::Network &net, sim::DeviceMemory &mem, bool upload_weights,
      uint32_t max_loop_channels)
{
    TANGO_ASSERT(!(upload_weights && max_loop_channels),
                 "loop-channel sampling is timing-only");
    LoweredNet out;
    const auto &layers = net.layers();
    out.layerOut.assign(layers.size(), 0);

    const uint64_t startBytes = mem.used();
    out.inputAddr = mem.allocate(4ull * net.inC * net.inH * net.inW,
                                 net.name + ".input");

    // Pass 1: output buffers.  Concat members alias the concat buffer, so
    // concat buffers must exist before their producers are visited.
    for (size_t i = 0; i < layers.size(); i++) {
        const Layer &l = layers[i];
        if (l.concatInto >= 0)
            continue;   // aliases the concat buffer (pass 1.5)
        out.layerOut[i] =
            mem.allocate(4ull * l.outputSize(), net.name + "." + l.name);
    }
    for (size_t i = 0; i < layers.size(); i++) {
        const Layer &l = layers[i];
        if (l.concatInto < 0)
            continue;
        TANGO_ASSERT(l.concatInto > static_cast<int>(i),
                     "concat target must follow its members");
        const Layer &target = layers[l.concatInto];
        out.layerOut[i] = out.layerOut[l.concatInto] +
                          4u * l.outChannelOffset * target.P * target.Q;
    }

    auto inAddr = [&](const Layer &l, int which = 0) -> uint32_t {
        const int p = l.inputs[which];
        return p < 0 ? out.inputAddr : out.layerOut[p];
    };

    // Pass 2: weights + kernels.
    for (size_t i = 0; i < layers.size(); i++) {
        const Layer &l = layers[i];
        double workScale = 1.0;
        auto addKernel = [&](sim::KernelLaunch launch) {
            LoweredKernel lk;
            lk.launch = std::move(launch);
            lk.layerIndex = static_cast<int>(i);
            lk.figType = l.figType;
            lk.workScale = workScale;
            out.kernels.push_back(std::move(lk));
        };
        const std::string prefix = net.name + "." + l.name;

        switch (l.kind) {
          case LayerKind::Conv: {
            const uint64_t bytesPerW = l.quantWeights ? 2 : 4;
            const uint32_t w = mem.allocate(
                bytesPerW * l.K * l.C * l.R * l.S, prefix + ".w");
            if (l.quantWeights) {
                if (upload_weights && l.weightsQ.size()) {
                    // Pack the integer weight values as s16.
                    std::vector<int16_t> packed(l.weightsQ.size());
                    for (uint64_t qi = 0; qi < l.weightsQ.size(); qi++)
                        packed[qi] = static_cast<int16_t>(l.weightsQ[qi]);
                    mem.copyIn(w, packed.data(), packed.size() * 2);
                }
            } else {
                maybeUpload(mem, w, l.weights, upload_weights);
            }
            uint32_t bAddr = 0;
            if (l.bias) {
                bAddr = mem.allocate(4ull * l.K, prefix + ".b");
                maybeUpload(mem, bAddr, l.biasT, upload_weights);
            }
            kern::ConvDesc d;
            d.C = l.C;
            d.H = l.H;
            d.W = l.W;
            d.K = l.K;
            if (max_loop_channels &&
                l.hint.chanSrc == kern::ChannelSrc::Loop &&
                l.K > max_loop_channels) {
                d.K = max_loop_channels;
                workScale = double(l.K) / max_loop_channels;
            }
            d.R = l.R;
            d.S = l.S;
            d.stride = l.stride;
            d.pad = l.pad;
            d.P = l.P;
            d.Q = l.Q;
            d.relu = l.relu;
            d.bias = l.bias;
            d.quantWeights = l.quantWeights;
            d.filterSrc = l.hint.chanSrc;
            d.pixelMap = l.hint.pixMap;

            const uint32_t fpk =
                l.hint.filtersPerKernel ? l.hint.filtersPerKernel : l.K;
            int part = 1;
            for (uint32_t fb = 0; fb < l.K; fb += fpk, part++) {
                kern::ConvDesc dk = d;
                dk.filterBase =
                    (l.hint.chanSrc == kern::ChannelSrc::GridX) ? fb : 0;
                dk.grid = l.hint.grid;
                if (l.hint.chanSrc == kern::ChannelSrc::GridX)
                    dk.grid.x = std::min(fpk, l.K - fb);
                dk.block = l.hint.block;
                if (!l.hint.tiles.empty()) {
                    int tile = 1;
                    for (const auto &t : l.hint.tiles) {
                        kern::ConvDesc dt = dk;
                        dt.name = prefix + "_" + std::to_string(part) +
                                  "-" + std::to_string(tile++);
                        dt.tileX = t.tileX;
                        dt.tileY = t.tileY;
                        dt.block = {t.bw, t.bh, 1};
                        addKernel(kern::makeConvLaunch(
                            dt, inAddr(l), w, bAddr, out.layerOut[i],
                            l.weightScale));
                    }
                } else {
                    dk.name = l.K > fpk
                                  ? prefix + "_" + std::to_string(part)
                                  : prefix;
                    addKernel(kern::makeConvLaunch(dk, inAddr(l), w, bAddr,
                                                   out.layerOut[i],
                                                   l.weightScale));
                }
                if (l.hint.chanSrc != kern::ChannelSrc::GridX)
                    break;   // Loop/GridZ kernels cover every filter
            }
            break;
          }
          case LayerKind::Depthwise: {
            const uint32_t w = mem.allocate(4ull * l.C * l.R * l.S,
                                            prefix + ".w");
            maybeUpload(mem, w, l.weights, upload_weights);
            uint32_t bAddr = 0;
            if (l.bias) {
                bAddr = mem.allocate(4ull * l.C, prefix + ".b");
                maybeUpload(mem, bAddr, l.biasT, upload_weights);
            }
            kern::DepthwiseDesc d;
            d.name = prefix;
            d.C = l.C;
            d.H = l.H;
            d.W = l.W;
            d.R = l.R;
            d.S = l.S;
            d.stride = l.stride;
            d.pad = l.pad;
            d.P = l.P;
            d.Q = l.Q;
            d.relu = l.relu;
            d.bias = l.bias;
            d.grid = l.hint.grid;
            d.block = l.hint.block;
            addKernel(kern::makeDepthwiseLaunch(d, inAddr(l), w, bAddr,
                                                out.layerOut[i]));
            break;
          }
          case LayerKind::Pool: {
            kern::PoolDesc d;
            d.name = prefix;
            d.C = l.C;
            if (max_loop_channels &&
                l.hint.chanSrc == kern::ChannelSrc::Loop && !l.globalAvg &&
                l.C > max_loop_channels) {
                d.C = max_loop_channels;
                workScale = double(l.C) / max_loop_channels;
            }
            d.H = l.H;
            d.W = l.W;
            d.win = l.R;
            d.stride = l.stride;
            d.pad = l.pad;
            d.P = l.P;
            d.Q = l.Q;
            d.avg = l.avg;
            d.globalAvg = l.globalAvg;
            d.channelSrc = l.hint.chanSrc;
            d.pixelMap = l.hint.pixMap;
            d.grid = l.hint.grid;
            d.block = l.hint.block;
            addKernel(kern::makePoolLaunch(d, inAddr(l), out.layerOut[i]));
            break;
          }
          case LayerKind::FC: {
            const uint32_t w =
                mem.allocate(4ull * l.outN * l.inN, prefix + ".w");
            maybeUpload(mem, w, l.weights, upload_weights);
            uint32_t bAddr = 0;
            if (l.bias) {
                bAddr = mem.allocate(4ull * l.outN, prefix + ".b");
                maybeUpload(mem, bAddr, l.biasT, upload_weights);
            }
            kern::FcDesc d;
            d.name = prefix;
            d.inN = l.inN;
            d.outN = l.outN;
            d.relu = l.relu;
            d.bias = l.bias;
            d.grid = l.hint.grid;
            d.block = l.hint.block;
            addKernel(kern::makeFcLaunch(d, inAddr(l), w, bAddr,
                                         out.layerOut[i]));
            break;
          }
          case LayerKind::LRN: {
            kern::LrnDesc d;
            d.C = l.C;
            d.H = l.H;
            d.W = l.W;
            d.localSize = l.localSize;
            d.alpha = l.alpha;
            d.beta = l.beta;
            d.k = l.lrnK;
            d.grid = l.hint.grid;
            if (!l.hint.tiles.empty()) {
                int tile = 1;
                for (const auto &t : l.hint.tiles) {
                    kern::LrnDesc dt = d;
                    dt.name = prefix + "-" + std::to_string(tile++);
                    dt.tileX = t.tileX;
                    dt.tileY = t.tileY;
                    dt.block = {t.bw, t.bh, 1};
                    addKernel(kern::makeLrnLaunch(dt, inAddr(l),
                                                  out.layerOut[i]));
                }
            } else {
                d.name = prefix;
                d.block = l.hint.block;
                addKernel(kern::makeLrnLaunch(d, inAddr(l),
                                              out.layerOut[i]));
            }
            break;
          }
          case LayerKind::BatchNorm:
          case LayerKind::Scale:
          case LayerKind::ReLU:
          case LayerKind::Eltwise: {
            kern::MapDesc d;
            d.name = prefix;
            d.C = l.C;
            d.H = l.H;
            d.W = l.W;
            d.relu = l.relu;
            d.eps = l.eps;
            d.channelSrc = l.hint.chanSrc;
            d.pixelMap = l.hint.pixMap;
            d.grid = l.hint.grid;
            d.block = l.hint.block;
            uint32_t pb = 0, pc = 0;
            switch (l.kind) {
              case LayerKind::BatchNorm: {
                d.kind = kern::MapKind::BatchNorm;
                pb = mem.allocate(4ull * l.C, prefix + ".mean");
                pc = mem.allocate(4ull * l.C, prefix + ".var");
                maybeUpload(mem, pb, l.mean, upload_weights);
                maybeUpload(mem, pc, l.var, upload_weights);
                // Timing-only runs never upload, but rsqrt of garbage can
                // produce NaN storms that are still harmless; leave as-is.
                break;
              }
              case LayerKind::Scale: {
                d.kind = kern::MapKind::Scale;
                pb = mem.allocate(4ull * l.C, prefix + ".gamma");
                pc = mem.allocate(4ull * l.C, prefix + ".beta");
                maybeUpload(mem, pb, l.gamma, upload_weights);
                maybeUpload(mem, pc, l.betaT, upload_weights);
                break;
              }
              case LayerKind::ReLU:
                d.kind = kern::MapKind::Relu;
                break;
              default: {
                d.kind = kern::MapKind::Eltwise;
                TANGO_ASSERT(l.inputs.size() == 2, "eltwise arity");
                pb = inAddr(l, 1);
                break;
              }
            }
            addKernel(kern::makeMapLaunch(d, inAddr(l), pb, pc,
                                          out.layerOut[i]));
            break;
          }
          case LayerKind::Softmax: {
            kern::SoftmaxDesc d;
            d.name = prefix;
            d.n = l.outN;
            d.threads = l.hint.block.x ? l.hint.block.x : 32;
            addKernel(kern::makeSoftmaxLaunch(d, inAddr(l),
                                              out.layerOut[i]));
            break;
          }
          case LayerKind::Concat:
          case LayerKind::Input:
            break;   // no kernel
        }
    }

    if (!upload_weights)
        markValuesUnobserved(out.kernels);
    out.deviceBytes = mem.used() - startBytes;
    return out;
}

LoweredRnn
lowerRnn(const nn::RnnModel &model, sim::DeviceMemory &mem,
         bool upload_weights)
{
    LoweredRnn out;
    const uint64_t startBytes = mem.used();

    kern::RnnCellDesc cell;
    cell.name = model.name + ".cell";
    cell.lstm = model.lstm;
    cell.inputSize = model.inputSize;
    cell.hidden = model.hidden;
    // Table III geometries: GRU (10,10), LSTM (100,1,1).
    cell.grid = {1, 1, 1};
    cell.block = model.lstm ? kern::Dim3{model.hidden, 1, 1}
                            : kern::Dim3{10, 10, 1};

    const uint32_t w =
        mem.allocate(kern::rnnWeightBytes(cell), model.name + ".w");
    maybeUpload(mem, w, model.weights, upload_weights);

    out.xAddr = mem.allocate(4ull * model.inputSize, model.name + ".x");
    for (int i = 0; i < 2; i++) {
        out.hAddr[i] =
            mem.allocate(4ull * model.hidden, model.name + ".h");
        out.cAddr[i] =
            mem.allocate(4ull * model.hidden, model.name + ".c");
    }
    out.outAddr = mem.allocate(4, model.name + ".out");

    // The shared cell program is built once and launched per step.
    auto program = kern::buildRnnCell(cell);
    for (uint32_t t = 0; t < model.seqLen; t++) {
        const uint32_t hIn = out.hAddr[t & 1];
        const uint32_t hOut = out.hAddr[(t + 1) & 1];
        const uint32_t cIn = out.cAddr[t & 1];
        const uint32_t cOut = out.cAddr[(t + 1) & 1];
        sim::KernelLaunch l;
        l.program = program;
        l.grid = cell.grid;
        l.block = cell.block;
        l.params = {out.xAddr, hIn, cIn, w, hOut, cOut};
        l.constData.resize(8);
        std::memcpy(l.constData.data(), &cell.inputSize, 4);
        std::memcpy(l.constData.data() + 4, &cell.hidden, 4);
        LoweredKernel lk;
        lk.launch = std::move(l);
        lk.layerIndex = static_cast<int>(t);
        lk.figType = model.lstm ? "LSTM" : "GRU";
        out.kernels.push_back(std::move(lk));
    }
    out.finalH = out.hAddr[model.seqLen & 1];

    // Dense readout: hidden -> 1, as a parallel reduction.
    const uint32_t fw =
        mem.allocate(4ull * model.hidden, model.name + ".fc.w");
    const uint32_t fb = mem.allocate(4, model.name + ".fc.b");
    maybeUpload(mem, fw, model.fcW, upload_weights);
    maybeUpload(mem, fb, model.fcB, upload_weights);
    kern::RnnReadoutDesc fc;
    fc.name = model.name + ".fc";
    fc.hidden = model.hidden;
    LoweredKernel lk;
    lk.launch =
        kern::makeRnnReadoutLaunch(fc, out.finalH, fw, fb, out.outAddr);
    lk.layerIndex = static_cast<int>(model.seqLen);
    lk.figType = model.lstm ? "LSTM" : "GRU";
    out.kernels.push_back(std::move(lk));

    if (!upload_weights)
        markValuesUnobserved(out.kernels);
    out.deviceBytes = mem.used() - startBytes;
    return out;
}

} // namespace tango::rt
