#include "nn/layer.hh"

#include "common/logging.hh"

namespace tango::nn {

const char *
layerKindName(LayerKind k)
{
    switch (k) {
      case LayerKind::Input: return "Input";
      case LayerKind::Conv: return "Conv";
      case LayerKind::Depthwise: return "Depthwise";
      case LayerKind::Pool: return "Pool";
      case LayerKind::FC: return "FC";
      case LayerKind::LRN: return "LRN";
      case LayerKind::BatchNorm: return "BatchNorm";
      case LayerKind::Scale: return "Scale";
      case LayerKind::ReLU: return "ReLU";
      case LayerKind::Eltwise: return "Eltwise";
      case LayerKind::Softmax: return "Softmax";
      case LayerKind::Concat: return "Concat";
    }
    return "?";
}

uint64_t
Layer::outputSize() const
{
    switch (kind) {
      case LayerKind::FC:
      case LayerKind::Softmax:
        return outN;
      case LayerKind::Conv:
        return uint64_t(K) * P * Q;
      case LayerKind::Depthwise:
        return uint64_t(C) * P * Q;
      case LayerKind::Pool:
        return globalAvg ? C : uint64_t(C) * P * Q;
      case LayerKind::Concat:
        return uint64_t(K) * P * Q;
      default:
        // Shape-preserving layers.
        return uint64_t(C) * H * W;
    }
}

std::vector<uint32_t>
Layer::outputShape() const
{
    switch (kind) {
      case LayerKind::FC:
      case LayerKind::Softmax:
        return {outN};
      case LayerKind::Conv:
      case LayerKind::Concat:
        return {K, P, Q};
      case LayerKind::Depthwise:
        return {C, P, Q};
      case LayerKind::Pool:
        return globalAvg ? std::vector<uint32_t>{C}
                         : std::vector<uint32_t>{C, P, Q};
      default:
        return {C, H, W};
    }
}

uint64_t
Layer::macs() const
{
    switch (kind) {
      case LayerKind::Conv:
        return uint64_t(K) * P * Q * C * R * S;
      case LayerKind::Depthwise:
        return uint64_t(C) * P * Q * R * S;
      case LayerKind::FC:
        return uint64_t(outN) * inN;
      case LayerKind::Pool:
        return globalAvg ? uint64_t(C) * H * W
                         : uint64_t(C) * P * Q * R * S;
      case LayerKind::LRN:
        return uint64_t(C) * H * W * localSize;
      default:
        return outputSize();
    }
}

uint64_t
Layer::paramCount() const
{
    switch (kind) {
      case LayerKind::Conv:
        return uint64_t(K) * C * R * S + (bias ? K : 0);
      case LayerKind::Depthwise:
        return uint64_t(C) * R * S + (bias ? C : 0);
      case LayerKind::FC:
        return uint64_t(outN) * inN + (bias ? outN : 0);
      case LayerKind::BatchNorm:   // mean, var
      case LayerKind::Scale:       // gamma, beta
        return 2ull * C;
      default:
        return 0;
    }
}

} // namespace tango::nn
