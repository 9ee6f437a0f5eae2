#include "nn/network.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tango::nn {

int
Network::add(Layer l)
{
    layers_.push_back(std::move(l));
    return static_cast<int>(layers_.size()) - 1;
}

std::vector<Tensor>
Network::forwardAll(const Tensor &input) const
{
    std::vector<Tensor> outs(layers_.size());
    for (size_t i = 0; i < layers_.size(); i++) {
        const Layer &l = layers_[i];
        std::vector<const Tensor *> ins;
        for (int p : l.inputs) {
            if (p < 0) {
                ins.push_back(&input);
            } else {
                TANGO_ASSERT(p < static_cast<int>(i),
                             "layer input must precede it");
                ins.push_back(&outs[p]);
            }
        }
        outs[i] = referenceForward(l, ins);
    }
    return outs;
}

Tensor
Network::forward(const Tensor &input) const
{
    TANGO_ASSERT(!layers_.empty(), "empty network");
    auto outs = forwardAll(input);
    return std::move(outs.back());
}

uint64_t
Network::totalMacs() const
{
    uint64_t total = 0;
    for (const Layer &l : layers_)
        total += l.macs();
    return total;
}

uint64_t
Network::totalParams() const
{
    uint64_t total = 0;
    for (const Layer &l : layers_)
        total += l.paramCount();
    return total;
}

namespace {

inline float
sigmoid(float x)
{
    return 1.0f / (1.0f + std::exp2(-x * 1.4426950408889634f));
}

inline float
tanhApprox(float x)
{
    // Matches the kernel's tanh(x) = 2*sigmoid(2x) - 1 exactly.
    return 2.0f * sigmoid(2.0f * x) - 1.0f;
}

} // namespace

void
RnnModel::step(const std::vector<float> &x, std::vector<float> &h,
               std::vector<float> &c) const
{
    const uint32_t G = lstm ? 4 : 3;
    const uint32_t in = inputSize;
    const uint32_t hid = hidden;
    const float *w = weights.data();
    const uint64_t uBase = uint64_t(G) * hid * in;
    const uint64_t bBase = uBase + uint64_t(G) * hid * hid;

    // Weights are input-major (Mat[g][i][j]) so the kernel's lane-j
    // loads coalesce; the reference uses the identical layout and
    // accumulation order.
    auto gate = [&](uint32_t g, uint32_t j, bool with_u) {
        float acc = w[bBase + uint64_t(g) * hid + j];
        for (uint32_t i = 0; i < in; i++) {
            acc = std::fmaf(w[uint64_t(g) * hid * in + uint64_t(i) * hid + j],
                            x[i], acc);
        }
        if (with_u) {
            for (uint32_t i = 0; i < hid; i++) {
                acc = std::fmaf(
                    w[uBase + uint64_t(g) * hid * hid + uint64_t(i) * hid +
                      j],
                    h[i], acc);
            }
        }
        return acc;
    };
    auto uOnly = [&](uint32_t g, uint32_t j) {
        float acc = 0.0f;
        for (uint32_t i = 0; i < hid; i++) {
            acc = std::fmaf(
                w[uBase + uint64_t(g) * hid * hid + uint64_t(i) * hid + j],
                h[i], acc);
        }
        return acc;
    };

    std::vector<float> hNew(hid), cNew(hid);
    if (!lstm) {
        for (uint32_t j = 0; j < hid; j++) {
            const float z = sigmoid(gate(0, j, true));
            const float r = sigmoid(gate(1, j, true));
            // n = tanh(b + Wn.x + r * (Un.h)), accumulated as in the kernel
            const float n =
                tanhApprox(std::fmaf(r, uOnly(2, j), gate(2, j, false)));
            // h' = n + z*(h - n), fused exactly as the kernel computes it
            hNew[j] = std::fmaf(z, h[j] - n, n);
        }
    } else {
        for (uint32_t j = 0; j < hid; j++) {
            const float i = sigmoid(gate(0, j, true));
            const float f = sigmoid(gate(1, j, true));
            const float g = tanhApprox(gate(2, j, true));
            const float o = sigmoid(gate(3, j, true));
            // Separate mul/mul/add, matching the kernel's instruction
            // sequence (no contraction).
            const float ig = i * g;
            const float fc = f * c[j];
            cNew[j] = fc + ig;
            hNew[j] = o * tanhApprox(cNew[j]);
        }
        c = std::move(cNew);
    }
    h = std::move(hNew);
}

uint64_t
RnnModel::paramCount() const
{
    // G gates, each with input, recurrent and bias weights; then the
    // hidden -> 1 readout.
    const uint64_t gates = lstm ? 4 : 3;
    return gates * hidden * (inputSize + hidden + 1) + hidden + 1;
}

float
RnnModel::forward(const std::vector<float> &sequence) const
{
    TANGO_ASSERT(sequence.size() % inputSize == 0,
                 "sequence length not a multiple of the input size");
    std::vector<float> h(hidden, 0.0f), c(hidden, 0.0f);
    std::vector<float> x(inputSize);
    const size_t steps = sequence.size() / inputSize;
    for (size_t t = 0; t < steps; t++) {
        std::copy_n(sequence.begin() + t * inputSize, inputSize, x.begin());
        step(x, h, c);
    }
    // Dense readout.
    float out = fcB.size() ? fcB[0] : 0.0f;
    for (uint32_t i = 0; i < hidden; i++)
        out = std::fmaf(fcW[i], h[i], out);
    return out;
}

const std::string &
AnyModel::name() const
{
    return isRnn() ? std::get<RnnModel>(m_).name
                   : std::get<Network>(m_).name;
}

const Network &
AnyModel::cnn() const
{
    TANGO_ASSERT(!isRnn(), "AnyModel holds an RnnModel");
    return std::get<Network>(m_);
}

Network &
AnyModel::cnn()
{
    TANGO_ASSERT(!isRnn(), "AnyModel holds an RnnModel");
    return std::get<Network>(m_);
}

const RnnModel &
AnyModel::rnn() const
{
    TANGO_ASSERT(isRnn(), "AnyModel holds a Network");
    return std::get<RnnModel>(m_);
}

RnnModel &
AnyModel::rnn()
{
    TANGO_ASSERT(isRnn(), "AnyModel holds a Network");
    return std::get<RnnModel>(m_);
}

} // namespace tango::nn
