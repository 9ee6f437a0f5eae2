/**
 * @file
 * A feed-forward network: a small DAG of layers with a CPU reference
 * executor.  The reference executor is the functional ground truth the
 * simulator-executed kernels are tested against.
 */

#ifndef TANGO_NN_NETWORK_HH
#define TANGO_NN_NETWORK_HH

#include <string>
#include <variant>
#include <vector>

#include "nn/layer.hh"

namespace tango::nn {

/** A network: named layer DAG plus input geometry. */
class Network
{
  public:
    std::string name;
    uint32_t inC = 0, inH = 0, inW = 0;   ///< input shape (C,H,W)

    /** Append a layer; @return its index. */
    int add(Layer l);

    const std::vector<Layer> &layers() const { return layers_; }
    std::vector<Layer> &layers() { return layers_; }

    /** Run the CPU reference over all layers.
     *  @return every layer's output (indexed like layers()). */
    std::vector<Tensor> forwardAll(const Tensor &input) const;

    /** Run the CPU reference and return only the final output. */
    Tensor forward(const Tensor &input) const;

    /** @return total multiply-accumulates of one inference. */
    uint64_t totalMacs() const;

    /** @return total parameter elements. */
    uint64_t totalParams() const;

  private:
    std::vector<Layer> layers_;
};

/** Evaluate one layer on the CPU reference.
 *  @param ins producer outputs, matching layer.inputs order. */
Tensor referenceForward(const Layer &layer,
                        const std::vector<const Tensor *> &ins);

/** Recurrent model (GRU / LSTM + a dense readout), matching the paper's
 *  bitcoin price predictor: two time steps of a scalar price. */
struct RnnModel
{
    std::string name;
    bool lstm = false;
    uint32_t inputSize = 1;
    uint32_t hidden = 100;
    uint32_t seqLen = 2;
    Tensor weights;        ///< packed gate weights (see kernels/rnn.cc)
    Tensor fcW, fcB;       ///< readout: hidden -> 1

    /** @return parameter element count (gates and readout), from the
     *  shape: the elements initWeights() allocates, without allocating. */
    uint64_t paramCount() const;

    /** CPU reference: run the sequence, @return the predicted value. */
    float forward(const std::vector<float> &sequence) const;

    /** One reference cell step: h (and c for LSTM) updated in place. */
    void step(const std::vector<float> &x, std::vector<float> &h,
              std::vector<float> &c) const;
};

/**
 * A model of either kind — feed-forward Network or recurrent RnnModel —
 * behind one type, so code that runs models (rt::Runtime::run, the
 * rt::Engine job queue) does not fork on the model kind.
 *
 * Holds the model by value; pass builders' results straight in
 * (AnyModel(models::buildCnn("alexnet"))) so the model is moved, never
 * copied — initialized weights can be hundreds of megabytes.
 */
class AnyModel
{
  public:
    AnyModel(Network net) : m_(std::move(net)) {}
    AnyModel(RnnModel model) : m_(std::move(model)) {}

    /** @return whether this is a recurrent model. */
    bool isRnn() const { return std::holds_alternative<RnnModel>(m_); }

    /** @return the model's name, whichever kind it is. */
    const std::string &name() const;

    /** @return the feed-forward network; panics if isRnn(). */
    const Network &cnn() const;
    Network &cnn();

    /** @return the recurrent model; panics unless isRnn(). */
    const RnnModel &rnn() const;
    RnnModel &rnn();

  private:
    std::variant<Network, RnnModel> m_;
};

} // namespace tango::nn

#endif // TANGO_NN_NETWORK_HH
