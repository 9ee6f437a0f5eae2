/**
 * @file
 * ImageNet-style classification with the big CNNs: run AlexNet and
 * SqueezeNet on a synthetic "cat image", reporting the top-5 classes
 * (from the CPU reference forward pass) alongside the simulated GPU's
 * per-layer timing profile (sampled simulation).
 *
 * AlexNet demonstrates per-layer weight files too: the model's synthetic
 * pre-trained weights are saved to ./weights and reloaded, mirroring how
 * the original suite ships per-layer weight files.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "nn/models/models.hh"
#include "nn/weights.hh"
#include "runtime/engine.hh"
#include "runtime/runtime.hh"
#include "sim/gpu.hh"

namespace {

using namespace tango;

void
classify(const std::string &name)
{
    nn::Network net = nn::models::buildCnn(name);
    nn::initWeights(net);

    if (name == "alexnet") {
        const int written = nn::saveWeightFiles(net, "weights");
        nn::Network reload = nn::models::buildCnn(name);
        const int read = nn::loadWeightFiles(reload, "weights");
        std::printf("%s: wrote %d per-layer weight files, reloaded %d\n",
                    name.c_str(), written, read);
        net = std::move(reload);
    }

    const nn::Tensor cat =
        nn::models::makeInputImage(net.inC, net.inH, net.inW, /*seed=*/7);

    // Reference forward pass for the actual classification result.
    const nn::Tensor out = net.forward(cat);
    std::vector<uint32_t> order(out.size());
    for (uint32_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](uint32_t a, uint32_t b) {
                          return out[a] > out[b];
                      });
    std::printf("%s top-5 classes (of %u):", name.c_str(),
                static_cast<unsigned>(out.size()));
    for (int i = 0; i < 5; i++)
        std::printf(" #%u(%.3g)", order[i], out[order[i]]);
    std::printf("\n");

    // Sampled timing simulation for the per-layer profile (prefetched
    // on the engine at program start, so it is already done or in
    // flight by the time we get here).
    const rt::NetRun &run = rt::Engine::global().run(rt::JobSpec{name});

    Table t(name + ": simulated per-layer profile (top 8 by time)");
    t.header({"layer", "type", "time (us)", "share"});
    std::vector<const rt::LayerRun *> byTime;
    for (const auto &l : run.layers)
        byTime.push_back(&l);
    std::sort(byTime.begin(), byTime.end(),
              [](const rt::LayerRun *a, const rt::LayerRun *b) {
                  return a->timeSec() > b->timeSec();
              });
    for (size_t i = 0; i < byTime.size() && i < 8; i++) {
        t.row({byTime[i]->name, byTime[i]->figType,
               Table::num(byTime[i]->timeSec() * 1e6, 1),
               Table::pct(byTime[i]->timeSec() / run.totalTimeSec)});
    }
    t.print(std::cout);
    std::printf("%s: %.2f ms simulated, %.1f W peak, %llu KB device "
                "memory\n\n",
                name.c_str(), run.totalTimeSec * 1e3, run.peakPowerW,
                static_cast<unsigned long long>(run.deviceBytes / 1024));
}

} // namespace

int
main()
{
    setVerbose(false);
    // Kick off both simulations before the (serial) CPU reference
    // forward passes; the engine overlaps them with the printing.
    rt::Engine::global().prefetch({rt::JobSpec{"alexnet"},
                                   rt::JobSpec{"squeezenet"}});
    classify("alexnet");
    classify("squeezenet");
    std::printf("imagenet_classify: OK\n");
    return 0;
}
