/**
 * @file
 * Extension: weight quantization (the paper's stated plan: "We plan to
 * apply quantization for the proposed benchmark suite").
 *
 * Runs AlexNet and CifarNet with f32 weights and with s16 Q-format
 * weights, comparing device memory footprint, execution time, and the
 * instruction data-type mix (the s16 loads become visible, shifting the
 * Fig 10 distribution further toward integers).
 */

#include "bench_util.hh"

#include "nn/weights.hh"

namespace {

using namespace tango;

/** Submit one variant as a custom engine job (the f32 variant shares
 *  the standard JobSpec cache entry; the quantized one gets "+quant"). */
std::shared_future<const rt::NetRun *>
submitVariant(const std::string &name, bool quantized)
{
    const rt::JobSpec base{name};
    const std::string key = base.cacheKey().str + (quantized ? "+quant" : "");
    return bench::engine().submit(
        key, base.gpuConfig(), [name, quantized](sim::Gpu &gpu) {
            nn::AnyModel model = nn::models::buildAny(name);
            if (quantized) {
                // Quantization only changes weight storage; the
                // timing-only path needs the flags but not the
                // (expensive) weight values, except that the flags are
                // set by the quantizer, which needs weights.
                nn::initWeights(model);
                nn::quantizeConvWeights(model.cnn());
            }
            rt::Runtime rtm(gpu);
            return rtm.run(model, rt::RunPolicy::named("bench"));
        });
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    // All four variants simulate concurrently.
    for (const char *name : {"cifarnet", "alexnet"}) {
        for (bool quant : {false, true})
            submitVariant(name, quant);
    }

    Table t("Weight quantization: f32 vs s16 (Q15) conv weights");
    t.header({"network", "variant", "device mem (KB)", "time (ms)",
              "f32 ops", "s16 ops"});
    for (const char *name : {"cifarnet", "alexnet"}) {
        for (bool quant : {false, true}) {
            const rt::NetRun &run = *submitVariant(name, quant).get();
            const prof::Series d = prof::dtypeBreakdown(run.totals);
            double f32 = 0.0, s16 = 0.0;
            for (const auto &[k, v] : d) {
                if (k == "f32")
                    f32 = v;
                if (k == "s16")
                    s16 = v;
            }
            t.row({name, quant ? "s16-quant" : "f32",
                   Table::num(double(run.deviceBytes) / 1024, 0),
                   Table::num(run.totalTimeSec * 1e3, 2),
                   Table::pct(f32), Table::pct(s16)});
            bench::registerValue(std::string("ext_quant/") + name + "/" +
                                     (quant ? "s16" : "f32") + "/mem_kb",
                                 "KB", double(run.deviceBytes) / 1024);
        }
    }
    t.print(std::cout);
    std::cout << "Quantized conv weights halve the weight footprint and "
                 "surface s16 loads in the Fig 10 data-type mix; the "
                 "dequantize (cvt+mul) adds a small instruction "
                 "overhead per tap.\n";

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
