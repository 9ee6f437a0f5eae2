/**
 * @file
 * estimate::Estimator — the estimate tier's dispatcher backend.
 *
 * Answers a JobSpec from the fitted per-family models (estimate/model.hh)
 * in microseconds instead of simulating: each layer's feature vector is
 * answered from its family's exact-shape table (or its regressors, for
 * shapes the sweep never saw) and the predictions are composed into a
 * NetRun shaped exactly like a simulated one (per-layer
 * LayerRuns with one synthesized KernelStats each, merged totals), except
 * flagged `estimated = true` and carrying the models' validated relative
 * error bounds.
 *
 * estimate() refuses — returning false with a reason, so the caller falls
 * back to simulation — whenever the models cannot honour the request:
 * inline (unnamed) policy, an L1D size or scheduler other than the
 * defaults the sweep was fit at, no bundle fit for the (policy,
 * platform), a layer whose family is unfitted, or a requested error
 * bound tighter than the bound the models actually validated.
 *
 * Bundles load lazily from a weights directory (one JSON file per
 * (policy, platform), see Bundle::fileName) and are cached for the
 * Estimator's lifetime; a failed load is cached too, so a serve loop
 * missing its weights pays the disk probe once, not per request.
 */

#ifndef TANGO_ESTIMATE_ESTIMATOR_HH
#define TANGO_ESTIMATE_ESTIMATOR_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "estimate/model.hh"
#include "runtime/job.hh"

namespace tango::estimate {

/** Evaluates estimate-tier jobs against a directory of fitted bundles. */
class Estimator
{
  public:
    /** @param weights_dir directory of Bundle::fileName() JSON files. */
    explicit Estimator(std::string weights_dir);

    /**
     * Answer @p spec from the fitted models.
     * @return true with @p run filled (estimated=true, error bounds
     *         attached) — or false with a one-line fallback reason in
     *         @p reason, run untouched.  The spec must already have
     *         passed validate().
     */
    bool estimate(const rt::JobSpec &spec, rt::NetRun &run,
                  std::string *reason = nullptr);

    const std::string &dir() const { return dir_; }

    /**
     * The process-wide estimator.  Weights directory:
     * $TANGO_ESTIMATE_WEIGHTS when set, else the compiled-in default
     * (the source tree's weights/estimate/).
     */
    static Estimator &global();

  private:
    struct Entry
    {
        std::unique_ptr<Bundle> bundle;   ///< null = load failed
        std::string error;
    };

    /** Load (or recall) the bundle for one (policy, platform). */
    const Entry &load(const std::string &policy,
                      const std::string &platform);

    std::string dir_;
    std::mutex mu_;
    std::map<std::string, Entry> cache_;   ///< keyed by bundle file name
};

} // namespace tango::estimate

#endif // TANGO_ESTIMATE_ESTIMATOR_HH
