/**
 * @file
 * Proxy-screened sweep mode: train a random-forest proxy on a pilot
 * slice of the config grid, rank the remaining configurations through
 * batched proxy inference, and submit only the top-K frontier to the
 * real sharded/leased sweep engine (DeepArchitect-style screen-then-
 * simulate; see docs/proxy_serving.md for the protocol).
 *
 * Determinism contract: every stage is seeded by the same
 * sweepConfigSeed(base_seed, index) formula as the full sweep engines,
 * the pilot and frontier stages are ordinary runSweepSharded runs
 * (resumable, crash-safe, cooperative), and the screen decision itself
 * is recorded in <directory>/screen.json via fsio::atomicWriteFile. A
 * resumed invocation validates the record against the requested sweep
 * (mismatch throws naming the field, like the sweep manifest) and
 * reuses the recorded ranking rather than re-deriving it, so the
 * frontier — and therefore every simulated result — is bit-identical
 * across interrupt/resume schedules.
 */

#ifndef ARCHGYM_PROXY_PROXY_SCREEN_H
#define ARCHGYM_PROXY_PROXY_SCREEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/objective.h"
#include "proxy/proxy_model.h"

namespace archgym {

/**
 * Environment serving predictions from a trained ProxyCostModel: step()
 * answers from the scalar forest oracle, stepBatch() from the batched
 * SoA arena kernel — bit-identical by the predictBatch contract, so
 * screening runs satisfy the Environment::stepBatch determinism
 * clause. Rewards come from the source environment's Objective over
 * the *predicted* metrics.
 */
class ProxyEnvironment : public Environment
{
  public:
    /**
     * References are borrowed; the proxy, space, and objective must
     * outlive the environment. @pre proxy.trained()
     */
    ProxyEnvironment(const ProxyCostModel &proxy, const ParamSpace &space,
                     std::vector<std::string> metric_names,
                     const Objective &objective,
                     std::string name = "ProxyEnv");

    const std::string &name() const override { return name_; }
    const ParamSpace &actionSpace() const override { return space_; }
    const std::vector<std::string> &metricNames() const override
    {
        return metricNames_;
    }

    StepResult step(const Action &action) override;
    std::vector<StepResult>
    stepBatch(const std::vector<Action> &actions) override;

  private:
    const ProxyCostModel &proxy_;
    const ParamSpace &space_;
    const std::vector<std::string> metricNames_;
    const Objective &objective_;
    const std::string name_;
};

/** Options of the proxy-screened sweep mode. */
struct ProxyScreenOptions
{
    /**
     * Root directory: holds screen.json, the pilot sweep under
     * pilot/, its columnar conversion pilot_columnar.col{bin,idx},
     * and the frontier sweep under frontier/.
     */
    std::string directory;

    /**
     * Objective translating predicted metrics into screening rewards —
     * normally the source environment's own objective. Required.
     */
    const Objective *objective = nullptr;

    /** Leading configurations simulated for real as proxy training
     *  data (clamped to the config count). */
    std::size_t pilotConfigs = 16;

    /** Screened configurations promoted to real simulation. */
    std::size_t screenTopK = 8;

    /**
     * Proxy-search budget per screened configuration;
     * 0 = run_config.maxSamples.
     */
    std::size_t screenSamples = 0;

    /**
     * Train on at most this many pilot transitions, minibatch-sampled
     * through the columnar reader; 0 = all pilot transitions.
     */
    std::size_t trainRows = 0;

    /** Forest hyperparameters of the proxy (also seeds trainRows
     *  sampling, so training data is deterministic). */
    ForestConfig forest;

    /** Passed through to the pilot/frontier sharded sweeps. */
    std::size_t shardSize = 16;
    /** Worker slots of the pilot/frontier sweeps and of screening
     *  (0 = hardware concurrency). */
    std::size_t numThreads = 0;
};

/** Outcome of a proxy-screened sweep. */
struct ProxyScreenResult
{
    /**
     * Screened configuration indices (global, in [pilot, configCount)),
     * best proxy reward first; ties broken by lower index.
     */
    std::vector<std::size_t> ranking;
    std::vector<double> screenRewards; ///< proxy bestReward, ranking order

    /** The top-K prefix of `ranking` submitted to the simulator. */
    std::vector<std::size_t> frontier;

    ShardedSweepResult pilot;         ///< real results, configs [0, pilot)
    ShardedSweepResult frontierSweep; ///< real results, frontier configs

    bool screenReused = false;   ///< ranking reloaded from screen.json
    std::size_t trainRowCount = 0;
    /** Proxy samples spent screening, summed over the slots. */
    std::size_t proxyEvaluations = 0;
};

/**
 * Run the screen-then-simulate protocol over `configs`:
 *
 *  1. pilot   — runSweepSharded on configs [0, pilotConfigs) with
 *               trajectory export (resumable; base_seed indices align
 *               with the full grid);
 *  2. train   — convert the pilot exports to columnar, train one
 *               forest per metric;
 *  3. screen  — run each remaining config's agent against a
 *               ProxyEnvironment (batched inference; configs fan out
 *               over numThreads pool slots, one environment per slot),
 *               rank by proxy best reward, record the decision in
 *               screen.json atomically (validated + reused on resume);
 *  4. frontier — runSweepSharded on the top-K configs in ranking
 *               order (resumable).
 *
 * Screening runs use the global-grid seed sweepConfigSeed(base_seed,
 * i); the frontier re-simulation, being an ordinary sharded sweep over
 * its own config list, uses frontier-local indices — both derived only
 * from (base_seed, index), never from scheduling.
 */
ProxyScreenResult
runSweepProxyScreened(const EnvFactory &env_factory,
                      const std::string &agent_name,
                      const AgentBuilder &builder,
                      const std::vector<HyperParams> &configs,
                      const RunConfig &run_config,
                      const ProxyScreenOptions &options,
                      std::uint64_t base_seed = 1);

} // namespace archgym

#endif // ARCHGYM_PROXY_PROXY_SCREEN_H
