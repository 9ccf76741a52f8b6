/**
 * @file
 * The lottery benchmark's workloads. Each one is a closed batch: one
 * process submits a whole lottery to a public sweep entry point
 * (runSweepSharded or runSweepProxyScreened) and waits for it. Inputs
 * (configurations, per-config seeds, the DRAM trace) come from the seed
 * alone. perfbench/README.md records why each workload was chosen.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/objective.h"
#include "tracing.h"

namespace perfbench {

struct WorkloadSpec
{
    std::string name;
    std::string env;    ///< "farsi" | "dram-cloud1" | "timeloop"
    std::string agent;  ///< agent registry name
    std::size_t configs = 0;
    std::size_t samples = 0;     ///< simulator samples per config
    std::size_t shardSize = 0;
    std::size_t threads = 0;     ///< sweep threads the workload owns
    bool batchEval = false;
    /** Configurations re-run in memory by the correctness check. */
    std::size_t checkConfigs = 0;

    bool proxy = false;          ///< runSweepProxyScreened
    std::size_t pilotConfigs = 0;
    std::size_t screenTopK = 0;
    std::size_t screenSamples = 0;
    std::size_t trainRows = 0;
};

const std::vector<std::string> &workloadNames();

/** @throws std::invalid_argument for an unknown name */
WorkloadSpec workloadSpec(const std::string &name);

/** Everything a batch is built from; a pure function of spec and seed. */
struct Inputs
{
    archgym::EnvFactory envFactory;
    archgym::AgentBuilder builder;
    std::vector<archgym::HyperParams> configs;
    archgym::RunConfig runConfig;
    std::uint64_t baseSeed = 0;
    /** Owner of the screening objective (proxy workload only). */
    std::shared_ptr<archgym::Environment> objectiveEnv;
    const archgym::Objective *objective = nullptr;
};

Inputs makeInputs(const WorkloadSpec &spec, std::uint64_t seed);

/** What one batch produced. */
struct BatchOutcome
{
    /** Engine sweeps in execution order (pilot then frontier for the
     *  proxy workload). */
    std::vector<archgym::ShardedSweepResult> sweeps;
    std::size_t decided = 0;  ///< configurations decided (ranked)
    std::size_t simulatedConfigs = 0;  ///< run on the real simulator
    std::size_t pilotSamples = 0;  ///< real samples before screening
    std::size_t trainRows = 0;
    std::size_t proxyEvaluations = 0;
    std::string exportDir;    ///< holds the exported trajectories
    std::size_t exportConfigs = 0;
};

/**
 * Run one closed batch in a fresh directory `dir` through the given
 * (possibly wrapped) factory and builder.
 */
BatchOutcome runBatch(const WorkloadSpec &spec, const Inputs &inputs,
                      const archgym::EnvFactory &env_factory,
                      const archgym::AgentBuilder &builder,
                      const std::string &dir);

struct CheckOutcome
{
    std::size_t checked = 0;     ///< configs re-run in memory
    std::size_t mismatched = 0;  ///< of those, differing bit for bit
    std::size_t transitionsExpected = 0;
    std::size_t transitionsFound = 0;
    std::vector<std::string> errors;

    bool ok() const { return errors.empty(); }
    /** Configurations the check counts as failed. Quarantined ones
     *  are counted by the caller, for every batch. */
    std::size_t failedConfigs(std::size_t samples) const;
};

/**
 * Correctness check of a finished batch, run outside any timed
 * section: re-run a fixed slice of configurations in memory through
 * runSearch and compare bit for bit, then read the export back through
 * Dataset::loadDirectory. Moves the exported CSVs into subdirectories
 * of the export directory, so run it last.
 */
CheckOutcome checkBatch(const WorkloadSpec &spec, const Inputs &inputs,
                        const BatchOutcome &outcome);

/** FNV-1a digest of the results and of every file the batch wrote. */
std::uint64_t batchDigest(const BatchOutcome &outcome,
                          const std::string &dir);

/** Median; 0 for an empty vector. */
double median(std::vector<double> v);

/** Nearest-rank percentile of a sorted vector; 0 when empty. */
double percentile(const std::vector<double> &sorted, double p);

/**
 * Per-layer metrics of one traced batch that ran from `t0` to `t1` on
 * the recorder's clock (metric names as in perfbench/README.md).
 * Shares are fractions of the thread-seconds the workload owns (wall x
 * its sweep threads); the engine gets what agent, environment and proxy
 * spans leave, so the four shares add up to 1.
 */
std::map<std::string, double>
layerMetrics(const WorkloadSpec &spec, const Inputs &inputs,
             const BatchOutcome &outcome, const Recorder &rec,
             std::uint64_t t0, std::uint64_t t1);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
