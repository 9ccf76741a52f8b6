/**
 * @file
 * Trajectory recording and the ArchGym Dataset (paper §3.4, §7.1).
 *
 * Because every agent talks to every environment through the same
 * interface, each (action, observation, reward) exchange can be logged
 * uniformly. Accumulated trajectories form standardized datasets that are
 * merged (for size) or sampled by agent type (for diversity) to train
 * proxy cost models.
 *
 * ## Dataset CSV schema
 *
 * One trajectory serializes (writeCsv) as a *block*:
 *
 *     # env=<environment name>
 *     # agent=<agent name>
 *     # hyperparams=<HyperParams::str(), e.g. "lr=0.1,pop=32">
 *     # action_dims=<number of action columns>
 *     <param>,<param>,...,<metric>,<metric>,...,reward      <- header row
 *     1,4,0.5,...                                           <- data rows
 *
 * The comment-header keys are `env`, `agent`, `hyperparams`, and
 * `action_dims`. The three names are JSON string bodies
 * (jsonio::escape, no quotes): a newline, quote or backslash in a name
 * cannot split the block, plain names (every in-tree gym, agent and
 * HyperParams::str()) are written unchanged, and an empty value is a
 * value. `action_dims` is the authoritative split between the action
 * columns and the metric columns (readers fall back to assuming three
 * metrics + reward only for foreign CSVs without the hint).
 * Doubles are written in shortest round-trip form (std::to_chars), so a
 * CSV round trip is value-exact. A file may hold many blocks back to
 * back — each `# env=` line after a header row starts a new trajectory —
 * which is how per-shard CSVs stream many runs into one file.
 *
 * ## Shard / manifest layout and the resume contract
 *
 * A sharded sweep directory (see runSweepSharded in core/driver.h) is:
 *
 *     <dir>/manifest.json       sweep identity: env, agent, configCount,
 *                               shardSize, baseSeed, maxSamples,
 *                               exportDataset, configsHash
 *     <dir>/shard_0000.jsonl    one JSON line per configuration:
 *                               config index, seed, bestReward,
 *                               bestSampleIndex, samplesUsed,
 *                               bestAction, hyper
 *     <dir>/shard_0000.csv      that shard's trajectories (multi-block
 *                               CSV, present when exportDataset)
 *     ...                       shard_0001.*, shard_0002.*, ...
 *
 * While a shard runs, each finished run is one crc-framed record (its
 * result line plus its CSV block) appended to shard_NNNN.partial.log;
 * failed attempts go to shard_NNNN.quarantine.log. Neither extension is
 * .csv, so Dataset::loadDirectory never reads them. Finalising copies
 * the records into the two final files and renames them into place,
 * the .jsonl last as the shard's atomic completion marker. Shards are
 * deterministic config-range partitions ([0,S), [S,2S), ...) and
 * per-config seeds depend only on the config index, so any shard
 * re-runs bit-identically in isolation. Resume validates the manifest
 * against the requested sweep (mismatch throws), re-ingests completed
 * shards from their .jsonl, repairs an interrupted shard run by run
 * from its partial log and runs only what is missing, yielding results
 * and dataset files bit-identical to an uninterrupted run at any
 * worker count. core/shard_store.h holds the record formats and
 * docs/sweep_service.md the cooperative protocol.
 * Dataset::loadDirectory ingests such directories transparently (it
 * reads every *.csv, recursing into subdirectories, in sorted order).
 */

#ifndef ARCHGYM_CORE_TRAJECTORY_H
#define ARCHGYM_CORE_TRAJECTORY_H

#include <iosfwd>
#include <string>
#include <vector>

#include "core/environment.h"
#include "core/param_space.h"
#include "mathutil/rng.h"

namespace archgym {

/** One logged agent-environment exchange. */
struct Transition
{
    Action action;
    Metrics observation;
    double reward = 0.0;
};

/**
 * Ordered record of one search run: metadata (which agent, which
 * environment, which hyperparameters) plus all transitions.
 */
class TrajectoryLog
{
  public:
    TrajectoryLog() = default;
    TrajectoryLog(std::string env_name, std::string agent_name,
                  std::string hyperparams)
        : envName_(std::move(env_name)), agentName_(std::move(agent_name)),
          hyperParams_(std::move(hyperparams))
    {}

    const std::string &envName() const { return envName_; }
    const std::string &agentName() const { return agentName_; }
    const std::string &hyperParams() const { return hyperParams_; }

    void append(Transition t) { transitions_.push_back(std::move(t)); }

    std::size_t size() const { return transitions_.size(); }
    bool empty() const { return transitions_.empty(); }
    const Transition &operator[](std::size_t i) const
    {
        return transitions_[i];
    }
    const std::vector<Transition> &transitions() const
    {
        return transitions_;
    }

    /**
     * CSV serialization: one block of the schema documented in the file
     * header (comment metadata, header row, one row per transition).
     * Doubles are shortest-round-trip, so read-back is value-exact.
     */
    void writeCsv(std::ostream &os, const ParamSpace &space,
                  const std::vector<std::string> &metric_names) const;

    /**
     * Parse the first block of a CSV previously produced by writeCsv().
     *
     * Malformed input throws std::runtime_error with a 1-based line
     * number: a data row whose cell count differs from the header row's,
     * a non-numeric (or partially numeric) cell, or an `action_dims`
     * hint that is not smaller than the column count.
     */
    static TrajectoryLog readCsv(std::istream &is);

    /** Parse every block of a (possibly multi-trajectory) CSV. */
    static std::vector<TrajectoryLog> readCsvAll(std::istream &is);

  private:
    std::string envName_;
    std::string agentName_;
    std::string hyperParams_;
    std::vector<Transition> transitions_;
};

/**
 * The ArchGym Dataset: a pool of trajectories from possibly many agents.
 * Supports the two aggregation axes of §7: merging (size) and per-agent
 * composition control (diversity).
 */
class Dataset
{
  public:
    void add(TrajectoryLog log) { logs_.push_back(std::move(log)); }

    std::size_t logCount() const { return logs_.size(); }
    const TrajectoryLog &log(std::size_t i) const { return logs_[i]; }

    /** Total number of transitions across all trajectories. */
    std::size_t transitionCount() const;

    /** Distinct agent names contributing to the dataset. */
    std::vector<std::string> agentNames() const;

    /** Flatten all transitions from all (or one agent's) trajectories. */
    std::vector<Transition> flatten() const;
    std::vector<Transition> flattenAgent(const std::string &agent) const;

    /**
     * Draw n transitions uniformly at random (without replacement when
     * n <= available, with replacement otherwise).
     */
    std::vector<Transition> sample(std::size_t n, Rng &rng) const;

    /**
     * Draw n transitions restricted to the given agents, split evenly —
     * the §7.1 "Diverse dataset" construction.
     */
    std::vector<Transition>
    sampleDiverse(std::size_t n, const std::vector<std::string> &agents,
                  Rng &rng) const;

    /**
     * Persist every trajectory as one CSV per log under `directory`
     * (created if absent) — the shareable-artifact side of §3.4. Files
     * are named NNN_<agent>.csv.
     */
    void saveDirectory(const std::string &directory,
                       const ParamSpace &space,
                       const std::vector<std::string> &metric_names) const;

    /**
     * Load every *.csv under `directory` (including multi-block shard
     * CSVs from a sharded sweep), recursing into subdirectories.
     * Entries are visited in sorted path order, never in raw
     * filesystem-iteration order, so the log order — and therefore
     * every seeded sample()/sampleDiverse() draw — is identical across
     * machines and filesystems for the same directory contents.
     */
    static Dataset loadDirectory(const std::string &directory);

  private:
    static std::vector<Transition>
    drawFrom(const std::vector<Transition> &pool, std::size_t n, Rng &rng);

    std::vector<TrajectoryLog> logs_;
};

} // namespace archgym

#endif // ARCHGYM_CORE_TRAJECTORY_H
