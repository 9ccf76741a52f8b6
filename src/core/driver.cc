#include "driver.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "core/fault_hooks.h"
#include "core/fsio.h"
#include "core/jsonio.h"
#include "core/lease.h"
#include "core/shard_store.h"
#include "core/worker_pool.h"

namespace archgym {

std::vector<double>
RunResult::bestSoFar() const
{
    std::vector<double> out(rewardHistory.size());
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < rewardHistory.size(); ++i) {
        if (rewardHistory[i] > best)
            best = rewardHistory[i];
        out[i] = best;
    }
    return out;
}

RunResult
runSearch(Environment &env, Agent &agent, const RunConfig &config)
{
    RunResult result;
    result.trajectory = TrajectoryLog(env.name(), agent.name(),
                                      agent.hyperParams().str());
    if (config.recordRewardHistory)
        result.rewardHistory.reserve(config.maxSamples);

    // Shared per-sample bookkeeping so the per-step and batched loops
    // record trajectories identically. Returns true when the search
    // should stop (objective satisfied).
    const auto record = [&](Action action, const StepResult &sr,
                            std::size_t index) {
        if (config.recordRewardHistory)
            result.rewardHistory.push_back(sr.reward);
        if (sr.reward > result.bestReward) {
            result.bestReward = sr.reward;
            result.bestAction = action;
            result.bestMetrics = sr.observation;
            result.bestSampleIndex = index;
        }
        if (config.logTrajectory) {
            result.trajectory.append(
                Transition{std::move(action), sr.observation, sr.reward});
        }
        ++result.samplesUsed;
        return config.stopWhenSatisfied && sr.done;
    };

    env.reset();
    const auto start = std::chrono::steady_clock::now();
    if (config.batchEval) {
        std::size_t i = 0;
        while (i < config.maxSamples) {
            resilience::checkpoint();
            const std::vector<Action> actions =
                agent.selectActionBatch(config.maxSamples - i);
            if (actions.empty())
                break;  // defensive: a batch agent with nothing to ask
            const std::vector<StepResult> results =
                env.stepBatch(actions);
            agent.observeBatch(actions, results);
            bool stop = false;
            for (std::size_t j = 0; j < results.size() && !stop; ++j)
                stop = record(actions[j], results[j], i++);
            if (stop)
                break;
        }
    } else {
        for (std::size_t i = 0; i < config.maxSamples; ++i) {
            // Per-sample cancellation point: even an environment whose
            // own loops carry no checkpoints (toy envs, foreign cost
            // models) honours the run deadline at sample granularity.
            resilience::checkpoint();
            Action action = agent.selectAction();
            const StepResult sr = env.step(action);
            agent.observe(action, sr.observation, sr.reward);
            if (record(std::move(action), sr, i))
                break;
        }
    }
    const auto end = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<double>(end - start).count();
    return result;
}

SweepResult
runSweep(Environment &env, const std::string &agent_name,
         const AgentBuilder &builder, const std::vector<HyperParams> &configs,
         const RunConfig &run_config, std::uint64_t base_seed)
{
    SweepResult sweep;
    sweep.agentName = agent_name;
    sweep.configs = configs;
    sweep.bestRewards.reserve(configs.size());
    sweep.runs.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        // Deterministic per-configuration seed so individual sweep points
        // can be reproduced in isolation.
        const std::uint64_t seed = sweepConfigSeed(base_seed, i);
        auto agent = builder(env.actionSpace(), configs[i], seed);
        RunResult run = runSearch(env, *agent, run_config);
        sweep.bestRewards.push_back(run.bestReward);
        sweep.runs.push_back(std::move(run));
    }
    return sweep;
}

SweepResult
runSweepParallel(const EnvFactory &env_factory,
                 const std::string &agent_name, const AgentBuilder &builder,
                 const std::vector<HyperParams> &configs,
                 const RunConfig &run_config, std::uint64_t base_seed,
                 std::size_t num_threads)
{
    SweepResult sweep;
    sweep.agentName = agent_name;
    sweep.configs = configs;
    sweep.bestRewards.assign(configs.size(), 0.0);
    sweep.runs.resize(configs.size());

    if (num_threads == 0)
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    num_threads = std::min(num_threads, std::max<std::size_t>(
                                            1, configs.size()));

    // One private environment per logical worker slot, built lazily on
    // the slot's first configuration and reused for all of them; agents
    // stay per run. Results are keyed by configuration index and seeds
    // depend only on the index, so the outcome is independent of how the
    // pool schedules slots onto threads.
    std::vector<std::unique_ptr<Environment>> envs(num_threads);

    // Search runs are heavyweight (maxSamples cost-model calls each), so
    // chunk = 1 is usually right; only very large sweeps of very small
    // runs benefit from coarser chunks that spare the shared counter.
    const std::size_t chunk = std::max<std::size_t>(
        1, configs.size() / (num_threads * 64));

    WorkerPool::shared().parallelFor(
        configs.size(),
        [&](std::size_t slot, std::size_t i) {
            auto &env = envs[slot];
            if (!env)
                env = env_factory();
            const std::uint64_t seed = sweepConfigSeed(base_seed, i);
            auto agent = builder(env->actionSpace(), configs[i], seed);
            RunResult run = runSearch(*env, *agent, run_config);
            sweep.bestRewards[i] = run.bestReward;
            sweep.runs[i] = std::move(run);
        },
        num_threads, chunk);
    return sweep;
}

// ---------------------------------------------------------------------
// Sharded, resumable sweep engine
// ---------------------------------------------------------------------

std::uint64_t
sweepConfigSeed(std::uint64_t base_seed, std::size_t index)
{
    return base_seed * 0x9e3779b97f4a7c15ULL +
           static_cast<std::uint64_t>(index);
}

std::uint64_t
sweepConfigsHash(const std::vector<HyperParams> &configs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= static_cast<unsigned char>(';');
        h *= 0x100000001b3ULL;
    };
    for (const auto &hp : configs)
        mix(hp.str());
    return h;
}

namespace {

namespace fs = std::filesystem;

struct ManifestFields
{
    std::string env;
    std::string agent;
    std::uint64_t configCount = 0;
    std::uint64_t shardSize = 0;
    std::uint64_t baseSeed = 0;
    std::uint64_t maxSamples = 0;
    std::uint64_t stopWhenSatisfied = 0;
    std::uint64_t batchEval = 0;
    std::uint64_t exportDataset = 0;
    std::uint64_t hash = 0;
};

std::string
renderManifest(const ManifestFields &m)
{
    std::ostringstream os;
    os << "{\"format\":1,\"env\":\"" << jsonio::escape(m.env)
       << "\",\"agent\":\"" << jsonio::escape(m.agent)
       << "\",\"configCount\":" << m.configCount
       << ",\"shardSize\":" << m.shardSize << ",\"baseSeed\":"
       << m.baseSeed << ",\"maxSamples\":" << m.maxSamples
       << ",\"stopWhenSatisfied\":" << m.stopWhenSatisfied
       << ",\"batchEval\":" << m.batchEval
       << ",\"exportDataset\":" << m.exportDataset << ",\"configsHash\":"
       << m.hash << "}\n";
    return os.str();
}

/**
 * Validate-or-write the manifest: resuming a directory that belongs to
 * a *different* sweep must fail loudly, never mix results. Every
 * mismatch names the offending field and both values.
 */
void
checkOrWriteManifest(const fs::path &path, const ManifestFields &manifest)
{
    if (!fs::exists(path)) {
        // Durable atomic create. Two workers racing here both render
        // identical bytes, so the second rename is a no-op overwrite.
        fsio::atomicWriteFile(path.string(), renderManifest(manifest));
        return;
    }
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::string ctx = "manifest " + path.string();
    if (text.empty())
        throw std::runtime_error(
            ctx + ": file is empty (torn or zeroed write) — delete it to "
                  "restart the sweep");
    const auto check = [&](const std::string &key, std::uint64_t expected) {
        const std::uint64_t got = jsonio::uintField(text, key, ctx);
        if (got != expected)
            throw std::runtime_error(
                ctx + ": '" + key + "' is " + std::to_string(got) +
                ", requested sweep has " + std::to_string(expected) +
                " — not the same sweep");
    };
    const auto checkString = [&](const std::string &key,
                                 const std::string &expected) {
        const std::string got = jsonio::stringField(text, key, ctx);
        if (got != expected)
            throw std::runtime_error(
                ctx + ": '" + key + "' is \"" + got +
                "\", requested sweep has \"" + expected +
                "\" — not the same sweep");
    };
    checkString("env", manifest.env);
    checkString("agent", manifest.agent);
    check("configCount", manifest.configCount);
    check("shardSize", manifest.shardSize);
    check("baseSeed", manifest.baseSeed);
    check("maxSamples", manifest.maxSamples);
    check("stopWhenSatisfied", manifest.stopWhenSatisfied);
    check("batchEval", manifest.batchEval);
    check("exportDataset", manifest.exportDataset);
    check("configsHash", manifest.hash);
}

/** A sweep result with no shard ingested yet. */
ShardedSweepResult
emptySweepResult(const std::string &agent_name,
                 const std::vector<HyperParams> &configs,
                 std::uint64_t base_seed)
{
    ShardedSweepResult result;
    result.agentName = agent_name;
    result.configs = configs;
    result.bestRewards.assign(configs.size(),
                              -std::numeric_limits<double>::infinity());
    result.bestActions.resize(configs.size());
    result.samplesUsed.assign(configs.size(), 0);
    result.quarantined.assign(configs.size(), 0);
    result.seeds.resize(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        result.seeds[i] = sweepConfigSeed(base_seed, i);
    return result;
}

/** Per-config attempt history recovered from a quarantine ledger. */
struct LedgerEntry
{
    std::size_t attempts = 0;   ///< highest durable attempt number
    std::string failureClass;   ///< of the latest attempt
    std::string error;          ///< of the latest attempt
};

/** What running a claimed shard needs from one runSweepSharded call. */
struct ShardRunner
{
    const EnvFactory &envFactory;
    const AgentBuilder &builder;
    const std::vector<HyperParams> &configs;
    const ShardedSweepOptions &options;
    const Environment &metaEnv;  ///< CSV schema and gap-block env name
    const std::string &agentName;
    const std::string workerId;
    RunConfig shardRun;
    std::size_t numThreads;
    // One private environment per logical worker slot, reused across
    // every shard this invocation runs (same discipline and same
    // determinism argument as runSweepParallel).
    std::vector<std::unique_ptr<Environment>> envs;
    ShardedSweepResult &result;

    bool runShard(std::size_t shard, std::size_t lo, std::size_t hi,
                  ShardStore &store, ShardLease &lease);
    void runConfig(std::size_t shard, std::size_t slot, std::size_t i,
                   ShardStore &store, const LedgerEntry &prior);

    // Results come from the finals only, whoever wrote them, so fresh,
    // repaired and resumed runs are reported from the same bytes.
    void ingest(const ShardStore &store)
    {
        for (const ResultRecord &r : store.readFinals()) {
            result.bestRewards[r.config] = r.bestReward;
            result.bestActions[r.config] = r.bestAction;
            result.samplesUsed[r.config] = r.samplesUsed;
            result.quarantined[r.config] = r.quarantined ? 1 : 0;
        }
    }

    // A completed shard (by an earlier invocation or a live peer) is
    // re-ingested instead of re-run, and the partial log a worker that
    // died after the renames left behind is swept up.
    void adopt(const ShardStore &store)
    {
        ingest(store);
        store.removePartial();
        ++result.shardsSkipped;
    }

    std::string csvBlock(const TrajectoryLog &log) const
    {
        std::ostringstream os;
        log.writeCsv(os, metaEnv.actionSpace(), metaEnv.metricNames());
        return os.str();
    }
};

/**
 * Execute one claimed shard: repair from the previous owner's partial
 * log, run what is missing, finalise, release the lease. Returns false
 * when this worker was fenced (a peer stole the lease mid-run and
 * finished first); the caller then ingests the peer's finals instead.
 */
bool
ShardRunner::runShard(std::size_t shard, std::size_t lo, std::size_t hi,
                      ShardStore &store, ShardLease &lease)
{
    // Repair pass: keep every run a previous owner made durable
    // (resume granularity is one run) and append after it. A durable
    // gap record repairs like any other run: the previous owner already
    // paid the attempts, never re-run.
    std::vector<bool> durable(hi - lo, false);
    const std::vector<std::size_t> repaired = store.repair();
    for (const std::size_t config : repaired)
        durable[config - lo] = true;
    result.runsRepaired += repaired.size();

    // Durable attempt history of this shard's poison candidates: what
    // previous owners already tried, by config. The ledger outlives
    // steals *and* shard completion (it is the quarantine post-mortem
    // record), so attempt budgets are fleet-wide.
    std::map<std::size_t, LedgerEntry> ledger;
    if (options.attempts.isolated()) {
        for (const AttemptRecord &a : store.readLedger()) {
            LedgerEntry &entry = ledger[a.config];
            if (a.attempt > entry.attempts)
                entry = LedgerEntry{a.attempt, a.failureClass, a.error};
        }
    }

    std::vector<std::size_t> missing;
    for (std::size_t i = lo; i < hi; ++i)
        if (!durable[i - lo])
            missing.push_back(i);

    WorkerPool::shared().parallelFor(
        missing.size(),
        [&](std::size_t slot, std::size_t m) {
            // Fenced while mid-shard (a peer judged us dead and stole
            // the lease): stop burning work, the finalise step below
            // yields to the thief's results.
            if (lease.lost())
                return;
            const auto it = ledger.find(missing[m]);
            runConfig(shard, slot, missing[m], store,
                      it == ledger.end() ? LedgerEntry{} : it->second);
        },
        numThreads, /*chunk=*/1);

    // A fenced stale owner must never reach the renames at all: an
    // isolated run that overstays its deadline here while the thief
    // *succeeds* on the same config would finalise a gap record over
    // the thief's real result. Yield first.
    if (lease.lost() || store.finalsExist()) {
        lease.release();  // ownership-checked no-op if stolen
        return false;
    }
    try {
        store.finalise();
    } catch (const std::exception &) {
        // A peer that stole our stale lease may have rewritten the
        // partial log or removed our staging files; if it finished the
        // shard (or our lease is gone), yield to it.
        if (lease.lost() || store.finalsExist()) {
            lease.release();
            return false;
        }
        throw;
    }
    lease.release();
    return true;
}

/**
 * Run config `i` until it succeeds or exhausts its attempt budget
 * (resuming the count from the ledger), persisting every failed
 * attempt and the final outcome before reporting it.
 */
void
ShardRunner::runConfig(std::size_t shard, std::size_t slot, std::size_t i,
                       ShardStore &store, const LedgerEntry &prior)
{
    const RunAttemptPolicy &pol = options.attempts;
    const bool isolated = pol.isolated();
    const std::size_t maxAttempts = std::max<std::size_t>(1, pol.maxAttempts);
    const auto persisted = [&] {
        if (faultHooks().afterRunPersisted)
            faultHooks().afterRunPersisted(workerId, shard, i);
    };

    ResultRecord record;
    record.config = i;
    record.seed = result.seeds[i];
    record.hyper = configs[i].str();
    std::size_t attempt = prior.attempts;
    std::string failClass = prior.failureClass;
    std::string failError = prior.error;

    while (attempt < maxAttempts) {
        if (attempt > 0) {
            const std::uint64_t delayMs =
                attemptBackoffMs(pol, record.seed, attempt);
            if (delayMs)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delayMs));
        }
        bool ok = false;
        RunResult run;
        try {
            // Arm the deadline before anything the attempt executes
            // (including the beforeRun hook): a hang anywhere inside
            // the attempt counts against it, and the lease watchdog
            // sees the overstay even if no checkpoint ever runs.
            resilience::CancelScope scope(workerId,
                                          isolated ? pol.runDeadlineMs : 0);
            if (faultHooks().beforeRun)
                faultHooks().beforeRun(workerId, shard, i);
            auto &env = envs[slot];
            if (!env)
                env = envFactory();
            auto agent = builder(env->actionSpace(), configs[i], record.seed);
            run = runSearch(*env, *agent, shardRun);
            ok = true;
        } catch (const WorkerKilled &) {
            throw;  // injected SIGKILL: never isolated
        } catch (const RunTimeout &e) {
            if (!isolated)
                throw;
            failClass = "timeout";
            failError = e.what();
        } catch (const std::exception &e) {
            if (!isolated)
                throw;
            failClass = "throw";
            failError = e.what();
        }
        if (ok) {
            record.bestReward = run.bestReward;
            record.bestSampleIndex = run.bestSampleIndex;
            record.samplesUsed = run.samplesUsed;
            record.bestAction = run.bestAction;
            // Run-granular durability: persist before reporting.
            store.appendRun(record, options.exportDataset
                                        ? csvBlock(run.trajectory)
                                        : std::string());
            persisted();
            return;
        }
        ++attempt;
        // The attempt count becomes durable *before* any retry: a thief
        // that steals this shard resumes the count where it stands —
        // without this, every thief restarts the budget and a poison
        // config livelocks the fleet.
        store.appendAttempt(AttemptRecord{i, record.seed, attempt, failClass,
                                          failError, workerId});
        persisted();
    }

    if (!pol.quarantine)
        throw std::runtime_error("sweep config " + std::to_string(i) +
                                 " failed after " + std::to_string(attempt) +
                                 " attempts (" + failClass +
                                 "): " + failError);

    // Quarantine: the configuration is accounted for with a
    // deterministic gap record (result line + empty dataset block), so
    // the sweep completes degraded and the finals stay byte-identical
    // on every worker. Class and error come from the configuration's
    // own failure, never from worker identity or timing.
    record.quarantined = true;
    record.attempts = attempt;
    record.failureClass = failClass;
    record.error = failError;
    store.appendRun(record,
                    options.exportDataset
                        ? csvBlock(TrajectoryLog(metaEnv.name(), agentName,
                                                 record.hyper)) +
                              "# quarantined=1\n"
                        : std::string());
    persisted();
}

} // namespace

ShardedSweepResult
runSweepSharded(const EnvFactory &env_factory,
                const std::string &agent_name, const AgentBuilder &builder,
                const std::vector<HyperParams> &configs,
                const RunConfig &run_config,
                const ShardedSweepOptions &options, std::uint64_t base_seed)
{
    if (options.directory.empty())
        throw std::invalid_argument(
            "runSweepSharded: options.directory is empty");
    if (options.shardSize == 0)
        throw std::invalid_argument(
            "runSweepSharded: options.shardSize is zero");

    const fs::path dir(options.directory);
    fs::create_directories(dir);

    // One metadata environment per invocation: its name() anchors the
    // manifest to the environment family (resuming a directory that
    // belongs to another environment must fail, not re-ingest foreign
    // results), and it supplies the action space / metric names of the
    // exported trajectory blocks.
    const std::unique_ptr<Environment> metaEnv = env_factory();

    checkOrWriteManifest(
        dir / "manifest.json",
        ManifestFields{.env = metaEnv->name(),
                       .agent = agent_name,
                       .configCount = configs.size(),
                       .shardSize = options.shardSize,
                       .baseSeed = base_seed,
                       .maxSamples = run_config.maxSamples,
                       .stopWhenSatisfied = run_config.stopWhenSatisfied,
                       .batchEval = run_config.batchEval,
                       .exportDataset = options.exportDataset,
                       .hash = sweepConfigsHash(configs)});

    const std::size_t shardCount =
        (configs.size() + options.shardSize - 1) / options.shardSize;

    ShardedSweepResult result =
        emptySweepResult(agent_name, configs, base_seed);
    result.shardCount = shardCount;

    std::size_t numThreads = options.numThreads;
    if (numThreads == 0)
        numThreads = std::max(1u, std::thread::hardware_concurrency());
    numThreads = std::min(
        numThreads, std::max<std::size_t>(1, options.shardSize));

    LeaseOptions leaseOpts;
    leaseOpts.workerId = options.workerId.empty()
                             ? "pid:" + std::to_string(::getpid())
                             : options.workerId;
    leaseOpts.ttlMs = options.leaseTtlMs;
    leaseOpts.heartbeatMs = options.heartbeatMs;

    ShardRunner runner{env_factory, builder, configs, options, *metaEnv,
                       agent_name, leaseOpts.workerId, run_config,
                       numThreads, {}, result};
    runner.envs.resize(numThreads);
    // The engine persists scalars + streamed trajectories only;
    // retaining per-run curves/logs in memory would defeat the
    // bounded-memory contract.
    runner.shardRun.recordRewardHistory = false;
    runner.shardRun.logTrajectory = options.exportDataset;

    std::vector<bool> ingested(shardCount, false);
    std::size_t remaining = shardCount;
    bool capped = false;

    // Cooperative claim loop: scan for work, ingest what peers have
    // finished, claim and run what nobody owns, back off while every
    // remaining shard is leased by a live peer.
    while (remaining > 0 && !capped) {
        bool progress = false;
        for (std::size_t shard = 0; shard < shardCount; ++shard) {
            if (ingested[shard])
                continue;
            const std::size_t lo = shard * options.shardSize;
            const std::size_t hi =
                std::min(configs.size(), lo + options.shardSize);
            ShardStore store(options.directory, shard, lo, hi, base_seed,
                             options.exportDataset);
            if (store.finalsExist()) {
                runner.adopt(store);
                // A worker that died between its renames and its
                // release leaves a lease only a stale judgement frees.
                removeDeadLease(options.directory, shard, leaseOpts);
            } else {
                if (options.maxShards != 0 &&
                    result.shardsRun >= options.maxShards) {
                    capped = true;  // interrupted by request
                    break;
                }
                auto lease = ShardLease::tryAcquire(options.directory,
                                                    shard, leaseOpts);
                if (!lease)
                    continue;  // a live peer owns it; move on
                if (lease->stolen())
                    ++result.shardsStolen;
                if (faultHooks().afterShardClaimed)
                    faultHooks().afterShardClaimed(leaseOpts.workerId,
                                                   shard);
                // A peer may have finished and released between our
                // scan and the claim; re-check under ownership.
                if (store.finalsExist()) {
                    runner.adopt(store);
                    lease->release();
                } else if (runner.runShard(shard, lo, hi, store, *lease)) {
                    runner.ingest(store);
                    ++result.shardsRun;
                } else {
                    continue;  // fenced mid-run; re-scan picks up finals
                }
            }
            ingested[shard] = true;
            --remaining;
            progress = true;
        }
        if (remaining > 0 && !capped && !progress)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(options.pollMs));
    }

    result.complete = remaining == 0;
    for (const std::uint8_t q : result.quarantined)
        if (q)
            ++result.runsQuarantined;
    return result;
}

} // namespace archgym
