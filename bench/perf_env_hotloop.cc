/**
 * @file
 * Perf tracking for the environment hot loops across all four families
 * (DRAM, FARSI, Timeloop, Maestro), plus sweep throughput through the
 * persistent worker pool.
 *
 * For each family the bench measures env-steps/sec over a fixed cycle
 * of sampled actions on two paths:
 *
 *  - optimized: the environment's step() — decoded-once workload views,
 *    persistent simulator state, scratch buffers reset by reuse;
 *  - baseline: the pre-PR per-step-rebuild path — the reference cost
 *    model entry points that re-derive workload structure (predecessor
 *    scans, tile candidate lists, loop-order argsorts, trace decode)
 *    on every call, exactly what step() used to do.
 *
 * Sweep throughput runs runSweepParallel (worker pool, one env per
 * worker slot) at 1/2/4/8 threads and reports configs/sec.
 *
 * Batch mode measures the vectorized generation-evaluation path: a GA
 * at population 64 searching each family through the batched ask-tell
 * loop (selectActionBatch -> stepBatch -> observeBatch), with
 * Environment::setBatchWorkers at 1/2/4/8 — env-steps/sec per worker
 * count, i.e. how fast one population-based search run chews through
 * generations when stepBatch fans out over the shared pool.
 *
 * Emits a machine-readable line prefixed "BENCH_envs.json " on stdout
 * and writes the same JSON to BENCH_envs.json in the working directory,
 * alongside BENCH_dram.json from perf_dram_hotloop.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "agents/registry.h"
#include "core/driver.h"
#include "envs/dram_gym_env.h"
#include "envs/farsi_gym_env.h"
#include "envs/maestro_gym_env.h"
#include "envs/timeloop_gym_env.h"
#include "farsi/scheduler.h"
#include "maestro/cost_model.h"
#include "oracles/oracles.h"
#include "timeloop/cost_model.h"

using namespace archgym;

namespace {

constexpr double kMinSeconds = 0.5;
constexpr std::size_t kMaxSteps = 2000000;
constexpr std::size_t kNumActions = 64;

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * Run fn repeatedly until the time budget is hit; returns calls/sec.
 * `batch` calls share one clock read so the timer does not shadow
 * sub-microsecond steps (use 1 for coarse work like whole sweeps).
 */
template <typename Fn>
double
stepsPerSecond(Fn &&fn, std::size_t batch = 8)
{
    fn();  // warmup (first-call allocations excluded, as in steady state)
    std::size_t steps = 0;
    const auto start = std::chrono::steady_clock::now();
    auto now = start;
    while (seconds(start, now) < kMinSeconds && steps < kMaxSteps) {
        for (std::size_t b = 0; b < batch; ++b)
            fn();
        steps += batch;
        now = std::chrono::steady_clock::now();
    }
    return static_cast<double>(steps) / seconds(start, now);
}

/** Deterministic cycle of on-grid actions for an environment. */
std::vector<Action>
sampleActions(const Environment &env, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Action> actions;
    actions.reserve(kNumActions);
    for (std::size_t i = 0; i < kNumActions; ++i)
        actions.push_back(env.actionSpace().sample(rng));
    return actions;
}

struct FamilyResult
{
    std::string family;
    double stepsPerSec = 0.0;
    double baselineStepsPerSec = 0.0;
    double speedup() const { return stepsPerSec / baselineStepsPerSec; }
};

struct BatchPoint
{
    std::size_t threads;
    double stepsPerSec;
};

struct BatchResult
{
    std::string family;
    std::vector<BatchPoint> points;
};

constexpr std::size_t kBatchPopulation = 64;

/**
 * Env-steps/sec of a batched GA search (population kBatchPopulation) at
 * the given stepBatch worker count: repeated seeded runs of
 * `generations` generations until the time budget is hit.
 */
double
batchedGaStepsPerSec(Environment &env, std::size_t workers,
                     std::size_t generations, double &guard)
{
    env.setBatchWorkers(workers);
    RunConfig cfg;
    cfg.maxSamples = kBatchPopulation * generations;
    cfg.recordRewardHistory = false;
    cfg.batchEval = true;
    HyperParams hp;
    hp.set("population_size",
           static_cast<std::int64_t>(kBatchPopulation));

    std::size_t steps = 0;
    // One warmup run builds the per-slot evaluation state.
    {
        auto agent = makeAgent("GA", env.actionSpace(), hp, 1234);
        guard += runSearch(env, *agent, cfg).bestReward;
    }
    const auto start = std::chrono::steady_clock::now();
    auto now = start;
    while (seconds(start, now) < kMinSeconds && steps < kMaxSteps) {
        auto agent = makeAgent("GA", env.actionSpace(), hp, 1234);
        const RunResult r = runSearch(env, *agent, cfg);
        guard += r.bestReward;
        steps += r.samplesUsed;
        now = std::chrono::steady_clock::now();
    }
    return static_cast<double>(steps) / seconds(start, now);
}

} // namespace

int
main()
{
    std::vector<FamilyResult> families;
    double guard = 0.0;  // keep the optimizer honest

    // --- DRAMGym ------------------------------------------------------
    {
        DramGymEnv::Options o;
        o.traceLength = 512;
        DramGymEnv env(o);
        const auto actions = sampleActions(env, 11);
        std::size_t i = 0;
        FamilyResult r;
        r.family = "DRAMGym";
        r.stepsPerSec = stepsPerSecond([&] {
            guard += env.step(actions[i++ % kNumActions]).reward;
        });
        // Seed path: per-step controller construction + full trace
        // copy/decode (what step() did before the zero-copy rewrite).
        i = 0;
        r.baselineStepsPerSec = stepsPerSecond([&] {
            const dram::ControllerConfig cfg =
                env.decodeAction(actions[i++ % kNumActions]);
            oracle::ReferenceDramController ref(env.options().spec, cfg);
            const dram::SimResult sim = ref.run(env.trace());
            guard += env.objective().reward(
                {sim.avgLatencyNs, sim.power.avgPowerW,
                 sim.totalEnergyPj() / 1e6});
        });
        families.push_back(r);
    }

    // --- FARSIGym -----------------------------------------------------
    {
        FarsiGymEnv env;
        const auto actions = sampleActions(env, 12);
        std::size_t i = 0;
        FamilyResult r;
        r.family = "FARSIGym";
        r.stepsPerSec = stepsPerSecond([&] {
            guard += env.step(actions[i++ % kNumActions]).reward;
        });
        // Per-step rebuild: the seed's evaluateSoc over the raw graph
        // re-derives the dependency structure and allocates every buffer.
        const farsi::TaskGraph graph = farsi::edgeDetection();
        i = 0;
        r.baselineStepsPerSec = stepsPerSecond([&] {
            const farsi::SocResult sim = oracle::evaluateSoc(
                env.decodeAction(actions[i++ % kNumActions]), graph);
            guard += env.objective().reward(
                {sim.powerW, sim.latencyMs, sim.areaMm2});
        });
        families.push_back(r);
    }

    // --- TimeloopGym --------------------------------------------------
    {
        TimeloopGymEnv::Options o;
        o.network = timeloop::resNet18();
        TimeloopGymEnv env(o);
        const auto actions = sampleActions(env, 13);
        std::size_t i = 0;
        FamilyResult r;
        r.family = "TimeloopGym";
        r.stepsPerSec = stepsPerSecond([&] {
            guard += env.step(actions[i++ % kNumActions]).reward;
        });
        const timeloop::Network net = timeloop::resNet18();
        i = 0;
        r.baselineStepsPerSec = stepsPerSecond([&] {
            const timeloop::LayerCost cost = oracle::evaluateNetwork(
                env.decodeAction(actions[i++ % kNumActions]), net);
            guard += env.objective().reward(
                {cost.latencyMs, cost.energyUj, cost.areaMm2});
        });
        families.push_back(r);
    }

    // --- MaestroGym ---------------------------------------------------
    {
        MaestroGymEnv env;
        const auto actions = sampleActions(env, 14);
        std::size_t i = 0;
        FamilyResult r;
        r.family = "MaestroGym";
        r.stepsPerSec = stepsPerSecond([&] {
            guard += env.step(actions[i++ % kNumActions]).reward;
        });
        const timeloop::Network net = timeloop::resNet18();
        i = 0;
        r.baselineStepsPerSec = stepsPerSecond([&] {
            const maestro::MappingCost cost =
                oracle::evaluateMappingOnNetwork(
                    env.decodeAction(actions[i++ % kNumActions]), net);
            guard += cost.runtimeCycles;
        });
        families.push_back(r);
    }

    std::printf("Environment hot-loop throughput (env-steps/sec)\n");
    std::printf("%-14s %14s %14s %9s\n", "family", "steps/s",
                "rebuild/s", "speedup");
    for (const FamilyResult &r : families) {
        std::printf("%-14s %14.1f %14.1f %8.2fx\n", r.family.c_str(),
                    r.stepsPerSec, r.baselineStepsPerSec, r.speedup());
    }

    // --- Batch mode: GA generations through stepBatch ------------------
    struct BatchCase
    {
        std::string family;
        std::function<std::unique_ptr<Environment>()> make;
        std::size_t generations;
    };
    const std::vector<BatchCase> batchCases = {
        {"DRAMGym",
         [] {
             DramGymEnv::Options o;
             o.traceLength = 512;
             return std::unique_ptr<Environment>(
                 std::make_unique<DramGymEnv>(o));
         },
         2},
        {"FARSIGym",
         [] {
             return std::unique_ptr<Environment>(
                 std::make_unique<FarsiGymEnv>());
         },
         32},
        {"TimeloopGym",
         [] {
             TimeloopGymEnv::Options o;
             o.network = timeloop::resNet18();
             return std::unique_ptr<Environment>(
                 std::make_unique<TimeloopGymEnv>(o));
         },
         8},
        {"MaestroGym",
         [] {
             return std::unique_ptr<Environment>(
                 std::make_unique<MaestroGymEnv>());
         },
         32},
    };

    std::printf("\nBatch mode (GA, population %zu, env-steps/sec via "
                "stepBatch)\n",
                kBatchPopulation);
    std::printf("%-14s %10s %12s %12s %12s %12s\n", "family", "threads:",
                "1", "2", "4", "8");
    std::vector<BatchResult> batchResults;
    for (const BatchCase &bc : batchCases) {
        auto env = bc.make();
        BatchResult br;
        br.family = bc.family;
        std::printf("%-14s %10s", bc.family.c_str(), "");
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
            const double sps = batchedGaStepsPerSec(*env, threads,
                                                    bc.generations,
                                                    guard);
            br.points.push_back(BatchPoint{threads, sps});
            std::printf(" %12.1f", sps);
        }
        std::printf("\n");
        batchResults.push_back(std::move(br));
    }

    // --- Sweep throughput through the persistent worker pool ----------
    const std::size_t kSweepConfigs = 192;
    const std::size_t kSweepSamples = 100;
    Rng sweepRng(21);
    const auto configs =
        defaultHyperGrid("RW").randomSample(kSweepConfigs, sweepRng);
    const AgentBuilder builder = [](const ParamSpace &space,
                                    const HyperParams &hp,
                                    std::uint64_t s) {
        return makeAgent("RW", space, hp, s);
    };
    const EnvFactory factory = [] {
        return std::unique_ptr<Environment>(
            std::make_unique<FarsiGymEnv>());
    };
    RunConfig runCfg;
    runCfg.maxSamples = kSweepSamples;
    runCfg.recordRewardHistory = false;

    std::printf("\nSweep throughput (FARSIGym, RW, %zu configs x %zu "
                "samples)\n",
                kSweepConfigs, kSweepSamples);
    std::printf("%-8s %14s\n", "threads", "configs/s");
    struct SweepPoint
    {
        std::size_t threads;
        double configsPerSec;
    };
    std::vector<SweepPoint> sweepPoints;
    // Warm the pool threads (environments are per sweep call).
    runSweepParallel(factory, "RW", builder, configs, runCfg, 5, 2);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        const double sweepsPerSec = stepsPerSecond(
            [&] {
                const SweepResult sweep = runSweepParallel(
                    factory, "RW", builder, configs, runCfg, 5, threads);
                guard += sweep.bestRewards.front();
            },
            /*batch=*/1);
        const double cps =
            sweepsPerSec * static_cast<double>(kSweepConfigs);
        sweepPoints.push_back(SweepPoint{threads, cps});
        std::printf("%-8zu %14.1f\n", threads, cps);
    }

    std::ostringstream json;
    json << "{\"bench\":\"env_hotloop\",\"families\":[";
    for (std::size_t i = 0; i < families.size(); ++i) {
        const FamilyResult &r = families[i];
        if (i)
            json << ",";
        json << "{\"family\":\"" << r.family
             << "\",\"envStepsPerSec\":" << r.stepsPerSec
             << ",\"rebuildStepsPerSec\":" << r.baselineStepsPerSec
             << ",\"speedup\":" << r.speedup() << "}";
    }
    json << "],\"batch\":{\"agent\":\"GA\",\"population\":"
         << kBatchPopulation << ",\"families\":[";
    for (std::size_t i = 0; i < batchResults.size(); ++i) {
        const BatchResult &br = batchResults[i];
        if (i)
            json << ",";
        json << "{\"family\":\"" << br.family << "\",\"points\":[";
        for (std::size_t p = 0; p < br.points.size(); ++p) {
            if (p)
                json << ",";
            json << "{\"threads\":" << br.points[p].threads
                 << ",\"stepsPerSec\":" << br.points[p].stepsPerSec
                 << "}";
        }
        json << "]}";
    }
    json << "]},\"sweep\":{\"env\":\"FARSIGym\",\"agent\":\"RW\","
         << "\"configs\":" << kSweepConfigs
         << ",\"samplesPerConfig\":" << kSweepSamples << ",\"points\":[";
    for (std::size_t i = 0; i < sweepPoints.size(); ++i) {
        if (i)
            json << ",";
        json << "{\"threads\":" << sweepPoints[i].threads
             << ",\"configsPerSec\":" << sweepPoints[i].configsPerSec
             << "}";
    }
    json << "]}}";

    std::printf("BENCH_envs.json %s\n", json.str().c_str());
    std::ofstream out("BENCH_envs.json");
    out << json.str() << "\n";
    if (guard == 0.0)
        std::fprintf(stderr, "warning: guard is zero\n");
    return 0;
}
