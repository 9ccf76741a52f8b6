#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "agents/registry.h"
#include "core/trajectory.h"
#include "core/worker_pool.h"
#include "envs/dram_gym_env.h"
#include "envs/farsi_gym_env.h"
#include "envs/timeloop_gym_env.h"
#include "proxy/proxy_screen.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace archgym;

namespace {

std::vector<WorkloadSpec>
allSpecs()
{
    std::vector<WorkloadSpec> specs;

    WorkloadSpec farsi;
    farsi.name = "lottery-farsi-rw";
    farsi.env = "farsi";
    farsi.agent = "RW";
    farsi.configs = 24000;  // 1000 shards
    farsi.samples = 100;
    farsi.shardSize = 24;
    farsi.threads = 4;
    farsi.checkConfigs = 24;
    specs.push_back(farsi);

    WorkloadSpec dram;
    dram.name = "lottery-dram-ga";
    dram.env = "dram-cloud1";
    dram.agent = "GA";
    dram.configs = 1200;
    dram.samples = 200;
    dram.shardSize = 24;
    dram.threads = 4;
    dram.batchEval = true;
    dram.checkConfigs = 24;
    specs.push_back(dram);

    WorkloadSpec bo;
    bo.name = "bo-cohort-timeloop";
    bo.env = "timeloop";
    bo.agent = "BO";
    bo.configs = 4;
    bo.samples = 700;
    bo.shardSize = 2;
    bo.threads = 1;  // one configuration at a time; cohorts fan out
    bo.batchEval = true;
    bo.checkConfigs = 2;
    specs.push_back(bo);

    WorkloadSpec screen;
    screen.name = "screen-proxy-timeloop";
    screen.env = "timeloop";
    screen.agent = "GA";
    screen.configs = 512;
    screen.samples = 200;
    screen.shardSize = 16;
    screen.threads = 4;
    screen.batchEval = true;
    screen.checkConfigs = 8;
    screen.proxy = true;
    screen.pilotConfigs = 64;
    screen.screenTopK = 16;
    screen.screenSamples = 64;
    screen.trainRows = 4096;
    specs.push_back(screen);

    return specs;
}

std::unique_ptr<Environment>
makeEnv(const std::string &env)
{
    if (env == "farsi")
        return std::make_unique<FarsiGymEnv>();
    if (env == "dram-cloud1") {
        DramGymEnv::Options o;
        o.pattern = dram::TracePattern::Cloud1;
        o.objective = DramObjective::LatencyAndPower;
        o.latencyTargetNs = 150.0;
        o.traceLength = 256;  // the fixed cloud1 trace: seed 7
        return std::make_unique<DramGymEnv>(o);
    }
    if (env == "timeloop")
        return std::make_unique<TimeloopGymEnv>();
    throw std::invalid_argument("unknown environment: " + env);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameBits(const Action &a, const Action &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

/** `k` indices spread evenly over [0, n), first and last included. */
std::vector<std::size_t>
evenSlice(std::size_t n, std::size_t k)
{
    k = std::min(k, n);
    std::vector<std::size_t> out;
    for (std::size_t j = 0; j < k; ++j)
        out.push_back(k == 1 ? 0 : j * (n - 1) / (k - 1));
    return out;
}

/** Re-run `indices` of a sweep in memory and count bit mismatches. */
void
recheckSweep(const Inputs &inputs, const ShardedSweepResult &sweep,
             const std::vector<std::size_t> &indices, const char *label,
             CheckOutcome &out)
{
    std::vector<std::string> errors(indices.size());
    WorkerPool::shared().parallelFor(
        indices.size(), [&](std::size_t, std::size_t j) {
            const std::size_t i = indices[j];
            const auto env = inputs.envFactory();
            const auto agent =
                inputs.builder(env->actionSpace(), sweep.configs[i],
                               sweepConfigSeed(inputs.baseSeed, i));
            RunConfig cfg = inputs.runConfig;
            cfg.logTrajectory = false;
            const RunResult run = runSearch(*env, *agent, cfg);
            if (!sameBits(run.bestReward, sweep.bestRewards[i]) ||
                !sameBits(run.bestAction, sweep.bestActions[i]) ||
                run.samplesUsed != sweep.samplesUsed[i])
                errors[j] = std::string(label) + " config " +
                            std::to_string(i) +
                            ": in-memory re-run differs from the sweep";
        });
    for (const auto &e : errors) {
        ++out.checked;
        if (!e.empty()) {
            ++out.mismatched;
            out.errors.push_back(e);
        }
    }
}

/** Count exported transitions through Dataset::loadDirectory, a group
 *  of shard CSVs at a time so memory stays bounded. */
std::size_t
countExported(const std::string &dir)
{
    std::vector<fs::path> csvs;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.is_regular_file() && e.path().extension() == ".csv")
            csvs.push_back(e.path());
    std::sort(csvs.begin(), csvs.end());
    constexpr std::size_t kGroup = 64;
    std::size_t total = 0;
    for (std::size_t g = 0; g * kGroup < csvs.size(); ++g) {
        const fs::path sub =
            fs::path(dir) / ("verify_" + std::to_string(g));
        fs::create_directory(sub);
        const std::size_t end = std::min(csvs.size(), (g + 1) * kGroup);
        for (std::size_t i = g * kGroup; i < end; ++i)
            fs::rename(csvs[i], sub / csvs[i].filename());
        total += Dataset::loadDirectory(sub.string()).transitionCount();
    }
    return total;
}

void
fnv(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
}

} // namespace

std::size_t
CheckOutcome::failedConfigs(std::size_t samples) const
{
    std::size_t lostConfigs = 0;
    if (transitionsFound != transitionsExpected) {
        const std::size_t diff = transitionsFound > transitionsExpected
                                     ? transitionsFound - transitionsExpected
                                     : transitionsExpected - transitionsFound;
        lostConfigs = std::max<std::size_t>(1, diff / std::max<std::size_t>(
                                                          1, samples));
    }
    return mismatched + lostConfigs;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &s : allSpecs())
            out.push_back(s.name);
        return out;
    }();
    return names;
}

WorkloadSpec
workloadSpec(const std::string &name)
{
    for (const auto &s : allSpecs())
        if (s.name == name)
            return s;
    throw std::invalid_argument("unknown workload: " + name);
}

Inputs
makeInputs(const WorkloadSpec &spec, std::uint64_t seed)
{
    Inputs in;
    in.baseSeed = seed;
    const std::string envName = spec.env;
    in.envFactory = [envName] { return makeEnv(envName); };
    const std::string agentName = spec.agent;
    in.builder = [agentName](const ParamSpace &space, const HyperParams &hp,
                             std::uint64_t s) {
        return makeAgent(agentName, space, hp, s);
    };
    if (spec.agent == "BO") {
        // A fixed set of windowed-GP BatchEI searches at search scale
        // (kernel x length scale), not the bounded lottery defaults: the
        // GP's cost then depends on the seed only through the search
        // path, so runs with different seeds measure the same work.
        for (std::size_t i = 0; i < spec.configs; ++i)
            in.configs.push_back(HyperParams{
                {"kernel", static_cast<double>(i % 2)},
                {"length_scale", (i / 2) % 2 ? 0.1 : 0.2},
                {"n_init", 8},
                {"kappa", 2.0},
                {"max_history", 600},
                {"num_candidates", 256},
                {"acquisition", 4},
                {"cohort", 8}});
    } else {
        in.configs = sampleLotteryConfigs(spec.agent, spec.configs, seed);
    }
    in.runConfig.maxSamples = spec.samples;
    in.runConfig.recordRewardHistory = false;
    in.runConfig.batchEval = spec.batchEval;
    if (spec.proxy) {
        auto env = std::make_shared<TimeloopGymEnv>();
        in.objective = &env->objective();
        in.objectiveEnv = std::move(env);
    }
    return in;
}

BatchOutcome
runBatch(const WorkloadSpec &spec, const Inputs &inputs,
         const EnvFactory &env_factory, const AgentBuilder &builder,
         const std::string &dir)
{
    BatchOutcome out;
    out.decided = inputs.configs.size();
    if (!spec.proxy) {
        ShardedSweepOptions opts;
        opts.directory = dir;
        opts.shardSize = spec.shardSize;
        opts.numThreads = spec.threads;
        opts.exportDataset = true;
        out.sweeps.push_back(runSweepSharded(env_factory, spec.agent,
                                             builder, inputs.configs,
                                             inputs.runConfig, opts,
                                             inputs.baseSeed));
        out.simulatedConfigs = inputs.configs.size();
        out.exportDir = dir;
        out.exportConfigs = inputs.configs.size();
        return out;
    }

    ProxyScreenOptions opts;
    opts.directory = dir;
    opts.objective = inputs.objective;
    opts.pilotConfigs = spec.pilotConfigs;
    opts.screenTopK = spec.screenTopK;
    opts.screenSamples = spec.screenSamples;
    opts.trainRows = spec.trainRows;
    opts.shardSize = spec.shardSize;
    opts.numThreads = spec.threads;
    ProxyScreenResult r =
        runSweepProxyScreened(env_factory, spec.agent, builder,
                              inputs.configs, inputs.runConfig, opts,
                              inputs.baseSeed);
    out.trainRows = r.trainRowCount;
    out.proxyEvaluations = r.proxyEvaluations;
    out.exportConfigs = r.pilot.configs.size();
    out.pilotSamples = out.exportConfigs * spec.samples;
    out.simulatedConfigs = r.pilot.configs.size() +
                           r.frontierSweep.configs.size();
    out.exportDir = (fs::path(dir) / "pilot").string();
    out.sweeps.push_back(std::move(r.pilot));
    out.sweeps.push_back(std::move(r.frontierSweep));
    return out;
}

CheckOutcome
checkBatch(const WorkloadSpec &spec, const Inputs &inputs,
           const BatchOutcome &outcome)
{
    CheckOutcome out;
    try {
        for (std::size_t s = 0; s < outcome.sweeps.size(); ++s) {
            const ShardedSweepResult &sweep = outcome.sweeps[s];
            const std::size_t k =
                s == 0 ? spec.checkConfigs
                       : std::max<std::size_t>(1, spec.checkConfigs / 2);
            recheckSweep(inputs, sweep,
                         evenSlice(sweep.configs.size(), k),
                         s == 0 ? "sweep" : "frontier", out);
            if (!sweep.complete)
                out.errors.push_back("sweep " + std::to_string(s) +
                                     " did not complete");
        }
        out.transitionsExpected = outcome.exportConfigs * spec.samples;
        out.transitionsFound = countExported(outcome.exportDir);
        if (out.transitionsFound != out.transitionsExpected)
            out.errors.push_back(
                "export holds " + std::to_string(out.transitionsFound) +
                " transitions, expected " +
                std::to_string(out.transitionsExpected));
    } catch (const std::exception &e) {
        out.errors.push_back(std::string("check threw: ") + e.what());
    }
    return out;
}

std::uint64_t
batchDigest(const BatchOutcome &outcome, const std::string &dir)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &s : outcome.sweeps) {
        for (std::size_t i = 0; i < s.configs.size(); ++i) {
            fnv(h, &s.bestRewards[i], sizeof(double));
            fnv(h, s.bestActions[i].data(),
                s.bestActions[i].size() * sizeof(double));
            const std::uint64_t used = s.samplesUsed[i];
            fnv(h, &used, sizeof used);
            fnv(h, &s.quarantined[i], 1);
        }
    }
    std::vector<fs::path> files;
    for (const auto &e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const auto &f : files) {
        const std::string rel = fs::relative(f, dir).string();
        fnv(h, rel.data(), rel.size());
        std::ifstream in(f, std::ios::binary);
        const std::string bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        fnv(h, bytes.data(), bytes.size());
    }
    return h;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::map<std::string, double>
layerMetrics(const WorkloadSpec &spec, const Inputs &inputs,
             const BatchOutcome &outcome, const Recorder &rec,
             std::uint64_t t0, std::uint64_t t1)
{
    const double wall = static_cast<double>(t1 - t0) * 1e-9;
    const double threads = static_cast<double>(spec.threads);
    const double owned = wall * threads;

    // Proxy stage: from the pilot's last real sample to the frontier's
    // first. The pilot's samples are the first pilotSamples to start.
    std::uint64_t winLo = UINT64_MAX, winHi = UINT64_MAX;
    if (spec.proxy) {
        std::vector<CallSpan> steps;
        for (const auto &t : rec.threads())
            for (const auto &c : t->calls)
                if (c.kind == SpanKind::Step)
                    steps.push_back(c);
        std::sort(steps.begin(), steps.end(),
                  [](const CallSpan &a, const CallSpan &b) {
                      return a.start < b.start;
                  });
        std::size_t cum = 0, k = 0;
        winLo = t0;
        for (; k < steps.size() && cum < outcome.pilotSamples; ++k) {
            cum += steps[k].count;
            winLo = std::max(winLo, steps[k].start + steps[k].dur);
        }
        winHi = k < steps.size() ? steps[k].start : t1;
    }
    const auto inProxy = [&](std::uint64_t t) {
        return t >= winLo && t < winHi;
    };

    double propose = 0, observe = 0, step = 0, setup = 0;
    double samples = 0, stepCalls = 0;
    for (const auto &t : rec.threads())
        for (const auto &c : t->calls) {
            if (inProxy(c.start))
                continue;
            const double d = static_cast<double>(c.dur) * 1e-9;
            switch (c.kind) {
              case SpanKind::Propose: propose += d; break;
              case SpanKind::Observe: observe += d; break;
              case SpanKind::Step:
                step += d;
                samples += c.count;
                stepCalls += 1;
                break;
              case SpanKind::EnvSetup: setup += d; break;
            }
        }

    // Configuration runs of the engine (screening runs against the
    // proxy fall inside the proxy stage and are left out), grouped into
    // shards by the configuration index their seed identifies.
    std::vector<double> runMs;
    std::vector<std::unordered_map<std::uint64_t, std::size_t>> seedIndex(
        outcome.sweeps.size());
    for (std::size_t s = 0; s < outcome.sweeps.size(); ++s)
        for (std::size_t i = 0; i < outcome.sweeps[s].configs.size(); ++i)
            seedIndex[s].emplace(
                sweepConfigSeed(inputs.baseSeed, i), i);
    std::map<std::pair<std::size_t, std::size_t>,
             std::pair<std::uint64_t, std::uint64_t>>
        shards;
    for (const auto &t : rec.threads())
        for (const auto &r : t->runs) {
            if (inProxy(r.start))
                continue;
            runMs.push_back(static_cast<double>(r.end - r.start) * 1e-6);
            const std::size_t phase =
                spec.proxy && r.start >= winHi ? 1 : 0;
            if (phase >= seedIndex.size())
                continue;
            const auto it = seedIndex[phase].find(r.seed);
            if (it == seedIndex[phase].end())
                continue;
            const auto key =
                std::make_pair(phase, it->second / spec.shardSize);
            auto [pos, fresh] =
                shards.emplace(key, std::make_pair(r.start, r.end));
            if (!fresh) {
                pos->second.first = std::min(pos->second.first, r.start);
                pos->second.second = std::max(pos->second.second, r.end);
            }
        }
    std::sort(runMs.begin(), runMs.end());

    // Serial gaps between consecutive shards of a sweep: where the
    // engine finalises one shard and scans for and claims the next.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
    std::vector<std::size_t> phases;
    for (const auto &[key, iv] : shards) {
        spans.push_back(iv);
        phases.push_back(key.first);
    }
    std::vector<std::size_t> order(spans.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return spans[a].first < spans[b].first;
    });
    std::vector<double> gaps;
    for (std::size_t k = 1; k < order.size(); ++k) {
        const auto &prev = spans[order[k - 1]];
        const auto &next = spans[order[k]];
        if (phases[order[k - 1]] != phases[order[k]])
            continue;
        gaps.push_back(next.first > prev.second
                           ? static_cast<double>(next.first - prev.second) *
                                 1e-6
                           : 0.0);
    }
    double gapGrowth = 0;
    if (gaps.size() >= 2) {
        const std::size_t m = std::max<std::size_t>(1, gaps.size() / 10);
        double early = 0, late = 0;
        for (std::size_t i = 0; i < m; ++i) {
            early += gaps[i];
            late += gaps[gaps.size() - 1 - i];
        }
        gapGrowth = early > 0 ? late / early : 0;
    }

    const double agents = propose + observe;
    const double envs = step + setup;
    const double proxy =
        spec.proxy ? static_cast<double>(winHi - winLo) * 1e-9 * threads
                   : 0.0;
    const double engine = owned - agents - envs - proxy;
    std::size_t shardsRun = 0;
    for (const auto &s : outcome.sweeps)
        shardsRun += s.shardsRun;
    const double configs = static_cast<double>(outcome.simulatedConfigs);

    std::map<std::string, double> m;
    m["engine.share"] = engine / owned;
    m["engine.residual_us_per_config"] = engine / configs * 1e6;
    m["engine.residual_ms_per_shard"] =
        shardsRun ? engine / static_cast<double>(shardsRun) * 1e3 : 0.0;
    m["engine.shards_run"] = static_cast<double>(shardsRun);
    m["engine.shard_gap_ms"] = median(gaps);
    m["engine.shard_gap_growth"] = gapGrowth;
    m["envs.share"] = envs / owned;
    m["envs.step_us_per_sample"] = samples ? step / samples * 1e6 : 0.0;
    m["envs.samples"] = samples;
    m["envs.mean_batch"] = stepCalls ? samples / stepCalls : 0.0;
    m["envs.setup_s"] = setup;
    m["agents.share"] = agents / owned;
    m["agents.propose_us_per_sample"] =
        samples ? propose / samples * 1e6 : 0.0;
    m["agents.observe_us_per_sample"] =
        samples ? observe / samples * 1e6 : 0.0;
    m["proxy.share"] = proxy / owned;
    m["proxy.stage_s"] = proxy / threads;
    m["proxy.train_rows"] = static_cast<double>(outcome.trainRows);
    m["proxy.evaluations"] = static_cast<double>(outcome.proxyEvaluations);
    m["run.p50_ms"] = percentile(runMs, 0.50);
    m["run.p99_ms"] = runMs.size() >= 1000 ? percentile(runMs, 0.99) : 0.0;
    return m;
}

} // namespace perfbench
