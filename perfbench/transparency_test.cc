/**
 * @file
 * The benchmark's own test that its timing decorators are transparent
 * and that its layer accounting adds up.
 *
 * For each workload at reduced size, at 1 and at 4 sweep threads, one
 * batch runs with plain factory and builder and one with the traced
 * decorators. Every digest (per-config results plus every byte the
 * sweep wrote) must be equal. For each traced batch, no thread's agent
 * and environment spans may add up to more than the wall time, and the
 * agent, environment, proxy and engine shares must add up to 1 with
 * none negative.
 *
 *   transparency_test [--work-dir DIR]
 *
 * Prints one line per check and exits 0 when all pass.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "tracing.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

/** Each workload cut down to a size that runs in about a second. */
WorkloadSpec
smallSpec(const std::string &name)
{
    WorkloadSpec s = workloadSpec(name);
    if (name == "lottery-farsi-rw") {
        s.configs = 96;
    } else if (name == "lottery-dram-ga") {
        s.configs = 16;
        s.samples = 64;
        s.shardSize = 8;
    } else if (name == "bo-cohort-timeloop") {
        s.configs = 2;
        s.samples = 40;
    } else {
        s.configs = 48;
        s.samples = 40;
        s.pilotConfigs = 16;
        s.screenTopK = 4;
        s.screenSamples = 16;
        s.trainRows = 256;
    }
    return s;
}

void
checkWorkload(const std::string &name, const std::string &work_dir)
{
    const std::string dir = (fs::path(work_dir) / name).string();
    std::uint64_t reference = 0;
    bool haveReference = false;
    for (const std::size_t threads : {1, 4}) {
        WorkloadSpec spec = smallSpec(name);
        spec.threads = threads;
        const Inputs inputs = makeInputs(spec, 11);
        for (const bool wrapped : {false, true}) {
            Recorder rec;
            rec.beginRepetition(wrapped);
            const archgym::EnvFactory factory =
                wrapped ? wrapEnvFactory(inputs.envFactory, rec)
                        : inputs.envFactory;
            const archgym::AgentBuilder builder =
                wrapped ? wrapAgentBuilder(inputs.builder, rec)
                        : inputs.builder;
            fs::remove_all(dir);
            const std::uint64_t t0 = rec.now();
            const BatchOutcome out =
                runBatch(spec, inputs, factory, builder, dir);
            const std::uint64_t t1 = rec.now();
            const std::uint64_t digest = batchDigest(out, dir);
            if (!haveReference) {
                reference = digest;
                haveReference = true;
            }
            const std::string label = name + " threads=" +
                                      std::to_string(threads) +
                                      (wrapped ? " wrapped" : " plain");
            expect(digest == reference, label + ": digest matches");
            if (!wrapped)
                continue;

            const double wall = static_cast<double>(t1 - t0);
            bool within = true;
            for (const auto &t : rec.threads()) {
                double busy = 0;
                for (const auto &c : t->calls)
                    busy += c.dur;
                within = within && busy <= wall;
            }
            expect(within, label + ": no thread's spans exceed the wall");

            const auto m = layerMetrics(spec, inputs, out, rec, t0, t1);
            const double shares = m.at("agents.share") +
                                  m.at("envs.share") +
                                  m.at("proxy.share") +
                                  m.at("engine.share");
            expect(std::fabs(shares - 1.0) < 1e-9,
                   label + ": layer shares add up to 1");
            expect(m.at("agents.share") >= 0 && m.at("envs.share") >= 0 &&
                       m.at("proxy.share") >= 0 &&
                       m.at("engine.share") >= 0,
                   label + ": no layer share is negative (engine " +
                       std::to_string(m.at("engine.share")) + ")");
            expect(m.at("envs.samples") ==
                       static_cast<double>(out.simulatedConfigs *
                                           spec.samples),
                   label + ": every simulator sample is traced");
        }
    }
    fs::remove_all(dir);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workDir = ".bench_build/perfbench/test";
    if (argc == 3 && std::string(argv[1]) == "--work-dir")
        workDir = argv[2];
    fs::create_directories(workDir);
    for (const auto &name : workloadNames())
        checkWorkload(name, workDir);
    std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
                g_failures);
    return g_failures ? 1 : 0;
}
