/**
 * @file
 * AR/VR SoC design with FARSIGym: allocate cores, accelerators, bus and
 * memory for the edge-detection pipeline under power/performance/area
 * budgets, comparing two agents on the same budgeted objective.
 */

#include <cstdio>

#include "agents/registry.h"
#include "core/driver.h"
#include "envs/farsi_gym_env.h"

int
main()
{
    using namespace archgym;

    FarsiGymEnv::Options options;
    options.graph = farsi::edgeDetection();
    FarsiGymEnv env(options);

    std::printf("Designing an SoC for '%s'\n", options.graph.name.c_str());
    std::printf("  budgets: latency %.1f ms, power %.2f W, area %.1f mm2\n",
                options.latencyBudgetMs, options.powerBudgetW,
                options.areaBudgetMm2);
    std::printf("  objective: %s\n\n", env.objective().describe().c_str());

    const farsi::TaskGraphView view(options.graph);
    farsi::SocEvalScratch scratch;
    for (const std::string agentName : {"GA", "ACO"}) {
        FarsiGymEnv searchEnv(options);
        auto agent =
            makeAgent(agentName, searchEnv.actionSpace(), {}, 11);
        RunConfig cfg;
        cfg.maxSamples = 1500;
        cfg.stopWhenSatisfied = true;
        const RunResult r = runSearch(searchEnv, *agent, cfg);

        const auto soc = searchEnv.decodeAction(r.bestAction);
        farsi::SocResult sim;
        farsi::evaluateSoc(soc, view, scratch, sim);
        std::printf("%s (%zu samples):\n  %s\n", agentName.c_str(),
                    r.samplesUsed, soc.str().c_str());
        std::printf("  power %.3f W | latency %.3f ms (%.1f fps) | "
                    "area %.2f mm2 | distance-to-budget %.3f%s\n\n",
                    sim.powerW, sim.latencyMs, sim.fps(), sim.areaMm2,
                    -r.bestReward,
                    r.bestReward >= 0.0 ? "  [all budgets met]" : "");
    }
    return 0;
}
