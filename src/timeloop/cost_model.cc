#include "cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/resilience.h"

namespace archgym::timeloop {

std::vector<std::uint32_t>
tileCandidates(std::uint32_t dim)
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t t = 1; t < dim; t *= 2)
        out.push_back(t);
    out.push_back(dim);
    return out;
}

LayerCost
layerCost(const AcceleratorConfig &config, const TechModel &tech,
          MappingTotals best, bool found, double macs)
{
    if (!found) {
        // Degenerate fallback: stream everything, minimal tiles.
        best.dramWords = macs * 3.0;
        best.gbWords = best.dramWords;
        best.spadWords = 3.0 * macs;
        best.computeCycles =
            macs / std::max(1.0, static_cast<double>(config.numPEs));
        best.utilization = 1.0 / config.numPEs;
    }

    LayerCost cost;
    const double dramCycles =
        best.dramWords / std::max(1u, config.dramWordsPerCycle);
    const double nocCycles =
        best.gbWords / std::max(1u, config.nocWordsPerCycle);
    cost.cycles = std::max({best.computeCycles, dramCycles, nocCycles});
    cost.latencyMs = cost.cycles / (config.clockGhz * 1e6);
    cost.utilization = best.utilization;
    cost.dramAccesses = best.dramWords;
    cost.bufferAccesses = best.gbWords;
    cost.spadAccesses = best.spadWords;
    cost.areaMm2 = areaMm2(config, tech);

    const double dynamicPj = best.dramWords * tech.dramPj +
                             best.gbWords * tech.globalBufferPj +
                             best.spadWords * tech.spadPj +
                             macs * tech.macPj +
                             best.gbWords * tech.nocPjPerHop;
    const double leakagePj = cost.areaMm2 * tech.leakageMwPerMm2 *
                             (cost.cycles / config.clockGhz);  // mW * ns
    cost.energyUj = (dynamicPj + leakagePj) / 1e6;
    return cost;
}

LayerView::LayerView(const ConvLayer &l)
    : layer(l), tilesK(tileCandidates(l.outChannels)),
      tilesC(tileCandidates(l.inChannels)),
      tilesP(tileCandidates(l.outH)), macs(l.macs()),
      weightCount(l.weightCount()), inputCount(l.inputCount()),
      outputCount(l.outputCount()), inputW(l.inputW()),
      spadWords(3.0 * l.macs())
{
}

NetworkView::NetworkView(const Network &network) : name_(network.name)
{
    layers_.reserve(network.layers.size());
    for (const ConvLayer &l : network.layers)
        layers_.emplace_back(l);
}

LayerCost
evaluateLayer(const AcceleratorConfig &config, const LayerView &view,
              const TechModel &tech)
{
    const ConvLayer &l = view.layer;
    const double pes = config.numPEs;
    const double weightCap =
        pes * static_cast<double>(config.weightSpadEntries);
    const double gbWordsCap =
        static_cast<double>(config.globalBufferKb) * 1024.0 / 2.0;
    const double batch = l.batch;

    MappingTotals best;
    bool found = false;
    double bestScore = std::numeric_limits<double>::infinity();

    // The loop nest below enumerates the same (tk, tc, tp) candidates in
    // the same order and with the same per-candidate arithmetic as the
    // seed's per-step-rebuild mapper (oracle::evaluateLayer in the
    // test-only archgym_oracles library), so the selected mapping (and
    // every cost number) is bit-identical. Everything that depends on only tk or
    // (tk, tc) is hoisted out of the innermost loop, and the capacity
    // checks — monotone in the tile sizes — turn 'continue' into 'break'.
    for (std::uint32_t tk : view.tilesK) {
        // Cooperative run deadline (core/resilience.h): the mapper
        // enumeration is the layer-evaluation hot loop.
        resilience::checkpoint();
        const double tkD = tk;
        const double passesK =
            std::ceil(static_cast<double>(l.outChannels) / tk);
        const double inputDram = view.inputCount * passesK;
        bool firstTcTooBig = false;
        for (std::uint32_t tc : view.tilesC) {
            const double weightTile = static_cast<double>(tk) * tc *
                                      l.kernelH * l.kernelW;
            if (weightTile > weightCap) {
                // Larger tc only grows the tile; and if even tc = 1
                // overflows, larger tk cannot fit either.
                firstTcTooBig = tc == view.tilesC.front();
                break;
            }
            const double passesC =
                std::ceil(static_cast<double>(l.inChannels) / tc);
            const double outputDram =
                view.outputCount * (2.0 * passesC - 1.0);
            const double dram = view.weightCount + inputDram + outputDram;
            const double dramWords = dram * batch;
            const double scoreDram = dramWords * tech.dramPj;
            const double outCTerm = view.outputCount * passesC;

            for (std::uint32_t tp : view.tilesP) {
                const double inputTileRows =
                    (static_cast<double>(tp - 1) * l.stride + l.kernelH);
                const double inputTile = static_cast<double>(tc) *
                                         inputTileRows * view.inputW;
                const double outputTile =
                    static_cast<double>(tk) * tp * l.outW;
                if (inputTile + outputTile > gbWordsCap)
                    break;  // both tiles grow with tp
                const double psumPerPe = outputTile / pes;
                if (psumPerPe > config.accumSpadEntries)
                    break;  // monotone in tp as well

                const double passesP =
                    std::ceil(static_cast<double>(l.outH) / tp);
                const double gb = dram + inputDram * passesP + outCTerm;
                const double gbWords = gb * batch;
                const double spatial = std::min(pes, tkD * tp);
                const double compute =
                    view.macs / std::max(1.0, spatial);
                const double score =
                    scoreDram + gbWords * tech.globalBufferPj + compute;
                if (score < bestScore) {
                    bestScore = score;
                    best.dramWords = dramWords;
                    best.gbWords = gbWords;
                    best.spadWords = view.spadWords;
                    best.computeCycles = compute;
                    best.utilization = spatial / pes;
                    found = true;
                }
            }
        }
        if (firstTcTooBig)
            break;
    }

    return layerCost(config, tech, best, found, view.macs);
}

LayerCost
evaluateNetwork(const AcceleratorConfig &config, const NetworkView &network,
                const TechModel &tech)
{
    LayerCost total;
    total.areaMm2 = areaMm2(config, tech);
    double utilWeighted = 0.0;
    for (const LayerView &layer : network.layers()) {
        const LayerCost c = evaluateLayer(config, layer, tech);
        total.cycles += c.cycles;
        total.latencyMs += c.latencyMs;
        total.energyUj += c.energyUj;
        total.dramAccesses += c.dramAccesses;
        total.bufferAccesses += c.bufferAccesses;
        total.spadAccesses += c.spadAccesses;
        utilWeighted += c.utilization * c.cycles;
    }
    total.utilization =
        total.cycles > 0.0 ? utilWeighted / total.cycles : 0.0;
    return total;
}

} // namespace archgym::timeloop
