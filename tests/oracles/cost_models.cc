#include "oracles/oracles.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "core/resilience.h"

namespace archgym::oracle {

using namespace farsi;
using namespace maestro;
using namespace timeloop;

// Timeloop mapper.

namespace {

/**
 * Evaluate one (tileK, tileC, tileP) candidate. The loop nest keeps a
 * weight tile resident in the scratchpads while streaming input/output
 * tiles through the global buffer (weight-stationary outer loop).
 */
bool
evaluateTiling(const AcceleratorConfig &cfg, const ConvLayer &l,
               std::uint32_t tk, std::uint32_t tc, std::uint32_t tp,
               MappingTotals &out)
{
    const double pes = cfg.numPEs;

    // --- capacity checks ---------------------------------------------
    // Weight tile is distributed across the PE array.
    const double weightTile = static_cast<double>(tk) * tc * l.kernelH *
                              l.kernelW;
    const double weightCap =
        pes * static_cast<double>(cfg.weightSpadEntries);
    if (weightTile > weightCap)
        return false;

    // Input rows for one output-tile row and psum tile per PE.
    const double inputTileRows =
        (static_cast<double>(tp - 1) * l.stride + l.kernelH);
    const double inputTile = static_cast<double>(tc) * inputTileRows *
                             l.inputW();
    const double outputTile = static_cast<double>(tk) * tp * l.outW;
    const double gbWordsCap = static_cast<double>(cfg.globalBufferKb) *
                              1024.0 / 2.0;  // 16-bit words
    if (inputTile + outputTile > gbWordsCap)
        return false;
    const double psumPerPe = outputTile / pes;
    if (psumPerPe > cfg.accumSpadEntries)
        return false;

    // --- trip counts ---------------------------------------------------
    const double passesK = std::ceil(static_cast<double>(l.outChannels) /
                                     tk);
    const double passesC = std::ceil(static_cast<double>(l.inChannels) /
                                     tc);
    const double passesP = std::ceil(static_cast<double>(l.outH) / tp);
    const double batch = l.batch;

    // --- DRAM traffic (words) ------------------------------------------
    // Weights: one fetch per (K, C) tile, reused across all output tiles
    // of the layer (weight-stationary).
    const double weightDram = l.weightCount();
    // Inputs: refetched once per K-tile pass (outputs of different K
    // tiles need the same inputs again).
    const double inputDram = l.inputCount() * passesK;
    // Outputs: written once; partial sums spill once per extra C pass.
    const double outputDram = l.outputCount() * (2.0 * passesC - 1.0);
    const double dram = weightDram + inputDram + outputDram;

    // --- Global-buffer traffic ------------------------------------------
    // All DRAM traffic passes through the GB, plus array-side reuse
    // traffic: every input element is multicast to the PEs needing it
    // once per (K tile, P tile) pass, so GB input traffic scales with
    // both the K and the P trip counts.
    const double gb = dram + l.inputCount() * passesK * passesP +
                      l.outputCount() * passesC;

    // --- Scratchpad traffic (dominant: 3 words per MAC) ----------------
    const double spad = 3.0 * l.macs();

    // --- Compute -------------------------------------------------------
    // Spatial mapping: K x P unrolled across the array.
    const double spatial = std::min(pes, static_cast<double>(tk) * tp);
    const double util = spatial / pes;
    const double compute = l.macs() / std::max(1.0, spatial);

    out.dramWords = dram * batch;
    out.gbWords = gb * batch;
    out.spadWords = spad;
    out.computeCycles = compute;
    out.utilization = util;
    return true;
}

} // namespace

LayerCost
evaluateLayer(const AcceleratorConfig &config, const ConvLayer &layer,
              const TechModel &tech)
{
    MappingTotals best;
    bool found = false;
    double bestScore = std::numeric_limits<double>::infinity();

    for (std::uint32_t tk : tileCandidates(layer.outChannels)) {
        // Cooperative run deadline: the mapper enumeration is the
        // layer-evaluation hot loop (core/resilience.h).
        resilience::checkpoint();
        for (std::uint32_t tc : tileCandidates(layer.inChannels)) {
            for (std::uint32_t tp : tileCandidates(layer.outH)) {
                MappingTotals mc;
                if (!evaluateTiling(config, layer, tk, tc, tp, mc))
                    continue;
                // Rank mappings by a DRAM-energy-dominated score, the
                // same first-order criterion Timeloop's mapper optimizes.
                const double score =
                    mc.dramWords * tech.dramPj +
                    mc.gbWords * tech.globalBufferPj +
                    mc.computeCycles;
                if (score < bestScore) {
                    bestScore = score;
                    best = mc;
                    found = true;
                }
            }
        }
    }

    return layerCost(config, tech, best, found, layer.macs());
}

LayerCost
evaluateNetwork(const AcceleratorConfig &config, const Network &network,
                const TechModel &tech)
{
    LayerCost total;
    total.areaMm2 = areaMm2(config, tech);
    double utilWeighted = 0.0;
    for (const auto &layer : network.layers) {
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

// MAESTRO reuse analysis.

MappingCost
evaluateMapping(const Mapping &mapping, const ConvLayer &layer,
                const MaestroHardware &hw)
{
    MappingCost cost;
    const auto sizes = dimSizes(layer);

    // Clamp tiles to the layer's actual extents.
    std::array<double, kNumDims> tile;
    std::array<double, kNumDims> trips;
    for (std::size_t i = 0; i < kNumDims; ++i) {
        tile[i] = std::min(static_cast<double>(
                               std::max(1u, mapping.tile[i])),
                           sizes[i]);
        trips[i] = std::ceil(sizes[i] / tile[i]);
    }

    const double pes = std::max(1u, mapping.numPEs);
    const auto spatial = static_cast<std::size_t>(mapping.spatialDim);

    // Spatial waves: tiles of the spatial dim processed concurrently.
    const double spatialTrips = trips[spatial];
    const double waves = std::ceil(spatialTrips / pes);
    const double activePes = std::min(pes, spatialTrips);

    // --- L1 tile footprints (words) ------------------------------------
    const double tk = tile[0], tc = tile[1], tr = tile[2], ts = tile[3],
                 ty = tile[4], tx = tile[5];
    const double stride = layer.stride;
    const double inTileH = (ty - 1.0) * stride + tr;
    const double inTileW = (tx - 1.0) * stride + ts;
    const std::array<double, 3> footprint = {
        tk * tc * tr * ts,        // weights
        tc * inTileH * inTileW,   // inputs
        tk * ty * tx,             // outputs (psums)
    };
    cost.l1Required = footprint[0] + footprint[1] + footprint[2];

    // --- L2 -> L1 traffic via loop-order reuse analysis ----------------
    const auto order = mapping.loopOrder();
    std::array<double, 3> loads = {1.0, 1.0, 1.0};
    for (int op = 0; op < 3; ++op) {
        // Innermost contiguous run of irrelevant loops is reused; all
        // loops at or outside the innermost *relevant* loop multiply the
        // reload count.
        std::size_t innermostRelevant = kNumDims;  // none
        for (std::size_t pos = 0; pos < kNumDims; ++pos) {
            if (relevant(order[pos], op))
                innermostRelevant = pos;
        }
        for (std::size_t pos = 0; pos < kNumDims; ++pos) {
            if (innermostRelevant == kNumDims || pos > innermostRelevant)
                continue;  // inside the reuse run
            const auto d = static_cast<std::size_t>(order[pos]);
            if (d == spatial) {
                // Spatially unrolled: relevant operands ship distinct
                // tiles to every PE (full trip count of traffic);
                // irrelevant operands are multicast once per wave.
                loads[op] *= relevant(order[pos], op) ? trips[d] : waves;
            } else {
                loads[op] *= trips[d];
            }
        }
    }
    // Outputs are read-modify-written on every reload beyond the first.
    const double l2Traffic = loads[0] * footprint[0] +
                             loads[1] * footprint[1] +
                             (2.0 * loads[2] - 1.0) * footprint[2];

    // --- L2 capacity & DRAM traffic ------------------------------------
    // L2 must hold one wave's worth of distinct tiles plus multicast data.
    cost.l2Required = footprint[0] * activePes + footprint[1] * activePes +
                      footprint[2] * activePes;
    const double l2Cap = static_cast<double>(hw.l2KiloWords) * 1024.0;
    double spillFactor = 1.0;
    cost.buffersFit = true;
    if (cost.l1Required > hw.l1Words) {
        spillFactor *= cost.l1Required / hw.l1Words;
        cost.buffersFit = false;
    }
    if (cost.l2Required > l2Cap) {
        spillFactor *= cost.l2Required / l2Cap;
        cost.buffersFit = false;
    }
    const double dramTraffic =
        (layer.weightCount() + layer.inputCount() +
         2.0 * layer.outputCount()) *
        spillFactor;

    // --- runtime ---------------------------------------------------------
    const double macs = layer.macs();
    double temporalTiles = 1.0;
    for (std::size_t i = 0; i < kNumDims; ++i)
        if (i != spatial)
            temporalTiles *= trips[i];
    const double tileMacs = tk * tc * tr * ts * ty * tx;
    const double computeCycles = temporalTiles * waves * tileMacs;
    const double nocCycles = l2Traffic / hw.nocWordsPerCycle;
    const double dramCycles = dramTraffic / hw.dramWordsPerCycle;
    cost.runtimeCycles =
        std::max({computeCycles, nocCycles, dramCycles, 1.0});
    cost.throughputMacsPerCycle = macs / cost.runtimeCycles;

    // --- energy ----------------------------------------------------------
    const double l1Accesses = 3.0 * macs;
    cost.dramAccesses = dramTraffic;
    cost.l2Accesses = l2Traffic;
    const double energyPj = dramTraffic * hw.dramPj + l2Traffic * hw.l2Pj +
                            l1Accesses * hw.l1Pj + macs * hw.macPj;
    cost.energyUj = energyPj / 1e6;

    // --- area --------------------------------------------------------------
    cost.areaMm2 = pes * hw.peAreaMm2 +
                   pes * hw.l1Words * hw.l1AreaMm2PerWord +
                   hw.l2KiloWords * hw.l2AreaMm2PerKiloWord;
    return cost;
}

MappingCost
evaluateMappingOnNetwork(const Mapping &mapping, const Network &network,
                         const MaestroHardware &hw)
{
    MappingCost total;
    total.buffersFit = true;
    for (const auto &layer : network.layers) {
        // Cooperative run deadline (core/resilience.h): per-layer, the
        // natural stride of the mapper evaluation.
        resilience::checkpoint();
        const MappingCost c = evaluateMapping(mapping, layer, hw);
        total.runtimeCycles += c.runtimeCycles;
        total.energyUj += c.energyUj;
        total.dramAccesses += c.dramAccesses;
        total.l2Accesses += c.l2Accesses;
        total.l1Required = std::max(total.l1Required, c.l1Required);
        total.l2Required = std::max(total.l2Required, c.l2Required);
        total.buffersFit = total.buffersFit && c.buffersFit;
        total.areaMm2 = c.areaMm2;
    }
    total.throughputMacsPerCycle =
        total.runtimeCycles > 0.0 ? network.totalMacs() /
                                        total.runtimeCycles
                                  : 0.0;
    return total;
}


// FARSI list scheduler.


SocResult
evaluateSoc(const SocConfig &config, const TaskGraph &graph)
{
    assert(graph.topologicallyOrdered());

    SocResult result;
    result.areaMm2 = config.areaMm2();

    const std::vector<PeSpec> pes = config.instantiate();
    if (pes.empty()) {
        result.latencyMs = 1e6;
        result.powerW = 1e3;
        return result;
    }

    // Effective transfer bandwidth in bytes/ns (== GB/s).
    const double busGBps = static_cast<double>(config.busWidthBits) /
                           8.0 * config.busFrequencyGhz;
    const double xferGBps = std::min(busGBps, config.memoryBandwidthGBps);

    std::vector<double> peFree(pes.size(), 0.0);   // ns
    std::vector<double> peBusy(pes.size(), 0.0);   // accumulated busy ns
    std::vector<double> finish(graph.tasks.size(), 0.0);
    result.assignment.assign(graph.tasks.size(), 0);
    double busFree = 0.0;
    double busBusy = 0.0;
    double busBytes = 0.0;

    bool feasible = true;
    for (std::size_t i = 0; i < graph.tasks.size(); ++i) {
        // Cooperative run deadline (core/resilience.h). Strided: the
        // per-task body is sub-microsecond, checking every iteration
        // would be measurable.
        if ((i & 0xFFU) == 0)
            resilience::checkpoint();
        const Task &t = graph.tasks[i];

        // Inputs must cross the bus after their producers finish;
        // transfers serialize on the shared interconnect.
        double dataReady = 0.0;
        for (const auto &e : graph.edges) {
            if (e.dst != i)
                continue;
            const double start = std::max(finish[e.src], busFree);
            const double dur = e.bytes / xferGBps;
            busFree = start + dur;
            busBusy += dur;
            busBytes += e.bytes;
            dataReady = std::max(dataReady, busFree);
        }

        // Earliest-finish-time PE selection among compatible PEs.
        double bestFinish = std::numeric_limits<double>::infinity();
        std::size_t bestPe = pes.size();
        for (std::size_t p = 0; p < pes.size(); ++p) {
            if (!pes[p].canRun(t.kind))
                continue;
            const double opsPerNs =
                pes[p].effectiveOpsPerCycle(t.kind) * config.frequencyGhz;
            const double dur = t.ops / opsPerNs;
            const double f = std::max(peFree[p], dataReady) + dur;
            if (f < bestFinish) {
                bestFinish = f;
                bestPe = p;
            }
        }
        if (bestPe == pes.size()) {
            feasible = false;
            // Pretend a hopelessly slow software fallback handled it so
            // the schedule (and metrics) stay defined.
            const double dur = t.ops / (0.05 * config.frequencyGhz);
            bestPe = 0;
            bestFinish = std::max(peFree[0], dataReady) + dur;
        }
        const double start = std::max(peFree[bestPe], dataReady);
        finish[i] = bestFinish;
        peBusy[bestPe] += bestFinish - start;
        peFree[bestPe] = bestFinish;
        result.assignment[i] = bestPe;
    }

    const double makespanNs =
        std::max(*std::max_element(finish.begin(), finish.end()), busFree);
    result.feasible = feasible;
    result.latencyMs = makespanNs / 1e6;
    result.busUtilization = makespanNs > 0.0 ? busBusy / makespanNs : 0.0;

    // Energy: active (f^2 DVFS scaling) + idle + interconnect + memory.
    const double f2 = config.frequencyGhz * config.frequencyGhz;
    double energyPj = 0.0;
    for (std::size_t p = 0; p < pes.size(); ++p) {
        const double activeNs = peBusy[p];
        const double idleNs = makespanNs - activeNs;
        // 1 W = 1000 pJ/ns; PeSpec powers are in W.
        energyPj += activeNs * pes[p].activePowerW * f2 * 1000.0;
        energyPj += idleNs * pes[p].idlePowerW * 1000.0;
    }
    energyPj += busBytes * (kBusPjPerByte + kMemPjPerByte);

    result.energyMj = energyPj / 1e9;
    result.powerW = makespanNs > 0.0 ? energyPj / makespanNs / 1000.0
                                     : 0.0;
    return result;
}


} // namespace archgym::oracle
