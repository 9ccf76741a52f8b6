#include "cost_model.h"

#include <algorithm>
#include <cmath>

#include "core/resilience.h"

namespace archgym::maestro {

std::array<double, kNumDims>
dimSizes(const ConvLayer &l)
{
    return {static_cast<double>(l.outChannels),
            static_cast<double>(l.inChannels),
            static_cast<double>(l.kernelH),
            static_cast<double>(l.kernelW),
            static_cast<double>(l.outH),
            static_cast<double>(l.outW)};
}

bool
relevant(Dim d, int operand)
{
    switch (operand) {
      case 0:  // W[k][c][r][s]
        return d == Dim::K || d == Dim::C || d == Dim::R || d == Dim::S;
      case 1:  // I[c][y*stride + r][x*stride + s]
        return d == Dim::C || d == Dim::R || d == Dim::S || d == Dim::Y ||
               d == Dim::X;
      case 2:  // O[k][y][x]
      default:
        return d == Dim::K || d == Dim::Y || d == Dim::X;
    }
}

LayerView::LayerView(const ConvLayer &layer)
    : sizes(dimSizes(layer)), stride(layer.stride), macs(layer.macs()),
      baseDramWords(layer.weightCount() + layer.inputCount() +
                    2.0 * layer.outputCount())
{
}

NetworkView::NetworkView(const Network &network) : name_(network.name)
{
    layers_.reserve(network.layers.size());
    for (const ConvLayer &l : network.layers)
        layers_.emplace_back(l);
    totalMacs_ = network.totalMacs();
}

namespace {

/**
 * Everything evaluateMapping derives from the mapping alone — the
 * argsorted loop order and, per operand, the ordered list of loop
 * dimensions outside its reuse run (each flagged if it is the spatially
 * unrolled dimension of an operand it is irrelevant to, i.e. multicast:
 * the reload count multiplies by waves instead of trips). Deriving this
 * once per mapping replaces a stable_sort plus 3 x 2 order scans per
 * layer.
 */
struct MappingAnalysis
{
    struct Factor
    {
        std::size_t dim = 0;
        bool useWaves = false;
    };

    std::size_t spatial = 0;
    double pes = 1.0;
    std::array<std::array<Factor, kNumDims>, 3> factors{};
    std::array<std::size_t, 3> numFactors{};
    /** Requested tile sizes, floored at 1 (the per-layer clamp against
     *  the layer extents is all that remains per evaluation). */
    std::array<double, kNumDims> tileRaw{};
    double l2Cap = 0.0;    ///< hw L2 capacity in words
    double areaMm2 = 0.0;  ///< mapping-level constant

    MappingAnalysis(const Mapping &mapping, const MaestroHardware &hw)
        : spatial(static_cast<std::size_t>(mapping.spatialDim)),
          pes(std::max(1u, mapping.numPEs))
    {
        for (std::size_t i = 0; i < kNumDims; ++i) {
            tileRaw[i] = static_cast<double>(
                std::max(1u, mapping.tile[i]));
        }
        l2Cap = static_cast<double>(hw.l2KiloWords) * 1024.0;
        areaMm2 = pes * hw.peAreaMm2 +
                  pes * hw.l1Words * hw.l1AreaMm2PerWord +
                  hw.l2KiloWords * hw.l2AreaMm2PerKiloWord;
        const auto order = mapping.loopOrder();
        for (int op = 0; op < 3; ++op) {
            std::size_t innermostRelevant = kNumDims;  // none
            for (std::size_t pos = 0; pos < kNumDims; ++pos) {
                if (relevant(order[pos], op))
                    innermostRelevant = pos;
            }
            std::size_t n = 0;
            for (std::size_t pos = 0; pos < kNumDims; ++pos) {
                if (innermostRelevant == kNumDims ||
                    pos > innermostRelevant)
                    continue;  // inside the reuse run
                const auto d = static_cast<std::size_t>(order[pos]);
                factors[op][n++] = Factor{
                    d, d == spatial && !relevant(order[pos], op)};
            }
            numFactors[op] = n;
        }
    }
};

MappingCost
evaluateMappingImpl(const MappingAnalysis &an, const LayerView &view,
                    const MaestroHardware &hw)
{
    MappingCost cost;
    const auto &sizes = view.sizes;

    // Clamp tiles to the layer's actual extents.
    std::array<double, kNumDims> tile;
    std::array<double, kNumDims> trips;
    for (std::size_t i = 0; i < kNumDims; ++i) {
        tile[i] = std::min(an.tileRaw[i], sizes[i]);
        trips[i] = std::ceil(sizes[i] / tile[i]);
    }

    const double pes = an.pes;
    const std::size_t spatial = an.spatial;

    const double spatialTrips = trips[spatial];
    const double waves = std::ceil(spatialTrips / pes);
    const double activePes = std::min(pes, spatialTrips);

    const double tk = tile[0], tc = tile[1], tr = tile[2], ts = tile[3],
                 ty = tile[4], tx = tile[5];
    const double stride = view.stride;
    const double inTileH = (ty - 1.0) * stride + tr;
    const double inTileW = (tx - 1.0) * stride + ts;
    const std::array<double, 3> footprint = {
        tk * tc * tr * ts,        // weights
        tc * inTileH * inTileW,   // inputs
        tk * ty * tx,             // outputs (psums)
    };
    cost.l1Required = footprint[0] + footprint[1] + footprint[2];

    // L2 -> L1 traffic via the precomputed per-operand reuse factors;
    // multiplication order matches a scan of the loop positions.
    std::array<double, 3> loads = {1.0, 1.0, 1.0};
    for (int op = 0; op < 3; ++op) {
        for (std::size_t j = 0; j < an.numFactors[op]; ++j) {
            const MappingAnalysis::Factor &f = an.factors[op][j];
            loads[op] *= f.useWaves ? waves : trips[f.dim];
        }
    }
    const double l2Traffic = loads[0] * footprint[0] +
                             loads[1] * footprint[1] +
                             (2.0 * loads[2] - 1.0) * footprint[2];

    cost.l2Required = footprint[0] * activePes + footprint[1] * activePes +
                      footprint[2] * activePes;
    const double l2Cap = an.l2Cap;
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
    const double dramTraffic = view.baseDramWords * spillFactor;

    const double macs = view.macs;
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

    const double l1Accesses = 3.0 * macs;
    cost.dramAccesses = dramTraffic;
    cost.l2Accesses = l2Traffic;
    const double energyPj = dramTraffic * hw.dramPj + l2Traffic * hw.l2Pj +
                            l1Accesses * hw.l1Pj + macs * hw.macPj;
    cost.energyUj = energyPj / 1e6;

    cost.areaMm2 = an.areaMm2;
    return cost;
}

} // namespace

MappingCost
evaluateMapping(const Mapping &mapping, const LayerView &layer,
                const MaestroHardware &hw)
{
    return evaluateMappingImpl(MappingAnalysis(mapping, hw), layer, hw);
}

MappingCost
evaluateMappingOnNetwork(const Mapping &mapping, const NetworkView &network,
                         const MaestroHardware &hw)
{
    const MappingAnalysis analysis(mapping, hw);
    MappingCost total;
    total.buffersFit = true;
    for (const LayerView &layer : network.layers()) {
        // Cooperative run deadline (core/resilience.h): per-layer, the
        // natural stride of the mapper evaluation.
        resilience::checkpoint();
        const MappingCost c = evaluateMappingImpl(analysis, layer, hw);
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

} // namespace archgym::maestro
