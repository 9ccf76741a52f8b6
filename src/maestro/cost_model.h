/**
 * @file
 * MAESTRO-style reuse-analysis cost model.
 *
 * Given a layer and a mapping, the model derives per-operand reuse from
 * the loop order: an operand tile loaded into L1 is reused across the
 * contiguous innermost run of loops that are *irrelevant* to it (weights
 * ignore Y/X, inputs ignore K, outputs ignore C/R/S); every loop outside
 * that run forces a reload from L2. The spatially unrolled dimension is
 * processed in waves of numPEs, with multicast reuse for operands the
 * spatial dimension is irrelevant to. From the resulting per-level access
 * counts the model reports <runtime, throughput, energy, area> (Table 3).
 */

#ifndef ARCHGYM_MAESTRO_COST_MODEL_H
#define ARCHGYM_MAESTRO_COST_MODEL_H

#include "maestro/mapping.h"
#include "timeloop/workload.h"

namespace archgym::maestro {

/** Reuse the ConvLayer/network definitions (Y/X map to P/Q). */
using timeloop::ConvLayer;
using timeloop::Network;

/** Hardware constants the mapping must live within. */
struct MaestroHardware
{
    std::uint32_t l1Words = 512;       ///< per-PE buffer
    std::uint32_t l2KiloWords = 256;   ///< shared buffer
    std::uint32_t nocWordsPerCycle = 8;
    std::uint32_t dramWordsPerCycle = 2;
    double clockGhz = 1.0;

    // Energy per access (pJ/word) and area coefficients.
    double dramPj = 200.0;
    double l2Pj = 6.0;
    double l1Pj = 1.0;
    double macPj = 0.2;
    double peAreaMm2 = 0.008;
    double l1AreaMm2PerWord = 2e-5;
    double l2AreaMm2PerKiloWord = 0.04;
};

/** Cost of one (layer, mapping) pair. */
struct MappingCost
{
    double runtimeCycles = 0.0;
    double throughputMacsPerCycle = 0.0;
    double energyUj = 0.0;
    double areaMm2 = 0.0;
    double l1Required = 0.0;       ///< words per PE
    double l2Required = 0.0;       ///< words
    double dramAccesses = 0.0;     ///< words
    double l2Accesses = 0.0;       ///< words
    bool buffersFit = true;        ///< capacity respected without spills
};

/** Per-dimension extents of the layer, indexed by Dim. */
std::array<double, kNumDims> dimSizes(const ConvLayer &layer);

/** Whether the loop dimension indexes the operand (0 = weights,
 *  1 = inputs, 2 = outputs). */
bool relevant(Dim d, int operand);

/** Immutable per-layer extents: the dimension sizes the per-step tile
 *  clamp runs against, plus the operand counts the DRAM-traffic term
 *  re-derives per evaluation. */
struct LayerView
{
    explicit LayerView(const ConvLayer &layer);

    std::array<double, kNumDims> sizes{};  ///< indexed by Dim
    double stride = 1.0;
    double macs = 0.0;
    /** weightCount + inputCount + 2 * outputCount (DRAM words/layer). */
    double baseDramWords = 0.0;
};

/** Immutable preprocessed workload view, built once per environment and
 *  shared read-only across steps. */
class NetworkView
{
  public:
    explicit NetworkView(const Network &network);

    const std::string &name() const { return name_; }
    const std::vector<LayerView> &layers() const { return layers_; }
    double totalMacs() const { return totalMacs_; }

  private:
    std::string name_;
    std::vector<LayerView> layers_;
    double totalMacs_ = 0.0;
};

/** Evaluate one layer under the mapping; always finite. Bit-identical
 *  to the seed's per-step-rebuild model, which re-derived the loop
 *  order and every layer extent per call and which the test-only
 *  archgym_oracles library keeps (tests/oracles/oracles.h). */
MappingCost evaluateMapping(const Mapping &mapping, const LayerView &layer,
                            const MaestroHardware &hw = {});

/** Sum over a network with the same mapping applied to every layer.
 *  The loop-order reuse analysis (argsort + per-operand reuse runs) is
 *  derived once per mapping instead of once per layer. */
MappingCost evaluateMappingOnNetwork(const Mapping &mapping,
                                     const NetworkView &network,
                                     const MaestroHardware &hw = {});

} // namespace archgym::maestro

#endif // ARCHGYM_MAESTRO_COST_MODEL_H
