/**
 * @file
 * Analytical cost model for the DNN accelerator (the Timeloop stand-in).
 *
 * For a given (architecture, layer) pair the model performs a small
 * internal mapping search in the style of Timeloop's mapper: it sweeps
 * power-of-two tile sizes for the K / C / P dimensions, discards tilings
 * that do not fit the scratchpads and global buffer, and evaluates the
 * remaining candidates with a loop-nest reuse model that counts per-level
 * accesses. The best-energy-delay mapping defines the layer cost.
 *
 * Latency is the max of compute-bound, NoC-bound, and DRAM-bound cycle
 * counts (roofline composition); energy sums per-level access energies
 * plus leakage over the runtime; area comes from the tech model.
 */

#ifndef ARCHGYM_TIMELOOP_COST_MODEL_H
#define ARCHGYM_TIMELOOP_COST_MODEL_H

#include <limits>

#include "timeloop/accelerator.h"
#include "timeloop/workload.h"

namespace archgym::timeloop {

/** Cost of one layer (or a whole network) on one architecture. */
struct LayerCost
{
    double cycles = 0.0;
    double latencyMs = 0.0;
    double energyUj = 0.0;
    double areaMm2 = 0.0;
    double utilization = 0.0;    ///< active PE fraction
    double dramAccesses = 0.0;   ///< words
    double bufferAccesses = 0.0; ///< global buffer words
    double spadAccesses = 0.0;   ///< register-file words

    /** Energy-delay product used to rank internal mappings. */
    double edp() const { return energyUj * latencyMs; }
};

/** Power-of-two tile candidates 1, 2, 4, ... below dim, then dim. */
std::vector<std::uint32_t> tileCandidates(std::uint32_t dim);

/** Per-level traffic and compute of one candidate tiling. */
struct MappingTotals
{
    double dramWords = std::numeric_limits<double>::infinity();
    double gbWords = 0.0;
    double spadWords = 0.0;
    double computeCycles = 0.0;
    double utilization = 0.0;
};

/** Roofline latency, access plus leakage energy, and area of a layer of
 *  `macs` MACs under the mapper's pick `best`, or, when no tiling fit
 *  (found false), under the stream-everything fallback. */
LayerCost layerCost(const AcceleratorConfig &config, const TechModel &tech,
                    MappingTotals best, bool found, double macs);

/**
 * Immutable preprocessed view of one layer: the power-of-two tile
 * candidates for the K / C / P mapper dimensions plus every loop bound
 * and operand count the mapper would otherwise re-derive for each of the
 * hundreds of candidate tilings it scores per evaluation.
 */
struct LayerView
{
    explicit LayerView(const ConvLayer &l);

    ConvLayer layer;
    std::vector<std::uint32_t> tilesK;  ///< candidates for outChannels
    std::vector<std::uint32_t> tilesC;  ///< candidates for inChannels
    std::vector<std::uint32_t> tilesP;  ///< candidates for outH
    double macs = 0.0;
    double weightCount = 0.0;
    double inputCount = 0.0;
    double outputCount = 0.0;
    double inputW = 0.0;
    double spadWords = 0.0;             ///< 3 words per MAC
};

/** Immutable preprocessed workload view, built once per environment and
 *  shared read-only across steps. */
class NetworkView
{
  public:
    explicit NetworkView(const Network &network);

    const std::string &name() const { return name_; }
    const std::vector<LayerView> &layers() const { return layers_; }

  private:
    std::string name_;
    std::vector<LayerView> layers_;
};

/** Evaluate one layer; always returns a finite cost (worst-case tiling
 *  degenerates to streaming everything from DRAM). All layer-only
 *  quantities are read from the view and candidate loops are pruned by
 *  capacity monotonicity — no per-call allocation or re-derivation.
 *  Bit-identical to the seed's per-step-rebuild mapper, which the
 *  test-only archgym_oracles library keeps (tests/oracles/oracles.h). */
LayerCost evaluateLayer(const AcceleratorConfig &config,
                        const LayerView &view, const TechModel &tech = {});

/** Sum of per-layer costs over a network (area is not accumulated). */
LayerCost evaluateNetwork(const AcceleratorConfig &config,
                          const NetworkView &network,
                          const TechModel &tech = {});

} // namespace archgym::timeloop

#endif // ARCHGYM_TIMELOOP_COST_MODEL_H
