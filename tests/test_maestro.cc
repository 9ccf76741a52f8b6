/**
 * @file
 * Tests for the data-centric mapping cost model: loop-order encoding,
 * reuse analysis (order sensitivity), spatial unrolling, buffer
 * accounting, and cross-mapping properties.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include <cmath>

#include "maestro/cost_model.h"
#include "maestro/mapping.h"
#include "mathutil/rng.h"
#include "oracles/oracles.h"

namespace archgym::maestro {
namespace {

ConvLayer
testLayer()
{
    ConvLayer l;
    l.name = "test";
    l.inChannels = 64;
    l.outChannels = 64;
    l.kernelH = 3;
    l.kernelW = 3;
    l.outH = 28;
    l.outW = 28;
    return l;
}

// --------------------------------------------------------------------
// Mapping encoding
// --------------------------------------------------------------------

TEST(Mapping, DefaultLoopOrderIsIdentity)
{
    Mapping m;
    const auto order = m.loopOrder();
    for (std::size_t i = 0; i < kNumDims; ++i)
        EXPECT_EQ(order[i], static_cast<Dim>(i));
}

TEST(Mapping, PrioritiesSortStably)
{
    Mapping m;
    m.priority = {5, 4, 3, 2, 1, 0};
    const auto order = m.loopOrder();
    EXPECT_EQ(order[0], Dim::X);
    EXPECT_EQ(order[5], Dim::K);
}

TEST(Mapping, TiedPrioritiesBreakByDimIndex)
{
    Mapping m;
    m.priority = {1, 1, 1, 1, 1, 1};
    const auto order = m.loopOrder();
    for (std::size_t i = 0; i < kNumDims; ++i)
        EXPECT_EQ(order[i], static_cast<Dim>(i));
}

TEST(Mapping, StrIsInformative)
{
    Mapping m;
    const std::string s = m.str();
    EXPECT_NE(s.find("pes="), std::string::npos);
    EXPECT_NE(s.find("order="), std::string::npos);
}

// --------------------------------------------------------------------
// Cost model basics
// --------------------------------------------------------------------

TEST(MaestroCost, FiniteAndPositive)
{
    const MappingCost c = evaluateMapping(Mapping{}, LayerView(testLayer()));
    EXPECT_GT(c.runtimeCycles, 0.0);
    EXPECT_GT(c.throughputMacsPerCycle, 0.0);
    EXPECT_GT(c.energyUj, 0.0);
    EXPECT_GT(c.areaMm2, 0.0);
    EXPECT_TRUE(std::isfinite(c.runtimeCycles));
}

TEST(MaestroCost, ThroughputTimesRuntimeEqualsMacs)
{
    const ConvLayer l = testLayer();
    const MappingCost c = evaluateMapping(Mapping{}, LayerView(l));
    EXPECT_NEAR(c.throughputMacsPerCycle * c.runtimeCycles, l.macs(),
                l.macs() * 1e-9);
}

TEST(MaestroCost, DramTrafficAtLeastCompulsory)
{
    const ConvLayer l = testLayer();
    const MappingCost c = evaluateMapping(Mapping{}, LayerView(l));
    EXPECT_GE(c.dramAccesses,
              (l.weightCount() + l.inputCount() + l.outputCount()) *
                  0.999);
}

TEST(MaestroCost, TilesClampToLayerExtent)
{
    Mapping m;
    m.tile = {4096, 4096, 99, 99, 4096, 4096};  // all oversized
    const MappingCost c = evaluateMapping(m, LayerView(testLayer()));
    EXPECT_TRUE(std::isfinite(c.runtimeCycles));
    EXPECT_GT(c.l1Required, 0.0);
}

// --------------------------------------------------------------------
// Reuse analysis: order sensitivity (what GAMMA's reorder exploits)
// --------------------------------------------------------------------

TEST(MaestroCost, InnermostIrrelevantLoopsIncreaseReuse)
{
    const ConvLayer l = testLayer();
    Mapping weightStationary;
    weightStationary.tile = {8, 8, 3, 3, 4, 4};
    // Weights are irrelevant to Y/X: placing Y,X innermost maximizes
    // weight reuse at L1.
    weightStationary.priority = {0, 1, 2, 3, 4, 5};  // K C R S | Y X inner

    Mapping weightThrashing = weightStationary;
    // Y,X outermost: every weight tile is reloaded per output position.
    weightThrashing.priority = {4, 5, 2, 3, 0, 1};  // Y X outer

    const MappingCost good = evaluateMapping(weightStationary, LayerView(l));
    const MappingCost bad = evaluateMapping(weightThrashing, LayerView(l));
    EXPECT_LT(good.l2Accesses, bad.l2Accesses);
}

TEST(MaestroCost, ReorderingChangesCost)
{
    // The loop order must be a live part of the cost function, otherwise
    // GAMMA's reordering operator would be a no-op in this environment.
    const ConvLayer l = testLayer();
    Mapping m;
    m.tile = {8, 8, 3, 3, 4, 4};
    std::vector<double> costs;
    std::array<std::array<std::uint32_t, kNumDims>, 4> orders = {{
        {0, 1, 2, 3, 4, 5},
        {5, 4, 3, 2, 1, 0},
        {2, 0, 4, 1, 5, 3},
        {1, 3, 0, 5, 2, 4},
    }};
    for (const auto &p : orders) {
        m.priority = p;
        costs.push_back(evaluateMapping(m, LayerView(l)).l2Accesses);
    }
    std::sort(costs.begin(), costs.end());
    EXPECT_LT(costs.front(), costs.back());
}

// --------------------------------------------------------------------
// Spatial unrolling
// --------------------------------------------------------------------

TEST(MaestroCost, MorePEsReduceRuntimeOnComputeBound)
{
    ConvLayer l = testLayer();
    Mapping few;
    few.tile = {4, 4, 3, 3, 4, 4};
    few.spatialDim = Dim::K;
    few.numPEs = 4;
    Mapping many = few;
    many.numPEs = 1024;
    EXPECT_LE(evaluateMapping(many, LayerView(l)).runtimeCycles,
              evaluateMapping(few, LayerView(l)).runtimeCycles);
}

TEST(MaestroCost, SpatialDimChoiceMatters)
{
    const ConvLayer l = testLayer();
    Mapping m;
    m.tile = {2, 64, 3, 3, 2, 28};
    m.numPEs = 256;
    m.spatialDim = Dim::K;  // K has 32 tiles to unroll
    const double rtK = evaluateMapping(m, LayerView(l)).runtimeCycles;
    m.spatialDim = Dim::C;  // C has a single tile: no parallelism
    const double rtC = evaluateMapping(m, LayerView(l)).runtimeCycles;
    EXPECT_LT(rtK, rtC);
}

// --------------------------------------------------------------------
// Buffers
// --------------------------------------------------------------------

TEST(MaestroCost, OversizedTilesFlagBufferOverflow)
{
    ConvLayer l = testLayer();
    Mapping huge;
    huge.tile = {64, 64, 3, 3, 28, 28};  // whole layer in "L1"
    MaestroHardware hw;
    hw.l1Words = 64;
    const MappingCost c = evaluateMapping(huge, LayerView(l), hw);
    EXPECT_FALSE(c.buffersFit);
    Mapping tiny;
    tiny.tile = {1, 2, 3, 3, 2, 2};
    EXPECT_TRUE(evaluateMapping(tiny, LayerView(l), hw).buffersFit);
}

TEST(MaestroCost, OverflowInflatesDramTraffic)
{
    ConvLayer l = testLayer();
    MaestroHardware hw;
    hw.l1Words = 64;
    Mapping fits;
    fits.tile = {1, 2, 3, 3, 2, 2};
    Mapping spills;
    spills.tile = {64, 64, 3, 3, 28, 28};
    EXPECT_GT(evaluateMapping(spills, LayerView(l), hw).dramAccesses,
              evaluateMapping(fits, LayerView(l), hw).dramAccesses);
}

// --------------------------------------------------------------------
// Network evaluation
// --------------------------------------------------------------------

TEST(MaestroCost, NetworkSumsLayers)
{
    const Network net = timeloop::resNet18();
    const Mapping m;
    const MappingCost total = evaluateMappingOnNetwork(m, NetworkView(net));
    double runtime = 0.0;
    for (const auto &l : net.layers)
        runtime += evaluateMapping(m, LayerView(l)).runtimeCycles;
    EXPECT_NEAR(total.runtimeCycles, runtime, runtime * 1e-9);
}

TEST(MaestroCost, Vgg16SlowerThanResNet18SameMapping)
{
    const Mapping m;
    EXPECT_GT(
        evaluateMappingOnNetwork(m, NetworkView(timeloop::vgg16()))
            .runtimeCycles,
        evaluateMappingOnNetwork(m, NetworkView(timeloop::resNet18()))
            .runtimeCycles);
}

// --------------------------------------------------------------------
// Decoded-once network view
// --------------------------------------------------------------------

Mapping
randomMapping(Rng &rng)
{
    Mapping m;
    m.numPEs = 64u << rng.below(5);
    m.spatialDim = static_cast<Dim>(rng.below(kNumDims));
    for (std::size_t i = 0; i < kNumDims; ++i) {
        // Oversized tiles exercise the per-layer clamp; ties in the
        // priorities exercise the stable argsort.
        m.tile[i] = 1u << rng.below(8);
        m.priority[i] = static_cast<std::uint32_t>(rng.below(4));
    }
    return m;
}

void
expectSameCost(const MappingCost &a, const MappingCost &b, int trial)
{
    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles) << trial;
    EXPECT_EQ(a.throughputMacsPerCycle, b.throughputMacsPerCycle)
        << trial;
    EXPECT_EQ(a.energyUj, b.energyUj) << trial;
    EXPECT_EQ(a.areaMm2, b.areaMm2) << trial;
    EXPECT_EQ(a.l1Required, b.l1Required) << trial;
    EXPECT_EQ(a.l2Required, b.l2Required) << trial;
    EXPECT_EQ(a.dramAccesses, b.dramAccesses) << trial;
    EXPECT_EQ(a.l2Accesses, b.l2Accesses) << trial;
    EXPECT_EQ(a.buffersFit, b.buffersFit) << trial;
}

TEST(NetworkView, LayerPathBitIdenticalToReference)
{
    // The once-per-mapping reuse analysis must reproduce the reference
    // per-layer loop-order scan exactly, over random mappings with tied
    // priorities, every spatial dimension, and clamped tiles.
    Rng rng(99);
    const ConvLayer l = testLayer();
    const LayerView view(l);
    for (int trial = 0; trial < 300; ++trial) {
        const Mapping m = randomMapping(rng);
        expectSameCost(evaluateMapping(m, view),
                       oracle::evaluateMapping(m, l), trial);
    }
}

TEST(NetworkView, NetworkPathBitIdenticalToReference)
{
    Rng rng(123);
    const timeloop::Network net = timeloop::resNet18();
    const NetworkView view(net);
    ASSERT_EQ(view.layers().size(), net.layers.size());
    EXPECT_EQ(view.totalMacs(), net.totalMacs());
    for (int trial = 0; trial < 100; ++trial) {
        const Mapping m = randomMapping(rng);
        expectSameCost(evaluateMappingOnNetwork(m, view),
                       oracle::evaluateMappingOnNetwork(m, net), trial);
    }
}

} // namespace
} // namespace archgym::maestro
