/**
 * @file
 * Tests for the SoC substrate: task graphs, PE catalog, list scheduling,
 * accelerator benefits, bus contention, and PPA accounting.
 */

#include <gtest/gtest.h>

#include "farsi/scheduler.h"
#include "farsi/soc.h"
#include "farsi/task_graph.h"
#include "mathutil/rng.h"
#include "oracles/oracles.h"

namespace archgym::farsi {
namespace {

SocConfig
baselineSoc()
{
    SocConfig cfg;
    cfg.littleCores = 2;
    cfg.bigCores = 1;
    cfg.dspAccels = 0;
    cfg.imageAccels = 0;
    return cfg;
}

/** The production path over a view built for this one evaluation. */
SocResult
evaluate(const SocConfig &cfg, const TaskGraph &graph)
{
    SocEvalScratch scratch;
    SocResult out;
    evaluateSoc(cfg, TaskGraphView(graph), scratch, out);
    return out;
}

// --------------------------------------------------------------------
// Task graphs
// --------------------------------------------------------------------

TEST(TaskGraphs, AreTopologicallyOrdered)
{
    EXPECT_TRUE(audioDecoder().topologicallyOrdered());
    EXPECT_TRUE(edgeDetection().topologicallyOrdered());
    EXPECT_TRUE(arOverlay().topologicallyOrdered());
}

TEST(TaskGraphs, ArOverlayMixesComputeKinds)
{
    const TaskGraph g = arOverlay();
    int image = 0, dsp = 0, generic = 0;
    for (const auto &t : g.tasks) {
        image += t.kind == TaskKind::Image;
        dsp += t.kind == TaskKind::Dsp;
        generic += t.kind == TaskKind::Generic;
    }
    EXPECT_GE(image, 2);
    EXPECT_GE(dsp, 2);
    EXPECT_GE(generic, 2);
}

TEST(Scheduler, ArOverlayBenefitsFromBothAccelerators)
{
    SocConfig base = baselineSoc();
    SocConfig imgOnly = base;
    imgOnly.imageAccels = 1;
    SocConfig both = imgOnly;
    both.dspAccels = 1;
    const double baseLat = evaluate(base, arOverlay()).latencyMs;
    const double imgLat = evaluate(imgOnly, arOverlay()).latencyMs;
    const double bothLat = evaluate(both, arOverlay()).latencyMs;
    EXPECT_LT(imgLat, baseLat);      // image accel helps
    EXPECT_LE(bothLat, imgLat);      // adding DSP never hurts
}

TEST(TaskGraphs, HaveWorkAndTransfers)
{
    for (const TaskGraph &g : {audioDecoder(), edgeDetection()}) {
        EXPECT_GT(g.totalOps(), 0.0) << g.name;
        EXPECT_GT(g.totalTransferBytes(), 0.0) << g.name;
        EXPECT_GE(g.tasks.size(), 6u) << g.name;
    }
}

TEST(TaskGraphs, PredecessorsMatchEdges)
{
    const TaskGraph g = edgeDetection();
    // magnitude (task 5) joins both Sobel branches.
    const auto preds = g.predecessors(5);
    EXPECT_EQ(preds.size(), 2u);
}

TEST(TaskGraphs, EdgeDetectionHasImageKindTasks)
{
    const TaskGraph g = edgeDetection();
    int imageTasks = 0;
    for (const auto &t : g.tasks)
        imageTasks += (t.kind == TaskKind::Image);
    EXPECT_GE(imageTasks, 4);
}

// --------------------------------------------------------------------
// PE catalog / SoC config
// --------------------------------------------------------------------

TEST(PeCatalog, AcceleratorsAreSinglePurpose)
{
    const PeSpec &dsp = peSpec(PeType::DspAccel);
    EXPECT_TRUE(dsp.canRun(TaskKind::Dsp));
    EXPECT_FALSE(dsp.canRun(TaskKind::Generic));
    EXPECT_FALSE(dsp.canRun(TaskKind::Image));
    const PeSpec &little = peSpec(PeType::LittleCore);
    EXPECT_TRUE(little.canRun(TaskKind::Dsp));
    EXPECT_TRUE(little.canRun(TaskKind::Image));
}

TEST(PeCatalog, AffinityBoostsThroughput)
{
    const PeSpec &img = peSpec(PeType::ImageAccel);
    EXPECT_GT(img.effectiveOpsPerCycle(TaskKind::Image),
              img.effectiveOpsPerCycle(TaskKind::Dsp));
}

TEST(SocConfig, InstantiateMatchesCounts)
{
    SocConfig cfg = baselineSoc();
    cfg.dspAccels = 2;
    const auto pes = cfg.instantiate();
    EXPECT_EQ(pes.size(), 5u);
}

TEST(SocConfig, AreaGrowsWithPEsAndBus)
{
    SocConfig small = baselineSoc();
    SocConfig big = small;
    big.bigCores += 2;
    EXPECT_GT(big.areaMm2(), small.areaMm2());
    SocConfig wide = small;
    wide.busWidthBits = 512;
    EXPECT_GT(wide.areaMm2(), small.areaMm2());
}

// --------------------------------------------------------------------
// Scheduling / PPA
// --------------------------------------------------------------------

TEST(Scheduler, BaselineIsFeasibleAndFinite)
{
    const SocResult r = evaluate(baselineSoc(), edgeDetection());
    EXPECT_TRUE(r.feasible);
    EXPECT_GT(r.latencyMs, 0.0);
    EXPECT_GT(r.powerW, 0.0);
    EXPECT_GT(r.energyMj, 0.0);
    EXPECT_EQ(r.assignment.size(), edgeDetection().tasks.size());
}

TEST(Scheduler, NoPEsIsInfeasible)
{
    SocConfig cfg;
    cfg.littleCores = 0;
    const SocResult r = evaluate(cfg, audioDecoder());
    EXPECT_FALSE(r.feasible);
}

TEST(Scheduler, AcceleratorOnlySocCannotRunGenericTasks)
{
    SocConfig cfg;
    cfg.littleCores = 0;
    cfg.imageAccels = 2;
    const SocResult r = evaluate(cfg, edgeDetection());
    EXPECT_FALSE(r.feasible);
    EXPECT_GT(r.latencyMs, 0.0);  // metrics stay defined
}

TEST(Scheduler, ImageAcceleratorSpeedsUpEdgeDetection)
{
    SocConfig base = baselineSoc();
    SocConfig accel = base;
    accel.imageAccels = 1;
    const SocResult rb = evaluate(base, edgeDetection());
    const SocResult ra = evaluate(accel, edgeDetection());
    EXPECT_LT(ra.latencyMs, rb.latencyMs);
}

TEST(Scheduler, DspAcceleratorHelpsAudioNotEdge)
{
    SocConfig base = baselineSoc();
    SocConfig dsp = base;
    dsp.dspAccels = 1;
    const double audioGain =
        evaluate(base, audioDecoder()).latencyMs /
        evaluate(dsp, audioDecoder()).latencyMs;
    const double edgeGain =
        evaluate(base, edgeDetection()).latencyMs /
        evaluate(dsp, edgeDetection()).latencyMs;
    EXPECT_GT(audioGain, 1.2);
    EXPECT_NEAR(edgeGain, 1.0, 0.05);
}

TEST(Scheduler, HigherFrequencyReducesLatencyRaisesPower)
{
    SocConfig slow = baselineSoc();
    slow.frequencyGhz = 0.6;
    SocConfig fast = baselineSoc();
    fast.frequencyGhz = 2.0;
    const SocResult rs = evaluate(slow, edgeDetection());
    const SocResult rf = evaluate(fast, edgeDetection());
    EXPECT_LT(rf.latencyMs, rs.latencyMs);
    EXPECT_GT(rf.powerW, rs.powerW);
}

TEST(Scheduler, WiderBusReducesTransferBoundLatency)
{
    SocConfig narrow = baselineSoc();
    narrow.busWidthBits = 32;
    narrow.memoryBandwidthGBps = 32.0;
    SocConfig wide = narrow;
    wide.busWidthBits = 512;
    const SocResult rn = evaluate(narrow, edgeDetection());
    const SocResult rw = evaluate(wide, edgeDetection());
    EXPECT_LE(rw.latencyMs, rn.latencyMs);
    EXPECT_LE(rw.busUtilization, 1.0);
    EXPECT_GE(rn.busUtilization, rw.busUtilization);
}

TEST(Scheduler, MemoryBandwidthCapsBus)
{
    SocConfig cfg = baselineSoc();
    cfg.busWidthBits = 512;
    cfg.busFrequencyGhz = 2.0;
    cfg.memoryBandwidthGBps = 2.0;  // bottleneck
    SocConfig fastMem = cfg;
    fastMem.memoryBandwidthGBps = 32.0;
    EXPECT_GE(evaluate(cfg, edgeDetection()).latencyMs,
              evaluate(fastMem, edgeDetection()).latencyMs);
}

TEST(Scheduler, MoreCoresExploitForkJoinParallelism)
{
    // Sobel X/Y are independent: two cores beat one.
    SocConfig one;
    one.littleCores = 1;
    SocConfig two;
    two.littleCores = 2;
    const SocResult r1 = evaluate(one, edgeDetection());
    const SocResult r2 = evaluate(two, edgeDetection());
    EXPECT_LT(r2.latencyMs, r1.latencyMs * 1.0001);
}

TEST(Scheduler, EnergyEqualsPowerTimesLatency)
{
    const SocResult r = evaluate(baselineSoc(), edgeDetection());
    // powerW = energy / makespan, and W x ms = mJ.
    EXPECT_NEAR(r.energyMj, r.powerW * r.latencyMs, r.energyMj * 1e-9);
}

// Property sweep across allocations: invariants hold everywhere.
class AllocationSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(AllocationSweep, MetricsStayPhysical)
{
    const auto [little, big, dsp, img] = GetParam();
    SocConfig cfg;
    cfg.littleCores = little;
    cfg.bigCores = big;
    cfg.dspAccels = dsp;
    cfg.imageAccels = img;
    for (const TaskGraph &g : {audioDecoder(), edgeDetection()}) {
        const SocResult r = evaluate(cfg, g);
        EXPECT_GT(r.latencyMs, 0.0);
        EXPECT_GT(r.powerW, 0.0);
        EXPECT_GT(r.areaMm2, 0.0);
        EXPECT_GE(r.busUtilization, 0.0);
        EXPECT_LE(r.busUtilization, 1.0 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Allocations, AllocationSweep,
    ::testing::Values(std::make_tuple(1, 0, 0, 0),
                      std::make_tuple(0, 1, 0, 0),
                      std::make_tuple(2, 1, 1, 1),
                      std::make_tuple(4, 4, 4, 4),
                      std::make_tuple(1, 0, 4, 0),
                      std::make_tuple(0, 0, 2, 2)));

// --------------------------------------------------------------------
// Decoded-once view (zero-copy evaluation path)
// --------------------------------------------------------------------

TEST(TaskGraphView, PrecomputesDependencyStructure)
{
    const TaskGraph g = edgeDetection();
    const TaskGraphView view(g);
    ASSERT_EQ(view.taskCount(), g.tasks.size());
    for (std::size_t i = 0; i < g.tasks.size(); ++i) {
        EXPECT_EQ(view.kind(i), g.tasks[i].kind);
        EXPECT_DOUBLE_EQ(view.ops(i), g.tasks[i].ops);
        // CSR in-edges match the predecessor scan, in edge-list order.
        const auto preds = g.predecessors(i);
        std::vector<std::size_t> viewPreds;
        double bytes = 0.0;
        for (const auto *e = view.inBegin(i); e != view.inEnd(i); ++e) {
            viewPreds.push_back(e->src);
            bytes += e->bytes;
        }
        EXPECT_EQ(viewPreds, preds) << "task " << i;
        EXPECT_DOUBLE_EQ(view.operandBytes(i), bytes) << "task " << i;
    }
}

TEST(TaskGraphView, ViewPathBitIdenticalToReferenceAcrossRandomSocs)
{
    // The per-step-rebuild scheduler (oracle::evaluateSoc over the raw
    // graph) is the oracle for the preallocated view path; every metric
    // and the full PE assignment must match exactly, including infeasible
    // and zero-PE configurations, with scratch/result buffers reused
    // across all trials.
    Rng rng(2024);
    for (const TaskGraph &g :
         {audioDecoder(), edgeDetection(), arOverlay()}) {
        const TaskGraphView view(g);
        SocEvalScratch scratch;
        SocResult out;
        for (int trial = 0; trial < 150; ++trial) {
            SocConfig cfg;
            cfg.littleCores = static_cast<std::uint32_t>(rng.below(5));
            cfg.bigCores = static_cast<std::uint32_t>(rng.below(5));
            cfg.dspAccels = static_cast<std::uint32_t>(rng.below(5));
            cfg.imageAccels = static_cast<std::uint32_t>(rng.below(5));
            cfg.frequencyGhz = 0.4 + 0.2 * static_cast<double>(
                                               rng.below(9));
            cfg.busWidthBits = 32u << rng.below(5);
            cfg.busFrequencyGhz = 0.4 + 0.2 * static_cast<double>(
                                                  rng.below(9));
            cfg.memoryBandwidthGBps =
                static_cast<double>(2u << rng.below(5));

            const SocResult ref = oracle::evaluateSoc(cfg, g);
            evaluateSoc(cfg, view, scratch, out);
            EXPECT_EQ(out.feasible, ref.feasible);
            EXPECT_EQ(out.latencyMs, ref.latencyMs);
            EXPECT_EQ(out.powerW, ref.powerW);
            EXPECT_EQ(out.areaMm2, ref.areaMm2);
            EXPECT_EQ(out.energyMj, ref.energyMj);
            EXPECT_EQ(out.busUtilization, ref.busUtilization);
            EXPECT_EQ(out.assignment, ref.assignment)
                << g.name << " trial " << trial;
        }
    }
}

} // namespace
} // namespace archgym::farsi
