#include "scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/resilience.h"

namespace archgym::farsi {

TaskGraphView::TaskGraphView(const TaskGraph &graph)
{
    assert(graph.topologicallyOrdered());
    const std::size_t n = graph.tasks.size();
    kinds_.reserve(n);
    ops_.reserve(n);
    for (const Task &t : graph.tasks) {
        kinds_.push_back(t.kind);
        ops_.push_back(t.ops);
    }
    // Counting-sort edges by destination, preserving edge-list order
    // within each destination (the bus serialization order).
    inStart_.assign(n + 1, 0);
    for (const Edge &e : graph.edges)
        ++inStart_[e.dst + 1];
    for (std::size_t i = 0; i < n; ++i)
        inStart_[i + 1] += inStart_[i];
    inEdges_.resize(graph.edges.size());
    std::vector<std::size_t> cursor(inStart_.begin(), inStart_.end() - 1);
    for (const Edge &e : graph.edges)
        inEdges_[cursor[e.dst]++] = InEdge{e.src, e.bytes};
    operandBytes_.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (const InEdge *e = inBegin(i); e != inEnd(i); ++e)
            operandBytes_[i] += e->bytes;
}

void
evaluateSoc(const SocConfig &config, const TaskGraphView &view,
            SocEvalScratch &scratch, SocResult &out)
{
    out.feasible = false;
    out.latencyMs = 0.0;
    out.powerW = 0.0;
    out.energyMj = 0.0;
    out.busUtilization = 0.0;
    out.areaMm2 = config.areaMm2();

    // The PE list is fully described by four (class spec, count) runs in
    // instantiate() order — little, big, dsp, img — so the hot path
    // never materializes per-instance PeSpec copies. Instance indices
    // (and thus the reported assignment) match instantiate() exactly.
    struct ClassRun
    {
        const PeSpec *spec;
        std::size_t begin;
        std::size_t end;
    };
    ClassRun runs[4];
    std::size_t numRuns = 0;
    std::size_t numPes = 0;
    const auto addRun = [&](PeType type, std::uint32_t count) {
        if (count == 0)
            return;
        runs[numRuns++] = ClassRun{&peSpec(type), numPes, numPes + count};
        numPes += count;
    };
    addRun(PeType::LittleCore, config.littleCores);
    addRun(PeType::BigCore, config.bigCores);
    addRun(PeType::DspAccel, config.dspAccels);
    addRun(PeType::ImageAccel, config.imageAccels);

    if (numPes == 0) {
        out.assignment.clear();
        out.latencyMs = 1e6;
        out.powerW = 1e3;
        return;
    }

    const double busGBps = static_cast<double>(config.busWidthBits) /
                           8.0 * config.busFrequencyGhz;
    const double xferGBps = std::min(busGBps, config.memoryBandwidthGBps);

    const std::size_t numTasks = view.taskCount();
    scratch.peFree.assign(numPes, 0.0);
    scratch.peBusy.assign(numPes, 0.0);
    scratch.finish.assign(numTasks, 0.0);
    out.assignment.assign(numTasks, 0);
    std::vector<double> &peFree = scratch.peFree;
    std::vector<double> &peBusy = scratch.peBusy;
    std::vector<double> &finish = scratch.finish;
    double busFree = 0.0;
    double busBusy = 0.0;
    double busBytes = 0.0;

    bool feasible = true;
    for (std::size_t i = 0; i < numTasks; ++i) {
        // Cooperative run deadline (core/resilience.h). Strided: the
        // per-task body is sub-microsecond, checking every iteration
        // would be measurable.
        if ((i & 0xFFU) == 0)
            resilience::checkpoint();
        double dataReady = 0.0;
        for (const TaskGraphView::InEdge *e = view.inBegin(i);
             e != view.inEnd(i); ++e) {
            const double start = std::max(finish[e->src], busFree);
            const double dur = e->bytes / xferGBps;
            busFree = start + dur;
            busBusy += dur;
            busBytes += e->bytes;
            dataReady = std::max(dataReady, busFree);
        }

        const TaskKind kind = view.kind(i);
        const double taskOps = view.ops(i);
        double bestFinish = std::numeric_limits<double>::infinity();
        std::size_t bestPe = numPes;
        // The task duration (the expensive division) is computed once
        // per class instead of once per instance; the earliest-finish
        // scan over instances keeps tie-breaking (and the reported
        // assignment) bit-identical to the per-instance scan.
        for (std::size_t r = 0; r < numRuns; ++r) {
            const PeSpec &spec = *runs[r].spec;
            if (!spec.canRun(kind))
                continue;
            const double opsPerNs =
                spec.effectiveOpsPerCycle(kind) * config.frequencyGhz;
            const double dur = taskOps / opsPerNs;
            for (std::size_t p = runs[r].begin; p < runs[r].end; ++p) {
                const double f = std::max(peFree[p], dataReady) + dur;
                if (f < bestFinish) {
                    bestFinish = f;
                    bestPe = p;
                }
            }
        }
        if (bestPe == numPes) {
            feasible = false;
            const double dur = taskOps / (0.05 * config.frequencyGhz);
            bestPe = 0;
            bestFinish = std::max(peFree[0], dataReady) + dur;
        }
        const double start = std::max(peFree[bestPe], dataReady);
        finish[i] = bestFinish;
        peBusy[bestPe] += bestFinish - start;
        peFree[bestPe] = bestFinish;
        out.assignment[i] = bestPe;
    }

    const double makespanNs =
        std::max(*std::max_element(finish.begin(), finish.end()), busFree);
    out.feasible = feasible;
    out.latencyMs = makespanNs / 1e6;
    out.busUtilization = makespanNs > 0.0 ? busBusy / makespanNs : 0.0;

    const double f2 = config.frequencyGhz * config.frequencyGhz;
    double energyPj = 0.0;
    for (std::size_t r = 0; r < numRuns; ++r) {
        const PeSpec &spec = *runs[r].spec;
        for (std::size_t p = runs[r].begin; p < runs[r].end; ++p) {
            const double activeNs = peBusy[p];
            const double idleNs = makespanNs - activeNs;
            energyPj += activeNs * spec.activePowerW * f2 * 1000.0;
            energyPj += idleNs * spec.idlePowerW * 1000.0;
        }
    }
    energyPj += busBytes * (kBusPjPerByte + kMemPjPerByte);

    out.energyMj = energyPj / 1e9;
    out.powerW = makespanNs > 0.0 ? energyPj / makespanNs / 1000.0 : 0.0;
}

} // namespace archgym::farsi
