/**
 * @file
 * SoC simulation: contention-aware list scheduling of a task graph onto a
 * candidate SoC, producing the FARSI-style power / performance / area
 * estimate.
 *
 * Tasks are scheduled in topological order onto the compatible PE that
 * finishes them earliest; inter-task transfers serialize on the shared
 * bus at the effective bandwidth min(bus, memory). Energy integrates
 * active + idle PE power (with a DVFS-style f^2 active-power scaling),
 * bus transfer energy, and memory energy; average power assumes the frame
 * pipeline runs back-to-back (period = makespan).
 */

#ifndef ARCHGYM_FARSI_SCHEDULER_H
#define ARCHGYM_FARSI_SCHEDULER_H

#include <vector>

#include "farsi/soc.h"
#include "farsi/task_graph.h"

namespace archgym::farsi {

/** Outcome of evaluating one SoC on one workload. */
struct SocResult
{
    bool feasible = false;    ///< every task had a compatible PE
    double latencyMs = 0.0;   ///< makespan for one frame
    double powerW = 0.0;      ///< average power at steady state
    double areaMm2 = 0.0;
    double energyMj = 0.0;    ///< energy for one frame
    double busUtilization = 0.0;
    double fps() const { return latencyMs > 0.0 ? 1000.0 / latencyMs : 0.0; }

    /** Per-task PE assignment (indices into SocConfig::instantiate()). */
    std::vector<std::size_t> assignment;
};

/** Interconnect and memory energy per transferred byte. */
constexpr double kBusPjPerByte = 8.0;
constexpr double kMemPjPerByte = 15.0;

/**
 * Immutable preprocessed workload view, built once per environment and
 * shared read-only across steps: the topological order is validated at
 * construction, incoming edges are grouped per destination task (CSR
 * layout, preserving edge-list order), and per-task operand footprints
 * (total inbound transfer bytes) are precomputed.
 */
class TaskGraphView
{
  public:
    /** One incoming dependency of a task. */
    struct InEdge
    {
        std::size_t src = 0;
        double bytes = 0.0;
    };

    explicit TaskGraphView(const TaskGraph &graph);

    std::size_t taskCount() const { return kinds_.size(); }
    TaskKind kind(std::size_t task) const { return kinds_[task]; }
    double ops(std::size_t task) const { return ops_[task]; }

    /** Total inbound transfer volume of the task, in bytes. */
    double operandBytes(std::size_t task) const
    {
        return operandBytes_[task];
    }

    const InEdge *inBegin(std::size_t task) const
    {
        return inEdges_.data() + inStart_[task];
    }
    const InEdge *inEnd(std::size_t task) const
    {
        return inEdges_.data() + inStart_[task + 1];
    }

  private:
    std::vector<TaskKind> kinds_;
    std::vector<double> ops_;
    std::vector<double> operandBytes_;
    std::vector<std::size_t> inStart_;  ///< CSR offsets, size tasks+1
    std::vector<InEdge> inEdges_;       ///< grouped by dst, edge order
};

/** Reusable per-environment evaluation buffers, reset by reuse. */
struct SocEvalScratch
{
    std::vector<double> peFree;
    std::vector<double> peBusy;
    std::vector<double> finish;
};

/**
 * Evaluate the SoC on the graph the view was built from. Infeasible
 * allocations (a task with no compatible PE) return feasible=false with
 * pessimistic metrics so searches are steered away smoothly rather than
 * crashing. All working storage lives in `scratch` and `out` and is
 * reset by reuse — after the first call, no allocation happens per
 * step. Bit-identical to the seed's per-step-rebuild scheduler, which
 * the test-only archgym_oracles library keeps
 * (tests/oracles/oracles.h).
 */
void evaluateSoc(const SocConfig &config, const TaskGraphView &view,
                 SocEvalScratch &scratch, SocResult &out);

} // namespace archgym::farsi

#endif // ARCHGYM_FARSI_SCHEDULER_H
