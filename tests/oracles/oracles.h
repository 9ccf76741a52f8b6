/**
 * @file
 * The archgym_oracles library: the seed-era reference implementations
 * that the bit-identity suites and the perf benches compare the
 * production paths against. Only tests and benches link it; libarchgym
 * defines none of these symbols (ctest archgym_defines_no_oracles).
 * Behavioural changes to a production path must be made to its oracle
 * in lockstep, or equivalence testing loses its anchor.
 */

#ifndef ARCHGYM_ORACLES_ORACLES_H
#define ARCHGYM_ORACLES_ORACLES_H

#include <cstdint>
#include <vector>

#include "agents/bayesian_opt.h"
#include "dramsys/controller.h"
#include "dramsys/dram_device.h"
#include "dramsys/trace_profile.h"
#include "farsi/scheduler.h"
#include "maestro/cost_model.h"
#include "timeloop/cost_model.h"

namespace archgym::oracle {

/**
 * The original (seed) DRAM controller, kept verbatim as the golden
 * reference for the optimized dram::DramController.
 *
 * Every scheduling decision here is made by scanning the full contents
 * of the scheduler queues (O(Q) per round) and every run copies and
 * re-decodes the trace. That is exactly why it was replaced on the hot
 * path — but it is also small, obviously correct, and matches the
 * behaviour the optimized controller must reproduce bit-for-bit. The
 * golden-equivalence suite in tests/test_dramsys.cc sweeps the full
 * scheduler x page-policy x buffer-org x arbiter x response-queue
 * cross-product on all four trace patterns and asserts `SimResult`
 * equality between the two, and bench/perf_dram_hotloop.cc measures the
 * speedup against it.
 */
class ReferenceDramController
{
  public:
    ReferenceDramController(const dram::MemSpec &spec,
                            const dram::ControllerConfig &config);

    /** Simulate a full trace to completion. */
    dram::SimResult run(std::vector<dram::MemoryRequest> trace);

    /** Address decode (row-bank-column interleave); exposed for tests. */
    dram::DramAddress decode(std::uint64_t address) const;

  private:
    struct QueueSet
    {
        std::vector<std::vector<std::size_t>> queues;  ///< request indices
        std::size_t capacityPerQueue = 0;
    };

    std::size_t queueIndexFor(const dram::MemoryRequest &req) const;
    bool queueHasSpace(std::size_t queue_index) const;
    void admitInto(std::size_t request_index, std::uint64_t now);
    void admit(std::uint64_t now);
    bool pendingRowHitInQueues(std::uint32_t flat_bank,
                               std::uint32_t row) const;
    /** Index into requests_ of the next request to service, or npos. */
    std::size_t schedule(std::uint64_t now);
    /** Issue the full command sequence; returns first issue cycle. */
    std::uint64_t service(std::size_t request_index, std::uint64_t now);
    void resolveReadCompletion(std::size_t request_index);
    void drainRespFifo();
    void retire(std::uint64_t now);
    void accrueRefreshDebt(std::uint64_t now);
    bool refreshForced() const;
    /** Close all banks and refresh; returns completion cycle. */
    std::uint64_t performRefresh(std::uint64_t now);
    std::size_t totalQueued() const;
    std::size_t queuedOfKind(bool is_write) const;

    dram::MemSpec spec_;
    dram::ControllerConfig config_;
    dram::DramDevice device_;

    // Address decode shifts/masks derived from the spec.
    std::uint32_t columnShift_ = 0;
    std::uint32_t bankShift_ = 0;
    std::uint32_t rankShift_ = 0;
    std::uint32_t rowShift_ = 0;
    std::uint32_t columnMask_ = 0;
    std::uint32_t bankMask_ = 0;
    std::uint32_t rankMask_ = 0;
    std::uint32_t rowMask_ = 0;

    // Per-run state.
    std::vector<dram::MemoryRequest> requests_;
    QueueSet buffers_;
    std::size_t arrivalIndex_ = 0;
    std::uint32_t activeTransactions_ = 0;
    std::vector<std::size_t> respFifo_;   ///< admission-ordered read ids
    std::size_t respFifoHead_ = 0;
    std::uint64_t lastRespRelease_ = 0;
    std::vector<std::pair<std::uint64_t, std::size_t>> retireHeap_;
    std::size_t resolvedCount_ = 0;

    std::int64_t refreshOwed_ = 0;
    std::uint64_t nextRefreshDue_ = 0;
    std::uint64_t refreshBusyUntil_ = 0;
    std::uint64_t forcedRefreshes_ = 0;

    bool writeGroupActive_ = false;  ///< FrFcFsGrp current group

    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
};

/**
 * The naive LRU-stack oracle for dram::StackDistanceProfiler: a plain
 * move-to-front vector, O(N) per access, with the same observe()/cdf()
 * interface and bit-identical output.
 */
class ReferenceStackProfiler
{
  public:
    explicit ReferenceStackProfiler(
        std::uint64_t line_bytes = dram::kTraceCacheLine,
        std::uint64_t max_distance = 1024);

    void observe(std::uint64_t address, bool is_write);
    void observe(const dram::MemoryRequest &r);

    dram::StackDistanceCdf cdf() const;
    std::uint64_t distinctLines() const { return stack_.size(); }

  private:
    std::uint64_t lineBytes_;
    std::uint64_t maxDistance_;
    std::vector<std::uint64_t> stack_;  ///< front = most recently used
    std::vector<std::uint64_t> histogram_;
    std::uint64_t total_ = 0;
    std::uint64_t cold_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t lastArrival_ = 0;
    std::uint64_t gapSum_ = 0;
    bool hasArrival_ = false;
};

/**
 * Same |a|^2 + |b|^2 - 2 a.b decomposition as crossSquaredDistances
 * (NOT the subtract-and-square form — the two differ in roundoff), per
 * pair, with b row-major (nb x dim).
 */
void crossSquaredDistancesNaive(const double *a, const double *a_norms,
                                std::size_t na, const double *b,
                                const double *b_norms, std::size_t nb,
                                std::size_t dim, double *out);

/**
 * The pre-overhaul Bayesian-optimization surrogate path: a full O(n^3)
 * GP refit on every history change and per-candidate scalar predicts.
 * The oracle for BayesianOptAgent's rank-1 update and batched-predict
 * machinery.
 */
class SeedBayesianOptAgent : public BayesianOptAgent
{
  public:
    using BayesianOptAgent::BayesianOptAgent;

  protected:
    void refit() override;
    Action selectByAcquisition() override;
};

// The seed's per-step-rebuild cost-model entry points: each call
// re-derives from the raw workload what the production path reads from
// a NetworkView / TaskGraphView built once per environment.

/** Timeloop mapper: tile candidates and operand counts per call. */
timeloop::LayerCost evaluateLayer(const timeloop::AcceleratorConfig &config,
                                  const timeloop::ConvLayer &layer,
                                  const timeloop::TechModel &tech = {});

timeloop::LayerCost
evaluateNetwork(const timeloop::AcceleratorConfig &config,
                const timeloop::Network &network,
                const timeloop::TechModel &tech = {});

/** MAESTRO reuse analysis: loop order and extents per call. */
maestro::MappingCost evaluateMapping(const maestro::Mapping &mapping,
                                     const timeloop::ConvLayer &layer,
                                     const maestro::MaestroHardware &hw = {});

maestro::MappingCost
evaluateMappingOnNetwork(const maestro::Mapping &mapping,
                         const timeloop::Network &network,
                         const maestro::MaestroHardware &hw = {});

/** FARSI list scheduler: per-task dependencies and PE list per call. */
farsi::SocResult evaluateSoc(const farsi::SocConfig &config,
                             const farsi::TaskGraph &graph);

} // namespace archgym::oracle

#endif // ARCHGYM_ORACLES_ORACLES_H
