/**
 * @file
 * Stack-distance trace profiling and CDF-driven streamed workload
 * generation (ROADMAP item 3; the DLRM trace_profile -> trace_generator
 * flow of UPMEM-DLRM, see SNIPPETS.md snippet 1).
 *
 * Profiling: StackDistanceProfiler ingests any request stream and emits
 * a cache-line-granular stack-distance histogram/CDF — for each access,
 * the number of distinct lines touched since the previous access to the
 * same line (first touches are "cold", distances beyond maxDistance are
 * "overflow"). The hot path is an O(log N) ordered-statistic structure
 * (a Fenwick tree over last-touch slots, LruStackTimeline), checked
 * bit for bit against the naive LRU-stack oracle in the test-only
 * archgym_oracles library (tests/oracles/oracles.h).
 *
 * Generation: makeSdSource() inverts a StackDistanceCdf through the
 * same LRU-stack timeline — sample a distance from the CDF, re-touch
 * the line at that stack depth (or a fresh line for cold/overflow mass)
 * — plus an arrival-process knob (mean gap and jitter). Profiling a
 * generated stream reproduces the source CDF within tolerance;
 * tests/test_trace_profile.cc closes that loop. makeEmbSource() adds a
 * recommendation-model embedding-lookup gather pattern: huge-table
 * sparse reads with Zipfian hot-entry skew, issued as batched pooling
 * bursts — the memory traffic of a production recsys.
 *
 * All sources implement the chunk-pull SyntheticTraceSource interface
 * (trace_gen.h), so arbitrarily long traces stream at flat memory.
 * runStreamed() feeds a source through a DramController in bounded
 * chunks (each simulated as its own drain-to-empty segment, results
 * merged), which is what lets DramGymEnv evaluate 100x-longer traces
 * without materializing them.
 *
 * The CDF serializes to JSON via core/jsonio (value-exact round trip).
 */

#ifndef ARCHGYM_DRAMSYS_TRACE_PROFILE_H
#define ARCHGYM_DRAMSYS_TRACE_PROFILE_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dramsys/controller.h"
#include "dramsys/trace_gen.h"

namespace archgym::dram {

/**
 * A profiled stack-distance distribution plus the side statistics a
 * generator needs to synthesize statistically-matched traffic.
 */
struct StackDistanceCdf
{
    std::uint64_t lineBytes = kTraceCacheLine;
    std::uint64_t maxDistance = 1024;   ///< histogram bins [0, maxDistance)
    std::uint64_t totalAccesses = 0;
    std::uint64_t coldAccesses = 0;     ///< first touch of a line
    std::uint64_t overflowAccesses = 0; ///< finite distance >= maxDistance
    double writeFraction = 0.0;
    double meanGapCycles = 0.0;         ///< mean inter-arrival gap
    std::vector<std::uint64_t> histogram;  ///< counts per distance bin

    std::uint64_t
    reuseAccesses() const
    {
        return totalAccesses - coldAccesses - overflowAccesses;
    }
    /** Fraction of accesses with no modeled reuse (cold + overflow). */
    double missFraction() const;
    /** P(distance <= k | finite reuse), one entry per histogram bin. */
    std::vector<double> cumulative() const;

    std::string toJson() const;
    /** @throws std::runtime_error naming `context` on malformed input. */
    static StackDistanceCdf fromJson(const std::string &text,
                                     const std::string &context);
    void save(const std::string &path) const;
    static StackDistanceCdf load(const std::string &path);
};

/**
 * O(log N) LRU-stack index shared by the profiler and the CDF-driven
 * generator: a Fenwick tree over "last-touch slots". Each live line
 * occupies the slot of its most recent touch; the tree counts live
 * slots, so both directions of the stack-distance query are
 * logarithmic:
 *
 *  - touch(key): depth of key in the LRU stack (0 = most recent) =
 *    number of live slots after its last-touch slot — then promote it
 *    to the top (profiling direction);
 *  - touchAtDepth(d): select the line whose depth is exactly d by
 *    Fenwick prefix-rank descent and promote it (generation direction).
 *
 * Slots are consumed append-only and compacted in recency order when
 * the timeline fills, so the structure is O(live lines) in memory with
 * amortized O(log N) operations.
 */
class LruStackTimeline
{
  public:
    static constexpr std::size_t kCold = static_cast<std::size_t>(-1);

    /** Number of distinct lines currently tracked. */
    std::size_t size() const { return live_; }

    /** Depth of key before this touch (kCold if never seen), then
     *  promote key to the top of the stack. */
    std::size_t touch(std::uint64_t key);

    /** Key currently at stack depth `depth`, promoted to the top.
     *  @pre depth < size(). */
    std::uint64_t touchAtDepth(std::size_t depth);

    void clear();

  private:
    void place(std::uint64_t key);
    void compact();
    void add(std::size_t slot, std::int64_t delta);
    /** Live slots in [0, slot]. */
    std::uint64_t prefix(std::size_t slot) const;
    /** Smallest slot with prefix(slot) == rank. @pre 1 <= rank <= live_. */
    std::size_t select(std::uint64_t rank) const;

    std::vector<std::uint64_t> tree_;     ///< 1-indexed Fenwick counts
    std::vector<std::uint64_t> slotKey_;  ///< key last written per slot
    std::unordered_map<std::uint64_t, std::size_t> slotOf_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;  ///< next free slot
    std::size_t live_ = 0;
};

/** Throws std::invalid_argument unless both profiler arguments are
 *  positive (shared with the test oracle's constructor). */
void requireProfilerArgs(std::uint64_t line_bytes,
                         std::uint64_t max_distance);

/**
 * Incremental stack-distance profiler (Fenwick fast path). Feed it a
 * whole trace or observe() addresses as they stream past; cdf() is
 * valid at any point.
 */
class StackDistanceProfiler
{
  public:
    explicit StackDistanceProfiler(
        std::uint64_t line_bytes = kTraceCacheLine,
        std::uint64_t max_distance = 1024);

    void observe(std::uint64_t address, bool is_write);
    /** Also folds the request's arrival gap into meanGapCycles. */
    void observe(const MemoryRequest &r);

    StackDistanceCdf cdf() const;
    std::uint64_t distinctLines() const { return stack_.size(); }

  private:
    std::uint64_t lineBytes_;
    std::uint64_t maxDistance_;
    LruStackTimeline stack_;
    std::vector<std::uint64_t> histogram_;
    std::uint64_t total_ = 0;
    std::uint64_t cold_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t lastArrival_ = 0;
    std::uint64_t gapSum_ = 0;
    bool hasArrival_ = false;
};

/** Profile a materialized trace in one call. */
StackDistanceCdf
profileTrace(const std::vector<MemoryRequest> &trace,
             std::uint64_t line_bytes = kTraceCacheLine,
             std::uint64_t max_distance = 1024);

/** Knobs for the CDF-inverting generator. */
struct SdSourceConfig
{
    std::uint64_t addressSpaceBytes = 1ULL << 30;
    std::uint64_t seed = 7;
    /** Read/write mix; negative = take the profiled writeFraction. */
    double writeFraction = -1.0;
    /** Arrival-process knob: mean inter-arrival gap in cycles;
     *  negative = take the profiled meanGapCycles (floored at 1). */
    double meanGapCycles = -1.0;
    /** Gap jitter j: gaps drawn uniformly in [mean(1-j), mean(1+j)]. */
    double gapJitter = 1.0;
};

/**
 * Stream statistically-matched synthetic traffic from a profiled CDF:
 * each access either re-touches the line at a CDF-sampled stack depth
 * or (with the profiled cold+overflow probability) touches a fresh
 * line. @throws std::invalid_argument on empty CDFs or a footprint
 * that is not a multiple of the CDF's line size.
 */
std::unique_ptr<SyntheticTraceSource>
makeSdSource(const StackDistanceCdf &cdf, const SdSourceConfig &config);

/** Embedding-lookup gather knobs (DLRM-style sparse features). */
struct EmbSourceConfig
{
    std::size_t numTables = 8;
    std::uint64_t rowsPerTable = 0;  ///< 0 = fill addressSpaceBytes
    std::uint64_t rowBytes = kTraceCacheLine;
    std::size_t poolingFactor = 32;  ///< lookups per table per sample
    std::size_t batchSize = 16;      ///< samples per pooling burst
    double zipfExponent = 0.8;       ///< hot-entry skew (0 = uniform)
    double writeFraction = 0.0;      ///< gathers are reads by default
    std::uint64_t lookupGapCycles = 1;   ///< within a pooling burst
    std::uint64_t batchGapCycles = 400;  ///< between batches
    std::uint64_t addressSpaceBytes = 1ULL << 30;
    std::uint64_t seed = 7;
};

/**
 * Stream embedding-lookup gather traffic: per sample, poolingFactor
 * Zipf-skewed sparse reads into each of numTables tables, issued
 * back-to-back; batches of batchSize samples separated by idle gaps.
 * @throws std::invalid_argument when the tables do not fit the
 * footprint or a field is degenerate.
 */
std::unique_ptr<SyntheticTraceSource>
makeEmbSource(const EmbSourceConfig &config);

/**
 * A trace workload named by string, the unit DramGymEnv and the CLI
 * configure: the four legacy patterns ("streaming", "random",
 * "cloud1", "cloud2"), a profiled CDF ("sd:<cdf.json>"), or the
 * embedding gather ("emb"). `streamed` switches DramGymEnv to
 * chunk-pull evaluation (flat memory at any numRequests).
 */
struct TraceSpec
{
    std::string source = "cloud2";
    std::size_t numRequests = 512;
    std::uint64_t addressSpaceBytes = 1ULL << 30;
    std::uint64_t seed = 7;
    bool streamed = false;
    std::size_t chunkRequests = 4096;
};

/**
 * Build a source straight from a spec ("sd:" specs read the CDF file
 * here). @throws std::invalid_argument for unknown source names,
 * std::runtime_error for unreadable/malformed CDF files.
 */
std::unique_ptr<SyntheticTraceSource>
makeTraceSource(const TraceSpec &spec);

/**
 * A TraceSpec resolved once (sd: CDFs loaded from disk at construction)
 * into a cheap repeatable factory — what DramGymEnv holds so streamed
 * evaluation never re-reads files per step.
 */
class TraceSourceFactory
{
  public:
    explicit TraceSourceFactory(TraceSpec spec);

    std::unique_ptr<SyntheticTraceSource> make() const;
    const TraceSpec &spec() const { return spec_; }

  private:
    TraceSpec spec_;
    StackDistanceCdf cdf_;  ///< valid only for sd: sources
    bool hasCdf_ = false;
};

/** Materialize the next n requests of a source into a fresh vector. */
std::vector<MemoryRequest> materialize(SyntheticTraceSource &source,
                                       std::size_t n);

/**
 * Simulate total_requests pulled from a source through a controller in
 * chunks of chunk_requests, at flat memory: each chunk is rebased to
 * cycle 0 and simulated as its own drain-to-empty segment, and the
 * per-segment SimResults are merged (sums for counts/energy/time,
 * count-weighted means for latencies). The segmented schedule is the
 * documented streaming semantics — it is deterministic for a fixed
 * chunk size but not bit-identical across different chunk sizes.
 */
SimResult runStreamed(DramController &controller, const MemSpec &spec,
                      SyntheticTraceSource &source,
                      std::size_t total_requests,
                      std::size_t chunk_requests);

} // namespace archgym::dram

#endif // ARCHGYM_DRAMSYS_TRACE_PROFILE_H
