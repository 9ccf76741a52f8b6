/**
 * @file
 * Tracing from outside the library: timing decorators for the public
 * Environment and Agent interfaces, passed in through the EnvFactory and
 * AgentBuilder hooks, plus the in-memory span store they write to.
 *
 * The benchmark's untraced batches run without the decorators. Its
 * set-up probes wrap only the environments, with tracing off: the
 * decorator then only notes when the first simulator sample of a
 * repetition starts (the end of set-up). With tracing on, every agent and
 * environment call, every environment construction and every
 * configuration run (builder call to agent destruction) becomes a span.
 * Spans stay in per-thread memory until the repetition ends.
 *
 * The decorators forward every virtual of the interface and nothing
 * else, so a wrapped sweep is bit-identical to an unwrapped one
 * (transparency_test.cc checks this). They never forward the
 * non-virtual Environment::setBatchWorkers()/sampleCount(), which the
 * sweep engines do not call on the environments they are handed.
 */

#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/driver.h"

namespace perfbench {

enum class SpanKind : std::uint16_t
{
    Propose = 0,  ///< Agent::selectAction / selectActionBatch
    Observe = 1,  ///< Agent::observe / observeBatch
    Step = 2,     ///< Environment::step / stepBatch (count = samples)
    EnvSetup = 3, ///< one EnvFactory call
};

/** Thrown by the environment decorator to end a set-up probe. Not a
 *  std::exception, so no fault-isolation policy mistakes it for a
 *  failed run. */
struct SetupProbeStop
{
};

/** One agent or environment call; its run is the RunSpan of the same
 *  thread whose interval contains it. */
struct CallSpan
{
    std::uint64_t start = 0;  ///< ns since the repetition began
    std::uint32_t dur = 0;    ///< ns
    SpanKind kind = SpanKind::Step;
    std::uint16_t count = 0;  ///< samples of a Step span (saturating)
};

/** One configuration run: builder call to agent destruction. */
struct RunSpan
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t seed = 0;  ///< identifies the configuration
};

/** The spans one thread recorded in one repetition. */
struct ThreadSpans
{
    std::vector<CallSpan> calls;
    std::vector<RunSpan> runs;
};

/**
 * Span store and clock of one benchmark process. beginRepetition() and
 * the span accessors must only be called while no sweep is running;
 * the record calls are thread-safe.
 */
class Recorder
{
  public:
    /** Start a repetition: clear spans, reset the clock and the
     *  first-sample mark, and set whether spans are recorded. With
     *  `stop_at_first_sample`, the first simulator call throws
     *  SetupProbeStop instead of running: the repetition then measures
     *  set-up only. */
    void beginRepetition(bool tracing, bool stop_at_first_sample = false);

    bool stopAtFirstSample() const { return stopAtFirstSample_; }

    bool tracing() const { return tracing_; }

    /** ns since the current repetition began. */
    std::uint64_t now() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    /** Note that a simulator call starts at `t` (keeps the earliest). */
    void noteSample(std::uint64_t t)
    {
        if (firstSample_.load(std::memory_order_relaxed) != 0)
            return;
        std::uint64_t expected = 0;
        firstSample_.compare_exchange_strong(expected, t + 1);
    }

    /** Start of the repetition's first simulator call, in ns;
     *  false when no sample ran. */
    bool firstSample(std::uint64_t &t) const;

    void call(SpanKind kind, std::uint64_t start, std::uint64_t end,
              std::size_t count = 0);
    void run(std::uint64_t start, std::uint64_t end, std::uint64_t seed);

    /** Spans of the current repetition, one entry per thread that
     *  recorded any. */
    const std::vector<std::unique_ptr<ThreadSpans>> &threads() const
    {
        return threads_;
    }

    /** Write the current repetition's spans to `path` (binary layout in
     *  perfbench/README.md) and flush them to disk. */
    void writeSpans(const std::string &path) const;

  private:
    ThreadSpans &local();

    bool tracing_ = false;
    bool stopAtFirstSample_ = false;
    std::uint64_t generation_ = 0;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> firstSample_{0};

    std::mutex threadsMutex_;  ///< guards threads_ during a sweep
    std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/** Wrap every environment the factory builds in the timing decorator. */
archgym::EnvFactory wrapEnvFactory(archgym::EnvFactory inner,
                                   Recorder &recorder);

/** Wrap every agent the builder builds in the timing decorator. */
archgym::AgentBuilder wrapAgentBuilder(archgym::AgentBuilder inner,
                                       Recorder &recorder);

} // namespace perfbench

#endif // PERFBENCH_TRACING_H
