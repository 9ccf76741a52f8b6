#include "trace_profile.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/fsio.h"
#include "core/jsonio.h"

namespace archgym::dram {

// ---------------------------------------------------------------------
// StackDistanceCdf
// ---------------------------------------------------------------------

double
StackDistanceCdf::missFraction() const
{
    if (totalAccesses == 0)
        return 1.0;
    return static_cast<double>(coldAccesses + overflowAccesses) /
           static_cast<double>(totalAccesses);
}

std::vector<double>
StackDistanceCdf::cumulative() const
{
    std::vector<double> out(histogram.size(), 0.0);
    const double denom =
        static_cast<double>(std::max<std::uint64_t>(1, reuseAccesses()));
    std::uint64_t run = 0;
    for (std::size_t i = 0; i < histogram.size(); ++i) {
        run += histogram[i];
        out[i] = static_cast<double>(run) / denom;
    }
    return out;
}

std::string
StackDistanceCdf::toJson() const
{
    std::string out = "{\"kind\":\"stack_distance_cdf\"";
    out += ",\"lineBytes\":" + std::to_string(lineBytes);
    out += ",\"maxDistance\":" + std::to_string(maxDistance);
    out += ",\"totalAccesses\":" + std::to_string(totalAccesses);
    out += ",\"coldAccesses\":" + std::to_string(coldAccesses);
    out += ",\"overflowAccesses\":" + std::to_string(overflowAccesses);
    out += ",\"writeFraction\":";
    jsonio::appendDouble(out, writeFraction);
    out += ",\"meanGapCycles\":";
    jsonio::appendDouble(out, meanGapCycles);
    out += ",\"histogram\":[";
    for (std::size_t i = 0; i < histogram.size(); ++i) {
        if (i)
            out += ",";
        out += std::to_string(histogram[i]);
    }
    out += "]}";
    return out;
}

StackDistanceCdf
StackDistanceCdf::fromJson(const std::string &text,
                           const std::string &context)
{
    StackDistanceCdf cdf;
    if (jsonio::stringField(text, "kind", context) != "stack_distance_cdf")
        throw std::runtime_error(context +
                                 ": not a stack_distance_cdf document");
    cdf.lineBytes = jsonio::uintField(text, "lineBytes", context);
    cdf.maxDistance = jsonio::uintField(text, "maxDistance", context);
    cdf.totalAccesses = jsonio::uintField(text, "totalAccesses", context);
    cdf.coldAccesses = jsonio::uintField(text, "coldAccesses", context);
    cdf.overflowAccesses =
        jsonio::uintField(text, "overflowAccesses", context);
    cdf.writeFraction = jsonio::doubleField(text, "writeFraction", context);
    cdf.meanGapCycles = jsonio::doubleField(text, "meanGapCycles", context);
    cdf.histogram = jsonio::uintArrayField(text, "histogram", context);
    if (cdf.histogram.size() != cdf.maxDistance)
        throw std::runtime_error(
            context + ": histogram has " +
            std::to_string(cdf.histogram.size()) + " bins, expected " +
            std::to_string(cdf.maxDistance));
    return cdf;
}

void
StackDistanceCdf::save(const std::string &path) const
{
    fsio::atomicWriteFile(path, toJson() + "\n");
}

StackDistanceCdf
StackDistanceCdf::load(const std::string &path)
{
    const std::string text = fsio::readFileIfExists(path);
    if (text.empty())
        throw std::runtime_error("stack-distance CDF: cannot read " + path);
    return fromJson(text, "stack-distance CDF " + path);
}

// ---------------------------------------------------------------------
// LruStackTimeline
// ---------------------------------------------------------------------

void
LruStackTimeline::add(std::size_t slot, std::int64_t delta)
{
    for (std::size_t i = slot + 1; i <= capacity_; i += i & (~i + 1))
        tree_[i] += static_cast<std::uint64_t>(delta);
}

std::uint64_t
LruStackTimeline::prefix(std::size_t slot) const
{
    std::uint64_t sum = 0;
    for (std::size_t i = slot + 1; i > 0; i -= i & (~i + 1))
        sum += tree_[i];
    return sum;
}

std::size_t
LruStackTimeline::select(std::uint64_t rank) const
{
    // Fenwick descent: largest position with prefix < rank; the slot
    // holding the rank-th live line is the next one. capacity_ is kept
    // a power of two, so it is also the top descent step.
    std::size_t pos = 0;
    std::uint64_t rem = rank;
    for (std::size_t step = capacity_; step > 0; step >>= 1) {
        const std::size_t next = pos + step;
        if (next <= capacity_ && tree_[next] < rem) {
            rem -= tree_[next];
            pos = next;
        }
    }
    return pos;  // 0-indexed slot
}

void
LruStackTimeline::compact()
{
    // Collect live lines in slot (= recency) order and reassign them to
    // the bottom of a fresh timeline at least twice their count, so at
    // least half of the new capacity is consumed before the next
    // compaction — amortized O(1) compactions per touch.
    std::vector<std::pair<std::size_t, std::uint64_t>> live;
    live.reserve(slotOf_.size());
    for (const auto &[key, slot] : slotOf_)
        live.emplace_back(slot, key);
    std::sort(live.begin(), live.end());

    std::size_t cap = 64;
    while (cap < 2 * (live_ + 1))
        cap <<= 1;
    capacity_ = cap;
    tree_.assign(capacity_ + 1, 0);
    slotKey_.assign(capacity_, 0);
    head_ = 0;
    for (const auto &[slot, key] : live) {
        slotKey_[head_] = key;
        slotOf_[key] = head_;
        add(head_, +1);
        ++head_;
    }
}

void
LruStackTimeline::place(std::uint64_t key)
{
    if (head_ == capacity_)
        compact();
    slotKey_[head_] = key;
    slotOf_[key] = head_;
    add(head_, +1);
    ++head_;
    ++live_;
}

std::size_t
LruStackTimeline::touch(std::uint64_t key)
{
    std::size_t depth = kCold;
    const auto it = slotOf_.find(key);
    if (it != slotOf_.end()) {
        const std::size_t slot = it->second;
        // Live slots strictly above `slot` are exactly the distinct
        // lines touched since this one: its stack depth.
        depth = live_ - static_cast<std::size_t>(prefix(slot));
        add(slot, -1);
        --live_;
        slotOf_.erase(it);
    }
    place(key);
    return depth;
}

std::uint64_t
LruStackTimeline::touchAtDepth(std::size_t depth)
{
    // depth 0 = most recent = highest live slot = bottom-up rank live_.
    const std::size_t slot = select(live_ - depth);
    const std::uint64_t key = slotKey_[slot];
    add(slot, -1);
    --live_;
    slotOf_.erase(key);
    place(key);
    return key;
}

void
LruStackTimeline::clear()
{
    tree_.clear();
    slotKey_.clear();
    slotOf_.clear();
    capacity_ = 0;
    head_ = 0;
    live_ = 0;
}

// ---------------------------------------------------------------------
// Profilers
// ---------------------------------------------------------------------

void
requireProfilerArgs(std::uint64_t line_bytes, std::uint64_t max_distance)
{
    if (line_bytes == 0)
        throw std::invalid_argument("profiler: lineBytes must be positive");
    if (max_distance == 0)
        throw std::invalid_argument(
            "profiler: maxDistance must be positive");
}

StackDistanceProfiler::StackDistanceProfiler(std::uint64_t line_bytes,
                                             std::uint64_t max_distance)
    : lineBytes_(line_bytes), maxDistance_(max_distance),
      histogram_(max_distance, 0)
{
    requireProfilerArgs(line_bytes, max_distance);
}

void
StackDistanceProfiler::observe(std::uint64_t address, bool is_write)
{
    const std::size_t depth = stack_.touch(address / lineBytes_);
    if (depth == LruStackTimeline::kCold)
        ++cold_;
    else if (depth >= maxDistance_)
        ++overflow_;
    else
        ++histogram_[depth];
    ++total_;
    writes_ += is_write;
}

void
StackDistanceProfiler::observe(const MemoryRequest &r)
{
    if (hasArrival_ && r.arrivalCycle >= lastArrival_)
        gapSum_ += r.arrivalCycle - lastArrival_;
    lastArrival_ = r.arrivalCycle;
    hasArrival_ = true;
    observe(r.address, r.isWrite);
}

StackDistanceCdf
StackDistanceProfiler::cdf() const
{
    StackDistanceCdf out;
    out.lineBytes = lineBytes_;
    out.maxDistance = maxDistance_;
    out.totalAccesses = total_;
    out.coldAccesses = cold_;
    out.overflowAccesses = overflow_;
    out.writeFraction =
        total_ ? static_cast<double>(writes_) / static_cast<double>(total_)
               : 0.0;
    out.meanGapCycles =
        total_ > 1 ? static_cast<double>(gapSum_) /
                         static_cast<double>(total_ - 1)
                   : 0.0;
    out.histogram = histogram_;
    return out;
}

StackDistanceCdf
profileTrace(const std::vector<MemoryRequest> &trace,
             std::uint64_t line_bytes, std::uint64_t max_distance)
{
    StackDistanceProfiler profiler(line_bytes, max_distance);
    for (const auto &r : trace)
        profiler.observe(r);
    return profiler.cdf();
}

// ---------------------------------------------------------------------
// CDF-driven source
// ---------------------------------------------------------------------

namespace {

class SdSource final : public SyntheticTraceSource
{
  public:
    SdSource(StackDistanceCdf cdf, const SdSourceConfig &config)
        : cdf_(std::move(cdf)), config_(config)
    {
        if (cdf_.totalAccesses == 0)
            throw std::invalid_argument("sd source: CDF has no accesses");
        if (cdf_.lineBytes == 0)
            throw std::invalid_argument(
                "sd source: CDF lineBytes must be positive");
        if (config_.addressSpaceBytes == 0 ||
            config_.addressSpaceBytes % cdf_.lineBytes != 0) {
            throw std::invalid_argument(
                "sd source: addressSpaceBytes must be a positive "
                "multiple of the CDF's lineBytes");
        }
        numLines_ = config_.addressSpaceBytes / cdf_.lineBytes;
        cumulative_.resize(cdf_.histogram.size());
        std::uint64_t run = 0;
        for (std::size_t i = 0; i < cdf_.histogram.size(); ++i) {
            run += cdf_.histogram[i];
            cumulative_[i] = run;
        }
        reuseTotal_ = cdf_.reuseAccesses();
        if (run != reuseTotal_)
            throw std::invalid_argument(
                "sd source: histogram sums to " + std::to_string(run) +
                ", expected totalAccesses - cold - overflow = " +
                std::to_string(reuseTotal_));
        missProb_ = cdf_.missFraction();
        writeFraction_ = config_.writeFraction >= 0.0
                             ? config_.writeFraction
                             : cdf_.writeFraction;
        const double meanGap =
            config_.meanGapCycles >= 0.0
                ? config_.meanGapCycles
                : std::max(1.0, cdf_.meanGapCycles);
        const double jitter =
            std::clamp(config_.gapJitter, 0.0, 1.0);
        // Continuous draw rounded per gap: the realized mean matches
        // meanGap without integer-quantization bias.
        gapLo_ = meanGap * (1.0 - jitter);
        gapSpan_ = 2.0 * meanGap * jitter;
        reset();
    }

    void
    reset() override
    {
        stack_.clear();
        rng_ = Rng(config_.seed ^ (0x5dULL << 56));
        cycle_ = 0;
        nextId_ = 0;
        nextFresh_ = 0;
    }

    void
    next(std::size_t n, std::vector<MemoryRequest> &out) override
    {
        for (std::size_t k = 0; k < n; ++k) {
            std::uint64_t line;
            // Cold/overflow mass touches a fresh line (allocated
            // sequentially, wrapping only once the footprint is
            // exhausted); the reuse mass re-touches the line at a
            // CDF-sampled stack depth.
            if (stack_.size() == 0 || rng_.chance(missProb_)) {
                line = nextFresh_++ % numLines_;
                stack_.touch(line);
            } else {
                const std::uint64_t r = rng_.below(reuseTotal_);
                std::size_t depth = static_cast<std::size_t>(
                    std::upper_bound(cumulative_.begin(),
                                     cumulative_.end(), r) -
                    cumulative_.begin());
                if (depth >= stack_.size())
                    depth = stack_.size() - 1;
                line = stack_.touchAtDepth(depth);
            }
            MemoryRequest req;
            req.id = nextId_++;
            req.address = line * cdf_.lineBytes;
            req.isWrite = rng_.chance(writeFraction_);
            req.arrivalCycle = cycle_;
            out.push_back(req);
            cycle_ += static_cast<std::uint64_t>(
                std::llround(gapLo_ + rng_.uniform() * gapSpan_));
        }
    }

  private:
    StackDistanceCdf cdf_;
    SdSourceConfig config_;
    std::vector<std::uint64_t> cumulative_;
    std::uint64_t reuseTotal_ = 0;
    double missProb_ = 1.0;
    double writeFraction_ = 0.0;
    double gapLo_ = 0.0;
    double gapSpan_ = 0.0;
    std::uint64_t numLines_ = 0;

    LruStackTimeline stack_;
    Rng rng_{0};
    std::uint64_t cycle_ = 0;
    std::uint64_t nextId_ = 0;
    std::uint64_t nextFresh_ = 0;
};

// ---------------------------------------------------------------------
// Embedding-lookup gather source
// ---------------------------------------------------------------------

class EmbSource final : public SyntheticTraceSource
{
  public:
    explicit EmbSource(const EmbSourceConfig &config) : config_(config)
    {
        if (config_.numTables == 0)
            throw std::invalid_argument(
                "emb source: numTables must be positive");
        if (config_.poolingFactor == 0)
            throw std::invalid_argument(
                "emb source: poolingFactor must be positive");
        if (config_.batchSize == 0)
            throw std::invalid_argument(
                "emb source: batchSize must be positive");
        if (config_.rowBytes == 0 ||
            config_.rowBytes % kTraceCacheLine != 0) {
            throw std::invalid_argument(
                "emb source: rowBytes must be a positive multiple of "
                "the 64-byte cache line");
        }
        if (config_.zipfExponent < 0.0)
            throw std::invalid_argument(
                "emb source: zipfExponent must be non-negative");
        const std::uint64_t perTable =
            config_.numTables * config_.rowBytes;
        rows_ = config_.rowsPerTable
                    ? config_.rowsPerTable
                    : config_.addressSpaceBytes / perTable;
        if (rows_ == 0 || rows_ * config_.numTables * config_.rowBytes >
                              config_.addressSpaceBytes) {
            throw std::invalid_argument(
                "emb source: numTables * rowsPerTable * rowBytes "
                "exceeds addressSpaceBytes");
        }
        tableStride_ = rows_ * config_.rowBytes;
        const double s = config_.zipfExponent;
        const double r = static_cast<double>(rows_);
        zipfIsLog_ = std::abs(s - 1.0) < 1e-9;
        logRows_ = std::log(r);
        powSpan_ = std::pow(r, 1.0 - s) - 1.0;
        invOneMinusS_ = zipfIsLog_ ? 0.0 : 1.0 / (1.0 - s);
        reset();
    }

    void
    reset() override
    {
        rng_ = Rng(config_.seed ^ (0xe2bULL << 48));
        cycle_ = 0;
        nextId_ = 0;
        poolIndex_ = 0;
        tableIndex_ = 0;
        sampleInBatch_ = 0;
    }

    void
    next(std::size_t n, std::vector<MemoryRequest> &out) override
    {
        for (std::size_t k = 0; k < n; ++k) {
            MemoryRequest req;
            req.id = nextId_++;
            req.address = tableIndex_ * tableStride_ +
                          zipfRow() * config_.rowBytes;
            req.isWrite = config_.writeFraction > 0.0 &&
                          rng_.chance(config_.writeFraction);
            req.arrivalCycle = cycle_;
            out.push_back(req);
            cycle_ += config_.lookupGapCycles;
            if (++poolIndex_ == config_.poolingFactor) {
                poolIndex_ = 0;
                if (++tableIndex_ == config_.numTables) {
                    tableIndex_ = 0;
                    if (++sampleInBatch_ == config_.batchSize) {
                        sampleInBatch_ = 0;
                        cycle_ += config_.batchGapCycles;
                    }
                }
            }
        }
    }

  private:
    /** Approximate Zipf(zipfExponent) rank via the continuous
     *  power-law inverse CDF: hot entries are the low row indices. */
    std::uint64_t
    zipfRow()
    {
        const double u = rng_.uniform();
        const double rank =
            zipfIsLog_ ? std::exp(u * logRows_)
                       : std::pow(u * powSpan_ + 1.0, invOneMinusS_);
        std::uint64_t row = static_cast<std::uint64_t>(rank) - 1;
        if (row >= rows_)
            row = rows_ - 1;
        return row;
    }

    EmbSourceConfig config_;
    std::uint64_t rows_ = 0;
    std::uint64_t tableStride_ = 0;
    bool zipfIsLog_ = false;
    double logRows_ = 0.0;
    double powSpan_ = 0.0;
    double invOneMinusS_ = 0.0;

    Rng rng_{0};
    std::uint64_t cycle_ = 0;
    std::uint64_t nextId_ = 0;
    std::size_t poolIndex_ = 0;
    std::size_t tableIndex_ = 0;
    std::size_t sampleInBatch_ = 0;
};

} // namespace

std::unique_ptr<SyntheticTraceSource>
makeSdSource(const StackDistanceCdf &cdf, const SdSourceConfig &config)
{
    return std::make_unique<SdSource>(cdf, config);
}

std::unique_ptr<SyntheticTraceSource>
makeEmbSource(const EmbSourceConfig &config)
{
    return std::make_unique<EmbSource>(config);
}

// ---------------------------------------------------------------------
// TraceSpec resolution
// ---------------------------------------------------------------------

TraceSourceFactory::TraceSourceFactory(TraceSpec spec)
    : spec_(std::move(spec))
{
    if (spec_.source.rfind("sd:", 0) == 0) {
        cdf_ = StackDistanceCdf::load(spec_.source.substr(3));
        hasCdf_ = true;
    }
    // Fail fast on unknown names / degenerate footprints: building one
    // source exercises every validation path.
    (void)make();
}

std::unique_ptr<SyntheticTraceSource>
TraceSourceFactory::make() const
{
    const std::string &name = spec_.source;
    const auto pattern = [&](TracePattern p) {
        TraceConfig tc;
        tc.pattern = p;
        tc.numRequests = spec_.numRequests;
        tc.addressSpaceBytes = spec_.addressSpaceBytes;
        tc.seed = spec_.seed;
        return makePatternSource(tc);
    };
    if (name == "streaming")
        return pattern(TracePattern::Streaming);
    if (name == "random")
        return pattern(TracePattern::Random);
    if (name == "cloud1" || name == "cloud-1")
        return pattern(TracePattern::Cloud1);
    if (name == "cloud2" || name == "cloud-2")
        return pattern(TracePattern::Cloud2);
    if (hasCdf_) {
        SdSourceConfig cfg;
        cfg.addressSpaceBytes = spec_.addressSpaceBytes;
        cfg.seed = spec_.seed;
        return makeSdSource(cdf_, cfg);
    }
    if (name == "emb") {
        EmbSourceConfig cfg;
        cfg.addressSpaceBytes = spec_.addressSpaceBytes;
        cfg.seed = spec_.seed;
        return makeEmbSource(cfg);
    }
    throw std::invalid_argument(
        "unknown trace source '" + name +
        "' (expected streaming|random|cloud1|cloud2|sd:<cdf.json>|emb)");
}

std::unique_ptr<SyntheticTraceSource>
makeTraceSource(const TraceSpec &spec)
{
    return TraceSourceFactory(spec).make();
}

std::vector<MemoryRequest>
materialize(SyntheticTraceSource &source, std::size_t n)
{
    std::vector<MemoryRequest> trace;
    trace.reserve(n);
    source.next(n, trace);
    return trace;
}

// ---------------------------------------------------------------------
// Streamed simulation
// ---------------------------------------------------------------------

SimResult
runStreamed(DramController &controller, const MemSpec &spec,
            SyntheticTraceSource &source, std::size_t total_requests,
            std::size_t chunk_requests)
{
    if (chunk_requests == 0)
        throw std::invalid_argument(
            "runStreamed: chunk_requests must be positive");
    std::vector<MemoryRequest> chunk;
    DecodedTrace decoded;
    SimResult agg;
    double latencySum = 0.0;
    double readLatencySum = 0.0;
    double bytesMoved = 0.0;
    std::size_t remaining = total_requests;
    while (remaining > 0) {
        const std::size_t n = std::min(chunk_requests, remaining);
        chunk.clear();
        source.next(n, chunk);
        // Rebase the segment to cycle 0 / position ids so the
        // controller does not idle through the stream's elapsed past.
        const std::uint64_t base = chunk.front().arrivalCycle;
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            chunk[i].arrivalCycle -= base;
            chunk[i].id = i;
        }
        decoded.assign(spec, chunk);
        const SimResult r = controller.run(decoded);

        agg.requests += r.requests;
        agg.reads += r.reads;
        agg.writes += r.writes;
        latencySum += r.avgLatencyNs * static_cast<double>(r.requests);
        readLatencySum +=
            r.avgReadLatencyNs * static_cast<double>(r.reads);
        agg.maxLatencyNs = std::max(agg.maxLatencyNs, r.maxLatencyNs);
        agg.totalCycles += r.totalCycles;
        agg.totalTimeNs += r.totalTimeNs;
        bytesMoved += r.bandwidthGBps * r.totalTimeNs;  // GB/s * ns = B
        agg.rowHits += r.rowHits;
        agg.rowMisses += r.rowMisses;
        agg.refreshes += r.refreshes;
        agg.forcedRefreshes += r.forcedRefreshes;
        agg.power.actPj += r.power.actPj;
        agg.power.prePj += r.power.prePj;
        agg.power.rdPj += r.power.rdPj;
        agg.power.wrPj += r.power.wrPj;
        agg.power.refPj += r.power.refPj;
        agg.power.backgroundPj += r.power.backgroundPj;
        agg.power.controllerPj += r.power.controllerPj;
        remaining -= n;
    }
    if (agg.requests)
        agg.avgLatencyNs = latencySum / static_cast<double>(agg.requests);
    if (agg.reads)
        agg.avgReadLatencyNs =
            readLatencySum / static_cast<double>(agg.reads);
    if (agg.totalTimeNs > 0.0) {
        agg.bandwidthGBps = bytesMoved / agg.totalTimeNs;
        agg.power.avgPowerW =
            agg.power.totalPj() / agg.totalTimeNs / 1000.0;
    }
    return agg;
}

} // namespace archgym::dram
