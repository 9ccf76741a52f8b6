/**
 * @file
 * Tests for stack-distance profiling and CDF-driven streamed workload
 * generation: Fenwick-vs-oracle bit-identity (house pattern), the
 * LRU-stack timeline order statistics, CDF JSON round trips,
 * chunked-vs-one-shot generation bit-identity for every source kind,
 * the profile -> generate -> profile loop closure within tolerance, the
 * embedding-gather pattern invariants, TraceSpec resolution, and
 * streamed DramGymEnv evaluation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "dramsys/trace_gen.h"
#include "dramsys/trace_profile.h"
#include "envs/dram_gym_env.h"
#include "mathutil/rng.h"
#include "oracles/oracles.h"

namespace archgym::dram {
namespace {

std::vector<MemoryRequest>
patternTrace(TracePattern pattern, std::size_t n, std::uint64_t seed,
             std::uint64_t space = 1ULL << 30)
{
    TraceConfig cfg;
    cfg.pattern = pattern;
    cfg.numRequests = n;
    cfg.seed = seed;
    cfg.addressSpaceBytes = space;
    return generateTrace(cfg);
}

void
expectSameCdf(const StackDistanceCdf &a, const StackDistanceCdf &b)
{
    EXPECT_EQ(a.lineBytes, b.lineBytes);
    EXPECT_EQ(a.maxDistance, b.maxDistance);
    EXPECT_EQ(a.totalAccesses, b.totalAccesses);
    EXPECT_EQ(a.coldAccesses, b.coldAccesses);
    EXPECT_EQ(a.overflowAccesses, b.overflowAccesses);
    EXPECT_DOUBLE_EQ(a.writeFraction, b.writeFraction);
    EXPECT_DOUBLE_EQ(a.meanGapCycles, b.meanGapCycles);
    EXPECT_EQ(a.histogram, b.histogram);
}

// --------------------------------------------------------------------
// Profiler: Fenwick fast path vs naive LRU-stack oracle
// --------------------------------------------------------------------

TEST(StackDistanceProfiler, BitIdenticalToOracleOnAllPatterns)
{
    for (auto p : {TracePattern::Streaming, TracePattern::Random,
                   TracePattern::Cloud1, TracePattern::Cloud2}) {
        for (std::uint64_t seed : {1ULL, 42ULL, 99ULL}) {
            const auto trace = patternTrace(p, 2000, seed, 1ULL << 22);
            StackDistanceProfiler fast;
            oracle::ReferenceStackProfiler naive;
            for (const auto &r : trace) {
                fast.observe(r);
                naive.observe(r);
            }
            expectSameCdf(fast.cdf(), naive.cdf());
            EXPECT_EQ(fast.distinctLines(), naive.distinctLines())
                << toString(p) << " seed " << seed;
        }
    }
}

TEST(StackDistanceProfiler, BitIdenticalUnderOverflowAndCompaction)
{
    // A small line pool re-touched many times forces both overflow
    // (maxDistance 16 << pool size) and repeated slot compaction (the
    // timeline starts at 64 slots; 20000 touches recycle it hundreds of
    // times).
    Rng rng(7);
    StackDistanceProfiler fast(64, 16);
    oracle::ReferenceStackProfiler naive(64, 16);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t address = rng.below(300) * 64;
        const bool w = rng.chance(0.3);
        fast.observe(address, w);
        naive.observe(address, w);
    }
    expectSameCdf(fast.cdf(), naive.cdf());
}

TEST(StackDistanceProfiler, KnownSmallSequence)
{
    // a b c a: 'a' has seen b and c since its first touch -> distance 2.
    StackDistanceProfiler p;
    p.observe(0, false);
    p.observe(64, false);
    p.observe(128, false);
    p.observe(0, false);
    const auto cdf = p.cdf();
    EXPECT_EQ(cdf.totalAccesses, 4u);
    EXPECT_EQ(cdf.coldAccesses, 3u);
    EXPECT_EQ(cdf.overflowAccesses, 0u);
    EXPECT_EQ(cdf.histogram[2], 1u);
    EXPECT_EQ(cdf.reuseAccesses(), 1u);
}

TEST(StackDistanceProfiler, SubLineAddressesShareALine)
{
    StackDistanceProfiler p;
    p.observe(0, false);
    p.observe(63, false);  // same 64 B line
    const auto cdf = p.cdf();
    EXPECT_EQ(cdf.coldAccesses, 1u);
    EXPECT_EQ(cdf.histogram[0], 1u);
    EXPECT_EQ(p.distinctLines(), 1u);
}

TEST(StackDistanceProfiler, RejectsDegenerateArguments)
{
    EXPECT_THROW(StackDistanceProfiler(0, 16), std::invalid_argument);
    EXPECT_THROW(StackDistanceProfiler(64, 0), std::invalid_argument);
}

// --------------------------------------------------------------------
// LruStackTimeline order statistics
// --------------------------------------------------------------------

TEST(LruStackTimeline, TouchAtDepthMatchesNaiveModel)
{
    LruStackTimeline timeline;
    std::vector<std::uint64_t> model;  // front = most recent
    Rng rng(17);
    for (int i = 0; i < 30000; ++i) {
        if (model.empty() || rng.chance(0.4)) {
            const std::uint64_t key = rng.below(500);
            const auto it =
                std::find(model.begin(), model.end(), key);
            const std::size_t want =
                it == model.end()
                    ? LruStackTimeline::kCold
                    : static_cast<std::size_t>(it - model.begin());
            EXPECT_EQ(timeline.touch(key), want);
            if (it != model.end())
                model.erase(it);
            model.insert(model.begin(), key);
        } else {
            const std::size_t depth = rng.below(model.size());
            EXPECT_EQ(timeline.touchAtDepth(depth), model[depth]);
            const std::uint64_t key = model[depth];
            model.erase(model.begin() +
                        static_cast<std::ptrdiff_t>(depth));
            model.insert(model.begin(), key);
        }
        ASSERT_EQ(timeline.size(), model.size());
    }
}

// --------------------------------------------------------------------
// CDF serialization
// --------------------------------------------------------------------

TEST(StackDistanceCdf, JsonRoundTripIsValueExact)
{
    const auto trace = patternTrace(TracePattern::Cloud2, 3000, 5);
    const StackDistanceCdf cdf = profileTrace(trace);
    const StackDistanceCdf back =
        StackDistanceCdf::fromJson(cdf.toJson(), "round-trip");
    expectSameCdf(cdf, back);
}

TEST(StackDistanceCdf, SaveLoadRoundTrip)
{
    const auto trace = patternTrace(TracePattern::Cloud1, 1500, 9);
    const StackDistanceCdf cdf = profileTrace(trace);
    const std::string path =
        (std::filesystem::temp_directory_path() / "archgym_cdf_test.json")
            .string();
    cdf.save(path);
    const StackDistanceCdf back = StackDistanceCdf::load(path);
    std::filesystem::remove(path);
    expectSameCdf(cdf, back);
}

TEST(StackDistanceCdf, LoadOfMissingFileThrows)
{
    EXPECT_THROW(StackDistanceCdf::load("/nonexistent/x.json"),
                 std::runtime_error);
}

TEST(StackDistanceCdf, RejectsWrongKindAndBinCount)
{
    EXPECT_THROW(StackDistanceCdf::fromJson("{\"kind\":\"other\"}", "t"),
                 std::runtime_error);
    StackDistanceCdf cdf;
    cdf.maxDistance = 4;
    cdf.histogram = {1, 2};  // 2 bins, claims 4
    cdf.totalAccesses = 3;
    EXPECT_THROW(StackDistanceCdf::fromJson(cdf.toJson(), "t"),
                 std::runtime_error);
}

// --------------------------------------------------------------------
// Chunked == one-shot generation, for every source kind
// --------------------------------------------------------------------

void
expectChunkingInvariant(SyntheticTraceSource &source, std::size_t total)
{
    source.reset();
    const auto oneShot = materialize(source, total);
    ASSERT_EQ(oneShot.size(), total);
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3},
                              std::size_t{64}, std::size_t{1000}, total}) {
        source.reset();
        std::vector<MemoryRequest> chunked;
        while (chunked.size() < total) {
            const std::size_t n =
                std::min(chunk, total - chunked.size());
            source.next(n, chunked);
        }
        ASSERT_EQ(chunked.size(), total);
        for (std::size_t i = 0; i < total; ++i) {
            ASSERT_EQ(chunked[i].address, oneShot[i].address)
                << "chunk " << chunk << " @" << i;
            ASSERT_EQ(chunked[i].isWrite, oneShot[i].isWrite);
            ASSERT_EQ(chunked[i].arrivalCycle, oneShot[i].arrivalCycle);
            ASSERT_EQ(chunked[i].id, oneShot[i].id);
        }
    }
}

TEST(SyntheticTraceSource, ChunkedEqualsOneShotForPatterns)
{
    for (auto p : {TracePattern::Streaming, TracePattern::Random,
                   TracePattern::Cloud1, TracePattern::Cloud2}) {
        TraceConfig cfg;
        cfg.pattern = p;
        cfg.seed = 21;
        const auto source = makePatternSource(cfg);
        expectChunkingInvariant(*source, 3000);
    }
}

TEST(SyntheticTraceSource, ChunkedEqualsOneShotForSdAndEmb)
{
    const auto trace = patternTrace(TracePattern::Cloud2, 4000, 13);
    const StackDistanceCdf cdf = profileTrace(trace);
    const auto sd = makeSdSource(cdf, SdSourceConfig{});
    expectChunkingInvariant(*sd, 3000);
    const auto emb = makeEmbSource(EmbSourceConfig{});
    expectChunkingInvariant(*emb, 3000);
}

TEST(SyntheticTraceSource, GenerateTraceMatchesMaterializedSource)
{
    for (auto p : {TracePattern::Streaming, TracePattern::Random,
                   TracePattern::Cloud1, TracePattern::Cloud2}) {
        TraceConfig cfg;
        cfg.pattern = p;
        cfg.numRequests = 1000;
        cfg.seed = 31;
        const auto viaWrapper = generateTrace(cfg);
        const auto source = makePatternSource(cfg);
        const auto viaSource = materialize(*source, cfg.numRequests);
        ASSERT_EQ(viaWrapper.size(), viaSource.size());
        for (std::size_t i = 0; i < viaWrapper.size(); ++i) {
            EXPECT_EQ(viaWrapper[i].address, viaSource[i].address);
            EXPECT_EQ(viaWrapper[i].arrivalCycle,
                      viaSource[i].arrivalCycle);
        }
    }
}

// --------------------------------------------------------------------
// Loop closure: profile(generate(cdf)) ~= cdf
// --------------------------------------------------------------------

TEST(SdSource, RegeneratedTraceReproducesSourceCdf)
{
    const auto trace = patternTrace(TracePattern::Cloud2, 20000, 3);
    const StackDistanceCdf cdf = profileTrace(trace);

    SdSourceConfig cfg;
    cfg.seed = 77;
    const auto source = makeSdSource(cdf, cfg);
    const auto regenerated = materialize(*source, 50000);
    const StackDistanceCdf back = profileTrace(regenerated);

    // Miss (cold + overflow) mass within 2 points, and the reuse CDF
    // within 5 points sup-norm: the generator samples the profiled
    // distribution, so the only error is sampling noise.
    EXPECT_NEAR(back.missFraction(), cdf.missFraction(), 0.02);
    EXPECT_NEAR(back.writeFraction, cdf.writeFraction, 0.02);
    EXPECT_NEAR(back.meanGapCycles, cdf.meanGapCycles,
                0.05 * cdf.meanGapCycles);
    const auto want = cdf.cumulative();
    const auto got = back.cumulative();
    ASSERT_EQ(want.size(), got.size());
    double supNorm = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i)
        supNorm = std::max(supNorm, std::abs(want[i] - got[i]));
    EXPECT_LT(supNorm, 0.05);
}

TEST(SdSource, EmitsAlignedInFootprintRequests)
{
    const auto trace = patternTrace(TracePattern::Cloud1, 5000, 19);
    const StackDistanceCdf cdf = profileTrace(trace);
    SdSourceConfig cfg;
    cfg.addressSpaceBytes = 1ULL << 20;
    const auto source = makeSdSource(cdf, cfg);
    const auto out = materialize(*source, 5000);
    for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_LT(out[i].address, cfg.addressSpaceBytes);
        ASSERT_EQ(out[i].address % cdf.lineBytes, 0u);
        ASSERT_EQ(out[i].id, i);
        if (i) {
            ASSERT_GE(out[i].arrivalCycle, out[i - 1].arrivalCycle);
        }
    }
}

TEST(SdSource, RejectsDegenerateInputs)
{
    StackDistanceCdf empty;
    EXPECT_THROW(makeSdSource(empty, SdSourceConfig{}),
                 std::invalid_argument);

    const auto trace = patternTrace(TracePattern::Random, 500, 3);
    const StackDistanceCdf cdf = profileTrace(trace);
    SdSourceConfig cfg;
    cfg.addressSpaceBytes = 100;  // not a multiple of lineBytes
    EXPECT_THROW(makeSdSource(cdf, cfg), std::invalid_argument);
}

// --------------------------------------------------------------------
// Embedding gather source
// --------------------------------------------------------------------

TEST(EmbSource, AddressesAlignedInFootprintAndReadOnly)
{
    EmbSourceConfig cfg;
    cfg.addressSpaceBytes = 1ULL << 24;
    const auto source = makeEmbSource(cfg);
    const auto out = materialize(*source, 8000);
    for (const auto &r : out) {
        ASSERT_LT(r.address, cfg.addressSpaceBytes);
        ASSERT_EQ(r.address % cfg.rowBytes, 0u);
        ASSERT_FALSE(r.isWrite);
    }
}

TEST(EmbSource, ZipfSkewConcentratesOnHotRows)
{
    EmbSourceConfig cfg;
    cfg.numTables = 1;
    cfg.rowsPerTable = 1000;
    cfg.zipfExponent = 1.0;
    const auto source = makeEmbSource(cfg);
    const auto out = materialize(*source, 20000);
    std::size_t hot = 0;
    for (const auto &r : out)
        hot += (r.address / cfg.rowBytes) < 100;  // hottest 10% of rows
    // Zipf s=1 over 1000 rows puts ~2/3 of the mass on the top decile;
    // uniform would put 10% there.
    EXPECT_GT(hot, out.size() / 2);
}

TEST(EmbSource, BatchGapsSeparatePoolingBursts)
{
    EmbSourceConfig cfg;
    cfg.numTables = 2;
    cfg.poolingFactor = 4;
    cfg.batchSize = 2;
    cfg.lookupGapCycles = 1;
    cfg.batchGapCycles = 1000;
    const auto source = makeEmbSource(cfg);
    // One batch = batchSize * numTables * poolingFactor = 16 lookups.
    const auto out = materialize(*source, 32);
    EXPECT_EQ(out[16].arrivalCycle - out[15].arrivalCycle, 1001u);
    EXPECT_EQ(out[15].arrivalCycle - out[14].arrivalCycle, 1u);
}

TEST(EmbSource, RejectsOversizedTables)
{
    EmbSourceConfig cfg;
    cfg.addressSpaceBytes = 1 << 16;
    cfg.numTables = 4;
    cfg.rowsPerTable = 1 << 20;  // 4 * 2^20 * 64 B >> 64 KiB
    EXPECT_THROW(makeEmbSource(cfg), std::invalid_argument);
}

// --------------------------------------------------------------------
// TraceSpec resolution
// --------------------------------------------------------------------

TEST(TraceSpec, ResolvesAllSourceNames)
{
    for (const char *name : {"streaming", "random", "cloud1", "cloud-1",
                             "cloud2", "cloud-2", "emb"}) {
        TraceSpec spec;
        spec.source = name;
        EXPECT_NE(makeTraceSource(spec), nullptr) << name;
    }
}

TEST(TraceSpec, UnknownSourceThrowsWithExpectedNames)
{
    TraceSpec spec;
    spec.source = "bogus";
    try {
        makeTraceSource(spec);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("sd:<cdf.json>"),
                  std::string::npos);
    }
}

TEST(TraceSpec, SdSourceLoadsCdfFileOnce)
{
    const auto trace = patternTrace(TracePattern::Cloud2, 3000, 11);
    const std::string path = (std::filesystem::temp_directory_path() /
                              "archgym_spec_cdf_test.json")
                                 .string();
    profileTrace(trace).save(path);

    TraceSpec spec;
    spec.source = "sd:" + path;
    const TraceSourceFactory factory(spec);
    std::filesystem::remove(path);  // factory must not re-read it
    const auto a = materialize(*factory.make(), 500);
    const auto b = materialize(*factory.make(), 500);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i].address, b[i].address);
}

TEST(TraceSpec, MissingCdfFileThrows)
{
    TraceSpec spec;
    spec.source = "sd:/nonexistent/cdf.json";
    EXPECT_THROW(TraceSourceFactory{spec}, std::runtime_error);
}

// --------------------------------------------------------------------
// Streamed simulation and streamed DramGymEnv
// --------------------------------------------------------------------

TEST(RunStreamed, AggregatesAllRequests)
{
    TraceConfig tc;
    tc.pattern = TracePattern::Cloud2;
    tc.seed = 5;
    const auto source = makePatternSource(tc);
    const MemSpec spec{};
    DramController controller(spec, ControllerConfig{});
    const SimResult r = runStreamed(controller, spec, *source, 2500, 512);
    EXPECT_EQ(r.requests, 2500u);
    EXPECT_EQ(r.reads + r.writes, 2500u);
    EXPECT_GT(r.avgLatencyNs, 0.0);
    EXPECT_GT(r.bandwidthGBps, 0.0);
    EXPECT_GT(r.power.avgPowerW, 0.0);
    EXPECT_GT(r.totalTimeNs, 0.0);
}

TEST(RunStreamed, DeterministicForFixedChunkSize)
{
    TraceConfig tc;
    tc.pattern = TracePattern::Cloud1;
    tc.seed = 23;
    const MemSpec spec{};
    DramController c1(spec, ControllerConfig{});
    DramController c2(spec, ControllerConfig{});
    const auto s1 = makePatternSource(tc);
    const auto s2 = makePatternSource(tc);
    const SimResult a = runStreamed(c1, spec, *s1, 2000, 256);
    const SimResult b = runStreamed(c2, spec, *s2, 2000, 256);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_DOUBLE_EQ(a.avgLatencyNs, b.avgLatencyNs);
    EXPECT_DOUBLE_EQ(a.power.totalPj(), b.power.totalPj());
}

TEST(RunStreamed, RejectsZeroChunk)
{
    TraceConfig tc;
    const auto source = makePatternSource(tc);
    const MemSpec spec{};
    DramController controller(spec, ControllerConfig{});
    EXPECT_THROW(runStreamed(controller, spec, *source, 100, 0),
                 std::invalid_argument);
}

} // namespace
} // namespace archgym::dram

namespace archgym {
namespace {

TEST(DramGymEnvStreamed, LegacyOptionsUnchangedByTraceSpec)
{
    DramGymEnv::Options legacy;
    legacy.pattern = dram::TracePattern::Cloud2;
    legacy.traceLength = 300;
    legacy.traceSeed = 13;
    DramGymEnv env(legacy);
    // Legacy resolution materializes exactly the old constructor trace.
    dram::TraceConfig tc;
    tc.pattern = dram::TracePattern::Cloud2;
    tc.numRequests = 300;
    tc.seed = 13;
    const auto want = dram::generateTrace(tc);
    ASSERT_EQ(env.trace().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(env.trace()[i].address, want[i].address);
    EXPECT_EQ(env.traceSpec().source, "cloud-2");
    EXPECT_FALSE(env.traceSpec().streamed);
}

TEST(DramGymEnvStreamed, StreamedStepIsDeterministicAndUnmaterialized)
{
    DramGymEnv::Options o;
    o.trace.source = "cloud2";
    o.trace.numRequests = 2000;
    o.trace.streamed = true;
    o.trace.chunkRequests = 256;
    DramGymEnv env(o);
    EXPECT_TRUE(env.trace().empty());

    Rng rng(3);
    const Action action = env.actionSpace().sample(rng);
    const StepResult a = env.step(action);
    const StepResult b = env.step(action);
    ASSERT_EQ(a.observation.size(), b.observation.size());
    for (std::size_t i = 0; i < a.observation.size(); ++i)
        EXPECT_DOUBLE_EQ(a.observation[i], b.observation[i]);

    DramGymEnv env2(o);
    const StepResult c = env2.step(action);
    for (std::size_t i = 0; i < a.observation.size(); ++i)
        EXPECT_DOUBLE_EQ(a.observation[i], c.observation[i]);
}

TEST(DramGymEnvStreamed, StepBatchMatchesStep)
{
    DramGymEnv::Options o;
    o.trace.source = "cloud2";
    o.trace.numRequests = 1200;
    o.trace.streamed = true;
    o.trace.chunkRequests = 256;
    DramGymEnv env(o);
    Rng rng(5);
    std::vector<Action> actions;
    for (int i = 0; i < 4; ++i)
        actions.push_back(env.actionSpace().sample(rng));
    const auto batch = env.stepBatch(actions);
    for (std::size_t i = 0; i < actions.size(); ++i) {
        const StepResult single = env.step(actions[i]);
        for (std::size_t m = 0; m < single.observation.size(); ++m)
            EXPECT_DOUBLE_EQ(batch[i].observation[m],
                             single.observation[m]);
    }
}

} // namespace
} // namespace archgym
