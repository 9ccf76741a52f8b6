/**
 * @file
 * Tests for the proxy-model stack: decision trees, random forests,
 * ProxyCostModel training/evaluation, and the §7 dataset size/diversity
 * properties on real DRAMGym data.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <ctime>

#include "agents/registry.h"
#include "core/driver.h"
#include "envs/dram_gym_env.h"
#include "mathutil/stats.h"
#include "proxy/offline_optimizer.h"
#include "proxy/proxy_model.h"
#include "proxy/random_forest.h"

namespace archgym {
namespace {

// --------------------------------------------------------------------
// RandomForest on synthetic functions
// --------------------------------------------------------------------

std::pair<std::vector<std::vector<double>>, std::vector<double>>
makeSynthetic(std::size_t n, Rng &rng,
              double (*f)(const std::vector<double> &))
{
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x = {rng.uniform(), rng.uniform(),
                                 rng.uniform()};
        ys.push_back(f(x));
        xs.push_back(std::move(x));
    }
    return {xs, ys};
}

double
stepFunction(const std::vector<double> &x)
{
    return (x[0] > 0.5 ? 10.0 : 0.0) + (x[1] > 0.3 ? 5.0 : 0.0);
}

double
smoothFunction(const std::vector<double> &x)
{
    return 3.0 * x[0] + 2.0 * x[1] * x[1] - x[2];
}

TEST(RandomForest, LearnsStepFunctionExactly)
{
    Rng rng(3);
    auto [xs, ys] = makeSynthetic(400, rng, stepFunction);
    RandomForest forest;
    forest.fit(xs, ys);
    auto [testX, testY] = makeSynthetic(100, rng, stepFunction);
    const double err = rmse(forest.predictBatch(testX), testY);
    EXPECT_LT(err, 0.5);
}

TEST(RandomForest, ApproximatesSmoothFunction)
{
    Rng rng(4);
    auto [xs, ys] = makeSynthetic(800, rng, smoothFunction);
    RandomForest forest;
    forest.fit(xs, ys);
    auto [testX, testY] = makeSynthetic(150, rng, smoothFunction);
    const double err = rmse(forest.predictBatch(testX), testY);
    const double spread = stddev(testY);
    EXPECT_LT(err, spread * 0.35);
}

TEST(RandomForest, MoreDataImprovesAccuracy)
{
    Rng rng(5);
    auto [bigX, bigY] = makeSynthetic(1600, rng, smoothFunction);
    auto [testX, testY] = makeSynthetic(200, rng, smoothFunction);

    std::vector<std::vector<double>> smallX(bigX.begin(),
                                            bigX.begin() + 50);
    std::vector<double> smallY(bigY.begin(), bigY.begin() + 50);

    RandomForest small, big;
    small.fit(smallX, smallY);
    big.fit(bigX, bigY);
    EXPECT_LT(rmse(big.predictBatch(testX), testY),
              rmse(small.predictBatch(testX), testY));
}

TEST(RandomForest, DeterministicUnderSeed)
{
    Rng rng(6);
    auto [xs, ys] = makeSynthetic(200, rng, smoothFunction);
    ForestConfig cfg;
    cfg.seed = 42;
    RandomForest f1(cfg), f2(cfg);
    f1.fit(xs, ys);
    f2.fit(xs, ys);
    EXPECT_DOUBLE_EQ(f1.predict({0.2, 0.4, 0.6}),
                     f2.predict({0.2, 0.4, 0.6}));
}

TEST(RandomForest, ConstantTargetsPredictConstant)
{
    std::vector<std::vector<double>> xs = {{0.1}, {0.5}, {0.9}};
    std::vector<double> ys = {7.0, 7.0, 7.0};
    RandomForest forest;
    forest.fit(xs, ys);
    EXPECT_DOUBLE_EQ(forest.predict({0.3}), 7.0);
}

TEST(RandomForest, RespectsTreeCount)
{
    ForestConfig cfg;
    cfg.numTrees = 7;
    RandomForest forest(cfg);
    std::vector<std::vector<double>> xs = {{0.1}, {0.9}};
    std::vector<double> ys = {0.0, 1.0};
    forest.fit(xs, ys);
    EXPECT_EQ(forest.treeCount(), 7u);
}

TEST(TreeBuilder, SingleTreeSplitsStep)
{
    Rng rng(7);
    auto [xs, ys] = makeSynthetic(300, rng, stepFunction);
    std::vector<std::size_t> idx(xs.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    ForestConfig cfg;
    cfg.featureFraction = 1.0;
    ForestArena arena;
    TreeBuilder(xs, ys, cfg).grow(idx, rng, arena);
    ASSERT_EQ(arena.treeCount(), 1u);
    EXPECT_GT(arena.nodeCount(), 1u);
    const std::vector<double> high = {0.9, 0.9, 0.5};
    const std::vector<double> low = {0.1, 0.1, 0.5};
    EXPECT_NEAR(arena.leafValue(0, high.data()), 15.0, 1.0);
    EXPECT_NEAR(arena.leafValue(0, low.data()), 0.0, 1.0);
}

TEST(TreeBuilder, DepthBounded)
{
    Rng rng(8);
    auto [xs, ys] = makeSynthetic(500, rng, smoothFunction);
    std::vector<std::size_t> idx(xs.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    ForestConfig cfg;
    cfg.maxDepth = 4;
    ForestArena arena;
    TreeBuilder(xs, ys, cfg).grow(idx, rng, arena);
    ASSERT_EQ(arena.treeCount(), 1u);
    EXPECT_LE(arena.depth[0], 4);
}

// --------------------------------------------------------------------
// ProxyCostModel on real DRAMGym trajectories (§7)
// --------------------------------------------------------------------

class DramProxyFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        DramGymEnv::Options o;
        o.traceLength = 96;
        env_ = new DramGymEnv(o);
        dataset_ = new Dataset();
        // Collect trajectories from four agents (as in §7.1).
        for (const std::string agent : {"ACO", "GA", "RW", "BO"}) {
            HyperParams hp;
            if (agent == "BO")
                hp.set("num_candidates", 32).set("max_history", 64);
            auto a = makeAgent(agent, env_->actionSpace(), hp, 911);
            RunConfig cfg;
            cfg.maxSamples = 220;
            cfg.logTrajectory = true;
            RunResult r = runSearch(*env_, *a, cfg);
            dataset_->add(std::move(r.trajectory));
        }
        // Held-out test set from fresh random samples.
        test_ = new std::vector<Transition>();
        Rng rng(999);
        for (int i = 0; i < 120; ++i) {
            Transition t;
            t.action = env_->actionSpace().sample(rng);
            const StepResult sr = env_->step(t.action);
            t.observation = sr.observation;
            t.reward = sr.reward;
            test_->push_back(std::move(t));
        }
    }

    static void
    TearDownTestSuite()
    {
        delete env_;
        delete dataset_;
        delete test_;
        env_ = nullptr;
        dataset_ = nullptr;
        test_ = nullptr;
    }

    static DramGymEnv *env_;
    static Dataset *dataset_;
    static std::vector<Transition> *test_;
};

DramGymEnv *DramProxyFixture::env_ = nullptr;
Dataset *DramProxyFixture::dataset_ = nullptr;
std::vector<Transition> *DramProxyFixture::test_ = nullptr;

TEST_F(DramProxyFixture, TrainsAndPredictsAllMetrics)
{
    ProxyCostModel model(env_->actionSpace(), env_->metricNames());
    model.train(dataset_->flatten());
    ASSERT_TRUE(model.trained());
    const Metrics pred = model.predict(test_->front().action);
    EXPECT_EQ(pred.size(), 3u);
    for (double p : pred)
        EXPECT_TRUE(std::isfinite(p));
}

TEST_F(DramProxyFixture, AccuracyIsReasonable)
{
    ProxyCostModel model(env_->actionSpace(), env_->metricNames());
    model.train(dataset_->flatten());
    const ProxyAccuracy acc = model.evaluate(*test_);
    ASSERT_EQ(acc.relativeRmse.size(), 3u);
    // Power and energy are smooth in the parameters: expect < 20%
    // relative error; latency is burstier, allow more.
    EXPECT_LT(acc.relativeRmse[1], 0.2) << "power";
    EXPECT_LT(acc.relativeRmse[2], 0.3) << "energy";
    EXPECT_GT(acc.correlation[1], 0.5) << "power";
}

TEST_F(DramProxyFixture, DiverseBeatsOrMatchesSingleSource)
{
    // The §7 headline: at equal size, multi-agent data generalizes at
    // least as well as single-agent data on held-out random designs.
    Rng rng(77);
    ForestConfig cfg;
    cfg.numTrees = 20;
    const std::vector<std::string> agents = {"ACO", "GA", "RW", "BO"};
    const auto single =
        runDatasetExperiment(*dataset_, env_->actionSpace(),
                             env_->metricNames(), 200, false, agents,
                             *test_, cfg, rng);
    const auto diverse =
        runDatasetExperiment(*dataset_, env_->actionSpace(),
                             env_->metricNames(), 200, true, agents,
                             *test_, cfg, rng);
    EXPECT_LE(diverse.accuracy.meanRelativeRmse(),
              single.accuracy.meanRelativeRmse() * 1.15);
}

TEST_F(DramProxyFixture, LargerDatasetNoWorse)
{
    Rng rng(78);
    ForestConfig cfg;
    cfg.numTrees = 20;
    const std::vector<std::string> agents = {"ACO", "GA", "RW", "BO"};
    const auto small =
        runDatasetExperiment(*dataset_, env_->actionSpace(),
                             env_->metricNames(), 60, true, agents,
                             *test_, cfg, rng);
    const auto large =
        runDatasetExperiment(*dataset_, env_->actionSpace(),
                             env_->metricNames(), 600, true, agents,
                             *test_, cfg, rng);
    EXPECT_LE(large.accuracy.meanRelativeRmse(),
              small.accuracy.meanRelativeRmse() * 1.1);
}

// --------------------------------------------------------------------
// Offline proxy-guided search (§7.3 / §8)
// --------------------------------------------------------------------

TEST_F(DramProxyFixture, OfflineSearchValidatesTopK)
{
    ProxyCostModel model(env_->actionSpace(), env_->metricNames());
    model.train(dataset_->flatten());

    OfflineSearchConfig cfg;
    cfg.randomCandidates = 2000;
    cfg.hillClimbSeeds = 4;
    cfg.hillClimbSteps = 50;
    cfg.topK = 5;
    Rng rng(31);
    const std::uint64_t simBefore = env_->sampleCount();
    const OfflineSearchResult r =
        offlineSearch(model, *env_, env_->objective(), cfg, rng);

    EXPECT_EQ(r.validated.size(), 5u);
    EXPECT_EQ(r.simulatorEvaluations, 5u);
    EXPECT_EQ(env_->sampleCount() - simBefore, 5u);
    EXPECT_GE(r.proxyEvaluations, cfg.randomCandidates);
    // Best-first by actual reward, and every action is in-space.
    for (std::size_t i = 1; i < r.validated.size(); ++i) {
        EXPECT_GE(r.validated[i - 1].actualReward,
                  r.validated[i].actualReward);
    }
    for (const auto &c : r.validated)
        EXPECT_TRUE(env_->actionSpace().contains(c.action));
}

TEST_F(DramProxyFixture, OfflineSearchBeatsSmallRandomBaseline)
{
    ProxyCostModel model(env_->actionSpace(), env_->metricNames());
    model.train(dataset_->flatten());

    OfflineSearchConfig cfg;
    cfg.randomCandidates = 5000;
    cfg.topK = 3;
    Rng rng(32);
    const OfflineSearchResult r =
        offlineSearch(model, *env_, env_->objective(), cfg, rng);

    // Baseline: the same number of *simulator* evaluations (3) spent on
    // random designs.
    Rng rng2(33);
    double randomBest = -1e300;
    for (int i = 0; i < 3; ++i) {
        const auto sr = env_->step(env_->actionSpace().sample(rng2));
        randomBest = std::max(randomBest, sr.reward);
    }
    EXPECT_GE(r.best().actualReward, randomBest);
}

TEST_F(DramProxyFixture, OfflineSearchDeduplicatesCandidates)
{
    ProxyCostModel model(env_->actionSpace(), env_->metricNames());
    model.train(dataset_->flatten());
    OfflineSearchConfig cfg;
    cfg.randomCandidates = 500;
    cfg.topK = 5;
    Rng rng(34);
    const OfflineSearchResult r =
        offlineSearch(model, *env_, env_->objective(), cfg, rng);
    for (std::size_t i = 0; i < r.validated.size(); ++i)
        for (std::size_t j = i + 1; j < r.validated.size(); ++j)
            EXPECT_NE(r.validated[i].action, r.validated[j].action);
}

TEST_F(DramProxyFixture, ProxyIsMuchFasterThanSimulator)
{
    ProxyCostModel model(env_->actionSpace(), env_->metricNames());
    model.train(dataset_->flatten());
    Rng rng(79);
    const Action a = env_->actionSpace().sample(rng);

    // Both loops run on this thread, so its CPU clock times them
    // without the deschedules a loaded machine (ctest -j) adds to wall
    // time.
    const auto cpuNs = [] {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) * 1e9 +
               static_cast<double>(ts.tv_nsec);
    };
    const double t0 = cpuNs();
    for (int i = 0; i < 50; ++i)
        env_->step(a);
    const double t1 = cpuNs();
    for (int i = 0; i < 50; ++i)
        model.predict(a);
    const double t2 = cpuNs();
    EXPECT_GT((t1 - t0) / (t2 - t1), 5.0);  // conservative lower bound
}

} // namespace
} // namespace archgym
