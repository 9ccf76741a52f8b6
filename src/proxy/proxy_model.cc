#include "proxy_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "core/worker_pool.h"
#include "mathutil/stats.h"

namespace archgym {

double
ProxyAccuracy::meanRelativeRmse() const
{
    double s = 0.0;
    std::size_t n = 0;
    for (double v : relativeRmse) {
        if (std::isnan(v))
            continue;
        s += v;
        ++n;
    }
    if (n == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return s / static_cast<double>(n);
}

std::string
ProxyAccuracy::renderValue(double v)
{
    if (std::isnan(v))
        return "n/a";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

ProxyCostModel::ProxyCostModel(const ParamSpace &space,
                               std::vector<std::string> metric_names,
                               ForestConfig config)
    : space_(space), metricNames_(std::move(metric_names)),
      config_(config)
{
}

std::vector<double>
ProxyCostModel::featurize(const Action &action) const
{
    return space_.toUnit(action);
}

void
ProxyCostModel::train(const std::vector<Transition> &transitions)
{
    assert(!transitions.empty());
    std::vector<std::vector<double>> xs;
    xs.reserve(transitions.size());
    for (const auto &t : transitions)
        xs.push_back(featurize(t.action));

    std::vector<RandomForest> forests;
    for (std::size_t m = 0; m < metricNames_.size(); ++m) {
        ForestConfig cfg = config_;
        cfg.seed = config_.seed + m;  // decorrelate per-metric forests
        forests.emplace_back(cfg);
    }
    // The per-metric forests are independent (own seed, own targets,
    // shared read-only features), so they train concurrently on the
    // pool; each forest is identical to a serial fit. Inside a pool
    // task a fan-out would hold threads the outer loop waits on, so
    // there the loop runs as one slot on the calling thread.
    WorkerPool::shared().parallelFor(
        forests.size(),
        [&](std::size_t, std::size_t m) {
            std::vector<double> ys;
            ys.reserve(transitions.size());
            for (const auto &t : transitions)
                ys.push_back(t.observation[m]);
            forests[m].fit(xs, ys);
        },
        WorkerPool::onWorkerThread() ? 1 : 0);
    forests_ = std::move(forests);
}

bool
ProxyCostModel::trained() const
{
    return !forests_.empty();
}

Metrics
ProxyCostModel::predict(const Action &action) const
{
    assert(trained());
    const auto features = featurize(action);
    Metrics out;
    out.reserve(forests_.size());
    for (const auto &forest : forests_)
        out.push_back(forest.predict(features));
    return out;
}

std::vector<double>
ProxyCostModel::predictBatch(const std::vector<Action> &actions) const
{
    assert(trained());
    const std::size_t rows = actions.size();
    std::vector<double> out(rows * forests_.size(), 0.0);
    if (rows == 0)
        return out;

    const std::size_t dims = space_.size();
    std::vector<double> features(rows * dims);
    for (std::size_t r = 0; r < rows; ++r) {
        const auto unit = featurize(actions[r]);
        assert(unit.size() == dims);
        std::copy(unit.begin(), unit.end(), features.begin() + r * dims);
    }
    for (std::size_t m = 0; m < forests_.size(); ++m)
        forests_[m].predictBatchInto(features.data(), rows, dims,
                                     out.data() + m * rows);
    return out;
}

ProxyAccuracy
ProxyCostModel::evaluate(const std::vector<Transition> &test) const
{
    ProxyAccuracy acc;
    acc.metricNames = metricNames_;

    // One batched pass over all forests; each metric's predictions then
    // live in one contiguous column instead of a Metrics vector per row.
    std::vector<Action> actions;
    actions.reserve(test.size());
    for (const auto &t : test)
        actions.push_back(t.action);
    const std::vector<double> predictedAll = predictBatch(actions);

    const std::size_t rows = test.size();
    std::vector<double> actual(rows), predicted(rows);
    for (std::size_t m = 0; m < metricNames_.size(); ++m) {
        for (std::size_t r = 0; r < rows; ++r) {
            actual[r] = test[r].observation[m];
            predicted[r] = predictedAll[m * rows + r];
        }
        const double e = rmse(predicted, actual);
        double meanAbs = 0.0;
        for (double a : actual)
            meanAbs += std::abs(a);
        meanAbs /= rows == 0 ? 1.0 : static_cast<double>(rows);
        acc.rmse.push_back(e);
        // Zero-mean-|actual| targets have no defined relative error:
        // NaN sentinel, not a lying 0 (rendered "n/a").
        acc.relativeRmse.push_back(
            meanAbs > 0.0 ? e / meanAbs
                          : std::numeric_limits<double>::quiet_NaN());
        acc.correlation.push_back(pearson(actual, predicted));
    }
    return acc;
}

DatasetExperiment
runDatasetExperiment(const Dataset &dataset, const ParamSpace &space,
                     const std::vector<std::string> &metric_names,
                     std::size_t train_size, bool diverse,
                     const std::vector<std::string> &agents,
                     const std::vector<Transition> &test,
                     const ForestConfig &config, Rng &rng)
{
    DatasetExperiment exp;
    exp.diverse = diverse;
    exp.size = train_size;

    std::vector<Transition> train;
    if (diverse) {
        train = dataset.sampleDiverse(train_size, agents, rng);
    } else {
        // Single-source: draw everything from the first listed agent.
        Dataset singleSource;
        for (std::size_t i = 0; i < dataset.logCount(); ++i) {
            if (dataset.log(i).agentName() == agents.front())
                singleSource.add(dataset.log(i));
        }
        train = singleSource.sample(train_size, rng);
    }

    std::ostringstream label;
    label << (diverse ? "diverse" : "single-source(" + agents.front() + ")")
          << " n=" << train_size;
    exp.label = label.str();

    ProxyCostModel model(space, metric_names, config);
    model.train(train);
    exp.accuracy = model.evaluate(test);
    return exp;
}

} // namespace archgym
