/**
 * @file
 * Reference random-forest trainer for the equivalence suites: the
 * original CART build that sorts every candidate feature per node and
 * scans each quantile threshold with its own two passes over the node's
 * rows, trees held as per-node structs and walked node by node. It is
 * slow and obviously correct; the library's TreeBuilder must produce a
 * field-for-field identical ForestArena (tests/test_proxy_serving.cc).
 *
 * Header-only and test-only: nothing here is compiled into the archgym
 * library.
 */

#ifndef ARCHGYM_TESTS_FOREST_ORACLE_H
#define ARCHGYM_TESTS_FOREST_ORACLE_H

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "mathutil/rng.h"
#include "proxy/random_forest.h"

namespace archgym {
namespace oracle {

/** One CART regression tree (flat node array, depth-first order). */
class DecisionTree
{
  public:
    void
    fit(const std::vector<std::vector<double>> &xs,
        const std::vector<double> &ys,
        const std::vector<std::size_t> &indices, const ForestConfig &config,
        Rng &rng)
    {
        nodes_.clear();
        depth_ = 0;
        std::vector<std::size_t> idx = indices;
        build(xs, ys, idx, 0, config, rng);
    }

    double
    predict(const std::vector<double> &x) const
    {
        std::size_t n = 0;
        while (!nodes_[n].leaf)
            n = x[nodes_[n].feature] <= nodes_[n].threshold
                    ? nodes_[n].left
                    : nodes_[n].right;
        return nodes_[n].value;
    }

    /** Append this tree's nodes (breadth-first, siblings adjacent) and
     *  root/depth to the arena. */
    void
    flattenInto(ForestArena &arena) const
    {
        const std::int32_t base =
            static_cast<std::int32_t>(arena.nodeCount());
        arena.root.push_back(base);
        arena.depth.push_back(static_cast<std::int32_t>(depth_));
        std::vector<std::int32_t> remap(nodes_.size(), -1);
        std::vector<std::size_t> order{0};
        remap[0] = 0;
        std::int32_t next = 1;
        for (std::size_t q = 0; q < order.size(); ++q) {
            const Node &n = nodes_[order[q]];
            if (!n.leaf) {
                remap[n.left] = next;
                remap[n.right] = next + 1;
                next += 2;
                order.push_back(n.left);
                order.push_back(n.right);
            }
        }
        for (std::size_t q = 0; q < order.size(); ++q) {
            const Node &n = nodes_[order[q]];
            const std::int32_t self = base + static_cast<std::int32_t>(q);
            if (n.leaf) {
                arena.feature.push_back(0);
                arena.threshold.push_back(
                    std::numeric_limits<double>::infinity());
                arena.left.push_back(self);
                arena.right.push_back(self);
            } else {
                arena.feature.push_back(static_cast<std::int32_t>(n.feature));
                arena.threshold.push_back(n.threshold);
                arena.left.push_back(base + remap[n.left]);
                arena.right.push_back(base + remap[n.right]);
            }
            arena.value.push_back(n.value);
        }
    }

  private:
    struct Node
    {
        bool leaf = true;
        std::size_t feature = 0;
        double threshold = 0.0;
        double value = 0.0;
        std::size_t left = 0;
        std::size_t right = 0;
    };

    static double
    meanOf(const std::vector<double> &ys, const std::vector<std::size_t> &idx)
    {
        double s = 0.0;
        for (std::size_t i : idx)
            s += ys[i];
        return idx.empty() ? 0.0 : s / static_cast<double>(idx.size());
    }

    std::size_t
    build(const std::vector<std::vector<double>> &xs,
          const std::vector<double> &ys, std::vector<std::size_t> &indices,
          std::size_t depth, const ForestConfig &config, Rng &rng)
    {
        depth_ = std::max(depth_, depth);
        const std::size_t nodeIndex = nodes_.size();
        nodes_.emplace_back();
        nodes_[nodeIndex].value = meanOf(ys, indices);

        if (depth >= config.maxDepth ||
            indices.size() < 2 * config.minSamplesLeaf)
            return nodeIndex;
        const double parentMean = nodes_[nodeIndex].value;
        double parentSse = 0.0;
        for (std::size_t i : indices) {
            const double d = ys[i] - parentMean;
            parentSse += d * d;
        }
        if (parentSse < 1e-12)
            return nodeIndex;

        const std::size_t numFeatures = xs.front().size();
        std::vector<std::size_t> features(numFeatures);
        std::iota(features.begin(), features.end(), 0);
        rng.shuffle(features);
        const std::size_t useFeatures = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(config.featureFraction *
                             static_cast<double>(numFeatures))));
        features.resize(useFeatures);

        double bestGain = 0.0;
        std::size_t bestFeature = 0;
        double bestThreshold = 0.0;
        std::vector<double> values;
        for (std::size_t f : features) {
            values.clear();
            for (std::size_t i : indices)
                values.push_back(xs[i][f]);
            std::sort(values.begin(), values.end());
            if (values.front() == values.back())
                continue;
            const std::size_t cands =
                std::min(config.thresholdCandidates, indices.size() - 1);
            for (std::size_t c = 1; c <= cands; ++c) {
                const std::size_t pos =
                    c * (values.size() - 1) / (cands + 1);
                const double thr =
                    0.5 * (values[pos] +
                           values[std::min(pos + 1, values.size() - 1)]);
                double sumL = 0.0, sumR = 0.0;
                std::size_t nL = 0, nR = 0;
                for (std::size_t i : indices) {
                    if (xs[i][f] <= thr) {
                        sumL += ys[i];
                        ++nL;
                    } else {
                        sumR += ys[i];
                        ++nR;
                    }
                }
                if (nL < config.minSamplesLeaf || nR < config.minSamplesLeaf)
                    continue;
                const double meanL = sumL / static_cast<double>(nL);
                const double meanR = sumR / static_cast<double>(nR);
                double sseChildren = 0.0;
                for (std::size_t i : indices) {
                    const double d =
                        ys[i] - (xs[i][f] <= thr ? meanL : meanR);
                    sseChildren += d * d;
                }
                const double gain = parentSse - sseChildren;
                if (gain > bestGain) {
                    bestGain = gain;
                    bestFeature = f;
                    bestThreshold = thr;
                }
            }
        }
        if (bestGain <= 1e-12)
            return nodeIndex;

        std::vector<std::size_t> leftIdx, rightIdx;
        for (std::size_t i : indices) {
            if (xs[i][bestFeature] <= bestThreshold)
                leftIdx.push_back(i);
            else
                rightIdx.push_back(i);
        }
        const std::size_t left =
            build(xs, ys, leftIdx, depth + 1, config, rng);
        const std::size_t right =
            build(xs, ys, rightIdx, depth + 1, config, rng);
        Node &node = nodes_[nodeIndex];
        node.leaf = false;
        node.feature = bestFeature;
        node.threshold = bestThreshold;
        node.left = left;
        node.right = right;
        return nodeIndex;
    }

    std::vector<Node> nodes_;
    std::size_t depth_ = 0;
};

/** The reference forest: bootstrap draws and tree builds from one Rng in
 *  tree order, as RandomForest::fit does. */
struct Forest
{
    std::vector<DecisionTree> trees;
    ForestArena arena;

    Forest(const std::vector<std::vector<double>> &xs,
           const std::vector<double> &ys, const ForestConfig &config)
    {
        Rng rng(config.seed);
        for (std::size_t t = 0; t < config.numTrees; ++t) {
            std::vector<std::size_t> indices(xs.size());
            if (config.bootstrap) {
                for (auto &i : indices)
                    i = static_cast<std::size_t>(rng.below(xs.size()));
            } else {
                std::iota(indices.begin(), indices.end(), 0);
            }
            trees.emplace_back();
            trees.back().fit(xs, ys, indices, config, rng);
            trees.back().flattenInto(arena);
        }
    }

    /** Per-tree node walks, averaged in tree order. */
    double
    predict(const std::vector<double> &x) const
    {
        double s = 0.0;
        for (const auto &tree : trees)
            s += tree.predict(x);
        return s / static_cast<double>(trees.size());
    }
};

} // namespace oracle
} // namespace archgym

#endif // ARCHGYM_TESTS_FOREST_ORACLE_H
