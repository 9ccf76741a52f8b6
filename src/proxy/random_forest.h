/**
 * @file
 * Random-forest regression (paper §7.2) implemented from scratch: CART
 * trees with variance-reduction splits, bootstrap aggregation, and
 * per-split feature subsampling.
 *
 * The paper trains one random forest per target metric (latency, power,
 * energy) on ArchGym exploration datasets and shows the resulting proxy
 * is ~2000x faster than the cycle-accurate simulator at <1% RMSE.
 *
 * Training: TreeBuilder grows each tree from per-feature row lists
 * presorted once per fit and stably partitioned at every split, and
 * scores all threshold candidates of a feature in two fused vector
 * passes over the node's rows. Every accumulation runs in the node's
 * bootstrap row order, so the trees are bit-identical to the
 * per-candidate scan kept as the test oracle (tests/forest_oracle.h).
 *
 * Storage and serving: each tree is flattened straight into a single
 * struct-of-arrays ForestArena (features / thresholds / children / leaf
 * values in separate cache-aligned vectors, all trees concatenated); the
 * forest keeps nothing else. Scalar predict() walks the arena one tree
 * at a time; multi-row queries go through the blocked, branch-free
 * predictBatch kernel, bit-identical to predict() (same per-row tree
 * accumulation order, same final division). See docs/proxy_serving.md.
 */

#ifndef ARCHGYM_PROXY_RANDOM_FOREST_H
#define ARCHGYM_PROXY_RANDOM_FOREST_H

#include <cstdint>
#include <vector>

#include "mathutil/matrix.h"
#include "mathutil/rng.h"

namespace archgym {

/**
 * All trees of one forest flattened into struct-of-arrays node storage.
 *
 * Nodes are laid out breadth-first with siblings adjacent, so for every
 * split node right[i] == left[i] + 1 (the `right` column is kept for
 * inspection; the kernel derives it). Node encoding (index i):
 *  - split node: feature[i]/threshold[i] route to child left[i] (when
 *    x[feature[i]] <= threshold[i]) or left[i] + 1 (absolute arena
 *    indices).
 *  - leaf: left[i] == right[i] == i (self-loop) and threshold[i] = +inf,
 *    so the branch-free advance `n = L + (x[f] > thr)` parks on the
 *    leaf; value[i] is the leaf mean (split nodes also store their node
 *    mean).
 *
 * The self-loop lets the batch kernel advance rows with no per-row
 * branching — a walker group stops once every member is parked, at its
 * deepest leaf rather than the tree-wide max depth.
 */
struct ForestArena
{
    template <typename T>
    using Aligned = std::vector<T, AlignedAllocator<T, 64>>;

    Aligned<std::int32_t> feature;
    AlignedVector threshold;
    Aligned<std::int32_t> left;
    Aligned<std::int32_t> right;
    AlignedVector value;
    std::vector<std::int32_t> root;   ///< root node index per tree
    std::vector<std::int32_t> depth;  ///< max depth (walk steps) per tree

    std::size_t nodeCount() const { return feature.size(); }
    std::size_t treeCount() const { return root.size(); }
    void clear();

    /** Value of the leaf that tree `tree` routes row x to. */
    double leafValue(std::size_t tree, const double *x) const;
};

/** Forest training configuration. */
struct ForestConfig
{
    std::size_t numTrees = 30;
    std::size_t maxDepth = 12;
    std::size_t minSamplesLeaf = 2;
    /** Fraction of features considered at each split. */
    double featureFraction = 0.7;
    /** Candidate thresholds examined per feature (quantile grid). */
    std::size_t thresholdCandidates = 16;
    bool bootstrap = true;
    std::uint64_t seed = 1;
};

/**
 * CART regression-tree grower (variance-reduction splits) for one
 * training set. A builder serves a whole forest fit: construction
 * transposes the features and presorts every feature column once, and
 * all per-tree scratch lives in buffers sized by the first grow(), so
 * growing a tree allocates nothing per node. Each grown tree is
 * flattened straight into a ForestArena.
 */
class TreeBuilder
{
  public:
    /** @pre xs.size() == ys.size() > 0, all rows of equal width.
     *  ys is borrowed and must outlive the builder. */
    TreeBuilder(const std::vector<std::vector<double>> &xs,
                const std::vector<double> &ys, const ForestConfig &config);

    /**
     * Grow one tree on `indices` (row ids into xs in bootstrap order,
     * duplicates allowed) and append it to `arena`. Draws feature
     * subsets from `rng` node by node, depth-first, left child first.
     */
    void grow(const std::vector<std::size_t> &indices, Rng &rng,
              ForestArena &arena);

  private:
    struct Node
    {
        bool leaf = true;
        std::int32_t feature = 0;
        double threshold = 0.0;
        double value = 0.0;
        std::int32_t left = 0;
        std::int32_t right = 0;
    };

    struct Split
    {
        double gain = 0.0;
        std::size_t feature = 0;
        double threshold = 0.0;
    };

    std::size_t build(std::size_t lo, std::size_t hi, std::size_t depth,
                      Rng &rng);
    Split bestSplit(std::size_t use_features, std::size_t lo,
                    std::size_t hi, double parent_sse);
    std::size_t partition(std::size_t lo, std::size_t hi,
                          const Split &split, bool children_split);
    void flattenInto(ForestArena &arena);

    ForestConfig config_;
    const std::vector<double> &ys_;
    std::size_t rows_;
    std::size_t dims_;
    AlignedVector xcol_;                  ///< dims x rows, column-major
    std::vector<std::int32_t> presorted_; ///< per feature: rows by value

    // Per-tree scratch, sized by the first grow().
    std::size_t n_ = 0;                   ///< rows of the current tree
    std::vector<std::int32_t> order_;     ///< node rows, bootstrap order
    std::vector<std::int32_t> sorted_;    ///< per feature: node rows by value
    std::vector<std::int32_t> spill_;     ///< partition staging
    std::vector<std::uint32_t> copies_;   ///< bootstrap multiplicity per row
    std::vector<std::uint8_t> goesLeft_;  ///< split outcome per row
    AlignedVector ybuf_;                  ///< node targets, row order
    AlignedVector xbuf_;                  ///< node feature columns, row order
    AlignedVector laneThr_, laneLeft_, laneSse_; ///< candidate lanes
    std::vector<const double *> vecColumn_; ///< x column per lane vector
    std::vector<std::size_t> vecFeature_;   ///< feature per lane vector
    std::vector<std::size_t> features_;
    std::vector<Node> nodes_;             ///< current tree, depth-first
    std::vector<std::int32_t> bfs_, remap_;
    std::size_t depth_ = 0;
};

/** Bagged ensemble of CART trees. */
class RandomForest
{
  public:
    explicit RandomForest(ForestConfig config = {});

    /** Fit on the full dataset. @pre xs.size() == ys.size() > 0 */
    void fit(const std::vector<std::vector<double>> &xs,
             const std::vector<double> &ys);

    bool fitted() const { return arena_.treeCount() != 0; }
    std::size_t treeCount() const { return arena_.treeCount(); }

    /** Per-tree arena walks, averaged in tree order. */
    double predict(const std::vector<double> &x) const;

    /**
     * Batched inference over a candidate cohort through the SoA arena:
     * rows are processed in L2-sized blocks, trees tree-major within a
     * block, each row advanced branch-free for the tree's depth. Output
     * is bit-identical to calling predict() per row (same tree
     * accumulation order, same division). Empty cohorts are fine.
     */
    std::vector<double>
    predictBatch(const std::vector<std::vector<double>> &xs) const;

    /**
     * Raw-buffer form of predictBatch for callers that already hold a
     * row-major feature arena: xs is rows x dims contiguous, out has
     * room for rows doubles. @pre fitted() and dims matches training.
     */
    void predictBatchInto(const double *xs, std::size_t rows,
                          std::size_t dims, double *out) const;

    const ForestConfig &config() const { return config_; }
    const ForestArena &arena() const { return arena_; }

  private:
    ForestConfig config_;
    ForestArena arena_;  ///< the fitted forest; rebuilt by fit()
};

} // namespace archgym

#endif // ARCHGYM_PROXY_RANDOM_FOREST_H
