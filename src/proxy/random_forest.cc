#include "random_forest.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace archgym {

void
ForestArena::clear()
{
    feature.clear();
    threshold.clear();
    left.clear();
    right.clear();
    value.clear();
    root.clear();
    depth.clear();
}

double
ForestArena::leafValue(std::size_t tree, const double *x) const
{
    std::int32_t n = root[tree];
    while (left[n] != n)
        n = x[feature[n]] <= threshold[n] ? left[n] : right[n];
    return value[n];
}

namespace {

/** Four-lane double vector and its comparison-mask twin (GCC vector
 *  extensions, as in mathutil's kernels). */
typedef double V4d __attribute__((vector_size(32)));
typedef std::int64_t V4l __attribute__((vector_size(32)));
typedef double V4dUnaligned
    __attribute__((vector_size(32), aligned(8), may_alias));

inline V4d
loadu4(const double *p)
{
    return *reinterpret_cast<const V4dUnaligned *>(p);
}

inline void
storeu4(double *p, V4d v)
{
    *reinterpret_cast<V4dUnaligned *>(p) = v;
}

inline V4d
broadcast(double v)
{
    return V4d{v, v, v, v};
}

/** Threshold lanes scored per kernel call (kMaxVectors x 4). */
constexpr int kMaxVectors = 4;

/**
 * Scores 4*V candidate splits at once: lane j of vector v sends a row
 * left when xcol[v][i] <= thr[4v + j]. Each vector reads its own
 * feature column, so one call can score candidates of several
 * features. Writes each lane's left-child row count and the children's
 * sum of squared errors.
 *
 * Two fused passes over the node's m rows, in the node's row order:
 * pass 1 counts the rows and sums the targets left and right of every
 * threshold, pass 2 accumulates (y - child mean)^2. Every lane performs
 * exactly the additions of the per-candidate scalar scan, in the same
 * order: the masked add contributes either y or +0.0, and adding +0.0
 * to a sum that started at +0.0 never changes it. So each lane is
 * bit-identical to the scalar scan, while V independent accumulator
 * chains hide the add latency that bounds a one-candidate loop. An
 * empty child's mean is 0/0, which no row of that lane reads.
 */
template <int V>
void
scoreLanes(const double *const *xcol, const double *y, std::size_t m,
           const double *thr, double *left_count, double *sse)
{
    V4d t[V], sumL[V], sumR[V];
    V4l countL[V];
    for (int v = 0; v < V; ++v) {
        t[v] = loadu4(thr + 4 * v);
        sumL[v] = broadcast(0.0);
        sumR[v] = broadcast(0.0);
        countL[v] = V4l{0, 0, 0, 0};
    }
    for (std::size_t i = 0; i < m; ++i) {
        const V4l yi = reinterpret_cast<V4l>(broadcast(y[i]));
        for (int v = 0; v < V; ++v) {
            const V4l goesLeft = broadcast(xcol[v][i]) <= t[v];
            countL[v] -= goesLeft;  // true lanes are all-ones (-1)
            sumL[v] += reinterpret_cast<V4d>(yi & goesLeft);
            sumR[v] += reinterpret_cast<V4d>(yi & ~goesLeft);
        }
    }

    V4d meanL[V], meanR[V], acc[V];
    const V4d rows = broadcast(static_cast<double>(m));
    for (int v = 0; v < V; ++v) {
        const V4d nL = __builtin_convertvector(countL[v], V4d);
        storeu4(left_count + 4 * v, nL);
        meanL[v] = sumL[v] / nL;
        meanR[v] = sumR[v] / (rows - nL);
        acc[v] = broadcast(0.0);
    }
    for (std::size_t i = 0; i < m; ++i) {
        const V4d yi = broadcast(y[i]);
        for (int v = 0; v < V; ++v) {
            const V4l goesLeft = broadcast(xcol[v][i]) <= t[v];
            const V4d mean = reinterpret_cast<V4d>(
                (reinterpret_cast<V4l>(meanL[v]) & goesLeft) |
                (reinterpret_cast<V4l>(meanR[v]) & ~goesLeft));
            const V4d d = yi - mean;
            acc[v] += d * d;
        }
    }
    for (int v = 0; v < V; ++v)
        storeu4(sse + 4 * v, acc[v]);
}

void
scoreLanesDispatch(int vectors, const double *const *xcol, const double *y,
                   std::size_t m, const double *thr, double *left_count,
                   double *sse)
{
    switch (vectors) {
    case 1:
        scoreLanes<1>(xcol, y, m, thr, left_count, sse);
        break;
    case 2:
        scoreLanes<2>(xcol, y, m, thr, left_count, sse);
        break;
    case 3:
        scoreLanes<3>(xcol, y, m, thr, left_count, sse);
        break;
    default:
        scoreLanes<4>(xcol, y, m, thr, left_count, sse);
        break;
    }
}

} // namespace

TreeBuilder::TreeBuilder(const std::vector<std::vector<double>> &xs,
                         const std::vector<double> &ys,
                         const ForestConfig &config)
    : config_(config), ys_(ys), rows_(xs.size()),
      dims_(xs.empty() ? 0 : xs.front().size())
{
    assert(!xs.empty() && xs.size() == ys.size());
    xcol_.resize(dims_ * rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        assert(xs[r].size() == dims_);
        for (std::size_t f = 0; f < dims_; ++f)
            xcol_[f * rows_ + r] = xs[r][f];
    }
    // Presort each feature column once per fit; a tree's per-feature
    // lists are then expanded from these by bootstrap multiplicity.
    // Ties are ordered by row id only to make the lists reproducible:
    // split search reads values, never positions of tied rows.
    presorted_.resize(dims_ * rows_);
    for (std::size_t f = 0; f < dims_; ++f) {
        std::int32_t *rowsByValue = presorted_.data() + f * rows_;
        std::iota(rowsByValue, rowsByValue + rows_, 0);
        const double *col = xcol_.data() + f * rows_;
        std::sort(rowsByValue, rowsByValue + rows_,
                  [col](std::int32_t a, std::int32_t b) {
                      return col[a] < col[b] || (col[a] == col[b] && a < b);
                  });
    }
    copies_.resize(rows_);
    goesLeft_.resize(rows_);
    features_.resize(dims_);
}

void
TreeBuilder::grow(const std::vector<std::size_t> &indices, Rng &rng,
                  ForestArena &arena)
{
    assert(!indices.empty());
    n_ = indices.size();
    if (order_.size() < n_) {
        order_.resize(n_);
        spill_.resize(n_);
        sorted_.resize(dims_ * n_);
        ybuf_.resize(n_);
        xbuf_.resize(dims_ * n_);
        // Each feature contributes at most min(candidates, n - 1)
        // distinct thresholds, padded to whole vectors.
        const std::size_t perFeature =
            (std::min(config_.thresholdCandidates, n_) + 3) / 4 * 4;
        laneThr_.resize(dims_ * perFeature);
        laneLeft_.resize(dims_ * perFeature);
        laneSse_.resize(dims_ * perFeature);
        vecColumn_.resize(dims_ * perFeature / 4);
        vecFeature_.resize(dims_ * perFeature / 4);
    }

    std::fill(copies_.begin(), copies_.end(), 0u);
    for (std::size_t i = 0; i < n_; ++i) {
        assert(indices[i] < rows_);
        order_[i] = static_cast<std::int32_t>(indices[i]);
        ++copies_[indices[i]];
    }
    for (std::size_t f = 0; f < dims_; ++f) {
        const std::int32_t *rowsByValue = presorted_.data() + f * rows_;
        std::int32_t *out = sorted_.data() + f * n_;
        for (std::size_t k = 0; k < rows_; ++k)
            for (std::uint32_t c = copies_[rowsByValue[k]]; c > 0; --c)
                *out++ = rowsByValue[k];
    }

    nodes_.clear();
    depth_ = 0;
    build(0, n_, 0, rng);
    flattenInto(arena);
}

std::size_t
TreeBuilder::build(std::size_t lo, std::size_t hi, std::size_t depth,
                   Rng &rng)
{
    depth_ = std::max(depth_, depth);
    const std::size_t nodeIndex = nodes_.size();
    nodes_.emplace_back();

    const std::size_t m = hi - lo;
    double *y = ybuf_.data();
    double sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        y[i] = ys_[order_[lo + i]];
        sum += y[i];
    }
    const double mean = sum / static_cast<double>(m);
    nodes_[nodeIndex].value = mean;

    if (depth >= config_.maxDepth || m < 2 * config_.minSamplesLeaf)
        return nodeIndex;
    double parentSse = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        const double d = y[i] - mean;
        parentSse += d * d;
    }
    if (parentSse < 1e-12)
        return nodeIndex;  // pure node

    // Feature subsampling (the "random" in random forest).
    std::iota(features_.begin(), features_.end(), 0);
    rng.shuffle(features_);
    // Clamped to the feature count: a larger subsample could only
    // repeat a feature, and a repeat never beats the first scan.
    const std::size_t useFeatures = std::min(
        dims_, std::max<std::size_t>(
                   1, static_cast<std::size_t>(
                          std::ceil(config_.featureFraction *
                                    static_cast<double>(dims_)))));

    const Split best = bestSplit(useFeatures, lo, hi, parentSse);
    if (best.gain <= 1e-12)
        return nodeIndex;

    const std::size_t mid =
        lo + partition(lo, hi, best, depth + 1 < config_.maxDepth);
    const std::size_t left = build(lo, mid, depth + 1, rng);
    const std::size_t right = build(mid, hi, depth + 1, rng);
    Node &node = nodes_[nodeIndex];
    node.leaf = false;
    node.feature = static_cast<std::int32_t>(best.feature);
    node.threshold = best.threshold;
    node.left = static_cast<std::int32_t>(left);
    node.right = static_cast<std::int32_t>(right);
    return nodeIndex;
}

TreeBuilder::Split
TreeBuilder::bestSplit(std::size_t use_features, std::size_t lo,
                       std::size_t hi, double parent_sse)
{
    const std::size_t m = hi - lo;
    const std::size_t cands = std::min(config_.thresholdCandidates, m - 1);

    // Collect, feature by feature in subsample order, the quantile-grid
    // thresholds. Consecutive equal thresholds (ties in the sorted
    // values) score identically and never beat the first under the
    // strict '>' below, so only the first is kept. Each feature's lanes
    // are padded to a whole vector by repeating its last threshold,
    // which again scores identically and cannot win.
    std::size_t lanes = 0;
    for (std::size_t k = 0; k < use_features; ++k) {
        const std::size_t f = features_[k];
        const std::int32_t *byValue = sorted_.data() + f * n_ + lo;
        const double *col = xcol_.data() + f * rows_;
        if (col[byValue[0]] == col[byValue[m - 1]])
            continue;  // constant feature in this node

        const std::size_t first = lanes;
        for (std::size_t c = 1; c <= cands; ++c) {
            const std::size_t pos = c * (m - 1) / (cands + 1);
            const double thr =
                0.5 * (col[byValue[pos]] +
                       col[byValue[std::min(pos + 1, m - 1)]]);
            if (lanes == first || thr != laneThr_[lanes - 1])
                laneThr_[lanes++] = thr;
        }
        for (; lanes % 4 != 0; ++lanes)
            laneThr_[lanes] = laneThr_[lanes - 1];
        double *xs = xbuf_.data() + k * m;
        for (std::size_t i = 0; i < m; ++i)
            xs[i] = col[order_[lo + i]];
        for (std::size_t v = first / 4; v < lanes / 4; ++v) {
            vecColumn_[v] = xs;
            vecFeature_[v] = f;
        }
    }

    const std::size_t vectors = lanes / 4;
    for (std::size_t v = 0; v < vectors; v += kMaxVectors) {
        const int width =
            static_cast<int>(std::min<std::size_t>(kMaxVectors, vectors - v));
        scoreLanesDispatch(width, vecColumn_.data() + v, ybuf_.data(), m,
                           laneThr_.data() + 4 * v, laneLeft_.data() + 4 * v,
                           laneSse_.data() + 4 * v);
    }

    // The first strictly best gain in (feature subsample, threshold)
    // order wins, as in the per-candidate scan. Thresholds leaving a
    // child under minSamplesLeaf never compete.
    const double minLeaf = static_cast<double>(config_.minSamplesLeaf);
    const double rows = static_cast<double>(m);
    Split best;
    for (std::size_t j = 0; j < lanes; ++j) {
        if (laneLeft_[j] < minLeaf || rows - laneLeft_[j] < minLeaf)
            continue;
        const double gain = parent_sse - laneSse_[j];
        if (gain > best.gain) {
            best.gain = gain;
            best.feature = vecFeature_[j / 4];
            best.threshold = laneThr_[j];
        }
    }
    return best;
}

std::size_t
TreeBuilder::partition(std::size_t lo, std::size_t hi, const Split &split,
                       bool children_split)
{
    const double *col = xcol_.data() + split.feature * rows_;
    for (std::size_t i = lo; i < hi; ++i) {
        const std::int32_t r = order_[i];
        goesLeft_[r] = col[r] <= split.threshold;
    }
    // Stable in-place partition of the node's slice of a row list: left
    // rows compact forward, right rows are staged and appended, so both
    // children keep their rows in the parent's order. Branch-free (each
    // row is written to both places, only one cursor advances): the
    // side a row takes is data-dependent and mispredicts half the time.
    const auto stablePartition = [this, lo, hi](std::int32_t *list) {
        std::size_t l = lo, r = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            const std::int32_t row = list[i];
            const std::size_t toLeft = goesLeft_[row];
            list[l] = row;
            spill_[r] = row;
            l += toLeft;
            r += 1 - toLeft;
        }
        std::copy_n(spill_.begin(), r, list + l);
        return l - lo;
    };
    const std::size_t leftCount = stablePartition(order_.data());
    // Children at the depth limit are leaves and never read the sorted
    // lists.
    if (children_split)
        for (std::size_t f = 0; f < dims_; ++f)
            stablePartition(sorted_.data() + f * n_);
    return leftCount;
}

void
TreeBuilder::flattenInto(ForestArena &arena)
{
    const std::int32_t base = static_cast<std::int32_t>(arena.nodeCount());
    arena.root.push_back(base);
    arena.depth.push_back(static_cast<std::int32_t>(depth_));

    // Breadth-first, sibling-adjacent remap: a node's children land in
    // consecutive arena slots, so the batched kernel derives the right
    // child as left + 1 and drops one load from the per-step chase;
    // BFS order also keeps the hot top levels of the tree on adjacent
    // cache lines. Processing the queue in FIFO order makes the new
    // index of bfs_[q] exactly q.
    remap_.assign(nodes_.size(), -1);
    bfs_.clear();
    remap_[0] = 0;
    bfs_.push_back(0);
    std::int32_t next = 1;
    for (std::size_t q = 0; q < bfs_.size(); ++q) {
        const Node &n = nodes_[bfs_[q]];
        if (!n.leaf) {
            remap_[n.left] = next;
            remap_[n.right] = next + 1;
            next += 2;
            bfs_.push_back(n.left);
            bfs_.push_back(n.right);
        }
    }

    for (std::size_t q = 0; q < bfs_.size(); ++q) {
        const Node &n = nodes_[bfs_[q]];
        const std::int32_t self = base + static_cast<std::int32_t>(q);
        if (n.leaf) {
            arena.feature.push_back(0);
            arena.threshold.push_back(
                std::numeric_limits<double>::infinity());
            arena.left.push_back(self);
            arena.right.push_back(self);
        } else {
            arena.feature.push_back(n.feature);
            arena.threshold.push_back(n.threshold);
            arena.left.push_back(base + remap_[n.left]);
            arena.right.push_back(base + remap_[n.right]);
        }
        arena.value.push_back(n.value);
    }
}

RandomForest::RandomForest(ForestConfig config) : config_(config) {}

void
RandomForest::fit(const std::vector<std::vector<double>> &xs,
                  const std::vector<double> &ys)
{
    assert(!xs.empty() && xs.size() == ys.size());
    arena_.clear();
    TreeBuilder builder(xs, ys, config_);
    Rng rng(config_.seed);
    std::vector<std::size_t> indices(xs.size());
    for (std::size_t t = 0; t < config_.numTrees; ++t) {
        if (config_.bootstrap) {
            for (auto &i : indices)
                i = static_cast<std::size_t>(rng.below(xs.size()));
        } else {
            std::iota(indices.begin(), indices.end(), 0);
        }
        builder.grow(indices, rng, arena_);
    }
}

double
RandomForest::predict(const std::vector<double> &x) const
{
    assert(fitted());
    double s = 0.0;
    for (std::size_t t = 0; t < arena_.treeCount(); ++t)
        s += arena_.leafValue(t, x.data());
    return s / static_cast<double>(arena_.treeCount());
}

namespace {

/**
 * Rows per kernel block: 1024 rows x 8-16 features keeps the feature
 * slab plus the int32 cursor array L2-resident while every tree's nodes
 * are re-walked against it.
 */
constexpr std::size_t kRowBlock = 1024;

} // namespace

void
RandomForest::predictBatchInto(const double *xs, std::size_t rows,
                               std::size_t dims, double *out) const
{
    assert(fitted());
    const std::int32_t *feat = arena_.feature.data();
    const double *thr = arena_.threshold.data();
    const std::int32_t *lch = arena_.left.data();
    const double *val = arena_.value.data();

    std::vector<std::int32_t> cursor(std::min(rows, kRowBlock));

    for (std::size_t b = 0; b < rows; b += kRowBlock) {
        const std::size_t br = std::min(kRowBlock, rows - b);
        double *o = out + b;
        const double *x = xs + b * dims;
        for (std::size_t r = 0; r < br; ++r)
            o[r] = 0.0;

        for (std::size_t t = 0; t < arena_.treeCount(); ++t) {
            const std::int32_t root = arena_.root[t];
            const std::int32_t steps = arena_.depth[t];
            std::int32_t *cur = cursor.data();

            // Eight independent walkers hide the dependent-load latency
            // of the node chase. Each advance is branch-free: siblings
            // are adjacent in the arena (right == left + 1), so the
            // comparison outcome is just added to the left-child index,
            // and the self-loop leaf encoding (left == self, threshold
            // +inf) makes parked rows advance to themselves. The group
            // breaks out as soon as all eight rows are parked, so a
            // group costs its deepest leaf, not the tree's max depth.
            std::size_t r = 0;
            for (; r + 8 <= br; r += 8) {
                const double *x0 = x + (r + 0) * dims;
                const double *x1 = x + (r + 1) * dims;
                const double *x2 = x + (r + 2) * dims;
                const double *x3 = x + (r + 3) * dims;
                const double *x4 = x + (r + 4) * dims;
                const double *x5 = x + (r + 5) * dims;
                const double *x6 = x + (r + 6) * dims;
                const double *x7 = x + (r + 7) * dims;
                std::int32_t n0 = root, n1 = root, n2 = root, n3 = root;
                std::int32_t n4 = root, n5 = root, n6 = root, n7 = root;
                for (std::int32_t s = 0; s < steps; ++s) {
                    const std::int32_t p0 = n0, p1 = n1, p2 = n2,
                                       p3 = n3, p4 = n4, p5 = n5,
                                       p6 = n6, p7 = n7;
                    n0 = lch[n0] + (x0[feat[n0]] > thr[n0]);
                    n1 = lch[n1] + (x1[feat[n1]] > thr[n1]);
                    n2 = lch[n2] + (x2[feat[n2]] > thr[n2]);
                    n3 = lch[n3] + (x3[feat[n3]] > thr[n3]);
                    n4 = lch[n4] + (x4[feat[n4]] > thr[n4]);
                    n5 = lch[n5] + (x5[feat[n5]] > thr[n5]);
                    n6 = lch[n6] + (x6[feat[n6]] > thr[n6]);
                    n7 = lch[n7] + (x7[feat[n7]] > thr[n7]);
                    if (((n0 ^ p0) | (n1 ^ p1) | (n2 ^ p2) | (n3 ^ p3) |
                         (n4 ^ p4) | (n5 ^ p5) | (n6 ^ p6) |
                         (n7 ^ p7)) == 0)
                        break;
                }
                cur[r + 0] = n0;
                cur[r + 1] = n1;
                cur[r + 2] = n2;
                cur[r + 3] = n3;
                cur[r + 4] = n4;
                cur[r + 5] = n5;
                cur[r + 6] = n6;
                cur[r + 7] = n7;
            }
            for (; r < br; ++r) {
                const double *xr = x + r * dims;
                std::int32_t n = root;
                for (std::int32_t s = 0; s < steps; ++s) {
                    const std::int32_t p = n;
                    n = lch[n] + (xr[feat[n]] > thr[n]);
                    if (n == p)
                        break;
                }
                cur[r] = n;
            }
            // Tree-order accumulation: identical addition order to the
            // scalar predict() sum, which is the bit-identity contract.
            for (std::size_t i = 0; i < br; ++i)
                o[i] += val[cur[i]];
        }

        const double denom = static_cast<double>(arena_.treeCount());
        for (std::size_t r = 0; r < br; ++r)
            o[r] /= denom;
    }
}

std::vector<double>
RandomForest::predictBatch(const std::vector<std::vector<double>> &xs) const
{
    std::vector<double> out(xs.size(), 0.0);
    if (xs.empty())
        return out;
    assert(fitted());
    const std::size_t dims = xs.front().size();
    std::vector<double> flat;
    flat.resize(xs.size() * dims);
    for (std::size_t r = 0; r < xs.size(); ++r) {
        assert(xs[r].size() == dims);
        std::copy(xs[r].begin(), xs[r].end(), flat.begin() + r * dims);
    }
    predictBatchInto(flat.data(), xs.size(), dims, out.data());
    return out;
}

} // namespace archgym
