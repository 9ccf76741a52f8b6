/**
 * @file
 * Small dense linear algebra kernel backing the Bayesian-optimization
 * agent's Gaussian-process surrogate: row-major matrix storage, Cholesky
 * factorization, and triangular solves.
 *
 * The GP posterior requires solving K x = y for a symmetric positive
 * definite kernel matrix K. BO's cubic cost in the sample count, which the
 * paper calls out as its main scalability limit, lives here. The
 * window-append case (one observation added to the training set) is
 * served by Cholesky::append, a rank-1 bordering update that extends
 * the factor in O(n^2) instead of refactorizing in O(n^3); the
 * window-evict case (one observation dropped from the training set) by
 * Cholesky::removeRow, a rank-1 downdate built from Givens-style
 * rotations on the packed factor. Together they make a sliding-window
 * GP O(n^2) per sample in steady state. Batched posterior queries are
 * served by solveLowerBatch, a multi-RHS forward substitution that
 * makes one pass over the factor for a whole candidate set, and by its
 * backward mirror solveUpperBatch (L^T X = B), which together give
 * K^-1 K* for joint-posterior covariance blocks. The kernel matrix
 * build itself is served by crossSquaredDistances, a blocked GEMM-style
 * kernel computing |a|^2 + |b|^2 - 2 a.b for a whole point block.
 */

#ifndef ARCHGYM_MATHUTIL_MATRIX_H
#define ARCHGYM_MATHUTIL_MATRIX_H

#include <cstddef>
#include <new>
#include <vector>

namespace archgym {

/**
 * Minimal allocator returning Align-byte-aligned storage. The dense
 * kernels stream rows with 32-byte vector loads; the default
 * allocator's 16-byte alignment makes every such load straddle an
 * alignment boundary (and, depending on where the heap lands, line up
 * in 4 KiB-aliasing patterns with the factor), which costs a
 * measurable fraction of the blocked-solve throughput.
 */
template <typename T, std::size_t Align>
struct AlignedAllocator
{
    using value_type = T;
    /** Explicit rebind: the non-type Align parameter defeats the
     *  allocator_traits default. */
    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &)
    {}

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t(Align)));
    }
    void deallocate(T *p, std::size_t n)
    {
        ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
    }
    template <typename U>
    bool operator==(const AlignedAllocator<U, Align> &) const
    {
        return true;
    }
    template <typename U>
    bool operator!=(const AlignedAllocator<U, Align> &) const
    {
        return false;
    }
};

/** 64-byte (cache-line) aligned buffer of doubles. */
using AlignedVector = std::vector<double, AlignedAllocator<double, 64>>;

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** Zero-initialized rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
    {}

    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Matrix product; dimensions must agree. */
    Matrix multiply(const Matrix &other) const;

    /** Matrix-vector product. */
    std::vector<double> multiply(const std::vector<double> &v) const;

    Matrix transpose() const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    AlignedVector data_;
};

/**
 * Cholesky factorization of a symmetric positive definite matrix,
 * A = L L^T with L lower triangular.
 *
 * Construction adds escalating jitter to the diagonal if the matrix is not
 * numerically positive definite, which is the standard GP stabilization.
 *
 * The factor is stored packed (lower triangle only, row-major), so the
 * bordering update `append` just writes the new row at the end of the
 * buffer — with `reserve`d capacity it never reallocates or copies the
 * existing factor, keeping the per-append cost at exactly the O(n^2)
 * forward substitution.
 */
class Cholesky
{
  public:
    /**
     * Factor the matrix.
     * @param a        symmetric matrix to factor (only lower half is read)
     * @param jitter   initial diagonal jitter added on failure
     */
    explicit Cholesky(const Matrix &a, double jitter = 1e-10);

    /** Whether factorization succeeded (possibly with jitter). */
    bool ok() const { return ok_; }

    /** Dimension n of the factored matrix. */
    std::size_t size() const { return n_; }

    /** Total jitter that had to be added to the diagonal. */
    double jitterUsed() const { return jitterUsed_; }

    /**
     * Pre-allocate factor storage for appends up to max_dim, so no
     * append below that dimension reallocates. The BO agent reserves
     * its sliding-window capacity once, up front.
     */
    void reserve(std::size_t max_dim);

    /**
     * Rank-1 bordering update: extend the factorization of the n x n
     * matrix A to the (n+1) x (n+1) matrix [[A, k], [k^T, d]] in
     * O(n^2), where a full refactorization would cost O(n^3):
     *
     *   L' = [[L, 0], [l^T, s]],  l = L^{-1} k,  s = sqrt(d - l^T l).
     *
     * The new row is written directly into the packed factor storage
     * (no copy of the existing factor). Any jitter used by the original
     * factorization is applied to the new diagonal entry as well,
     * matching what a full refactorization with that jitter would
     * produce.
     *
     * @param col  the new column: k (n entries) followed by the new
     *             diagonal element d
     * @return false — leaving the factor unchanged — if the bordered
     *         matrix is not numerically positive definite.
     * @pre ok() && col.size() == size() + 1
     */
    bool append(const std::vector<double> &col);

    /**
     * Rank-1 downdate: remove row/column k of the factored matrix A in
     * O((n-k)^2), where refactorizing the punctured matrix would cost
     * O(n^3). Rows above k are untouched; rows below shift up with
     * column k deleted, and the trailing block absorbs the deleted
     * column's outer product through a sequence of Givens-style
     * rotations (the classic rank-1 Cholesky update, which preserves
     * positive definiteness):
     *
     *   L33' L33'^T = L33 L33^T + l32 l32^T,  l32 = old column k below
     *                                               the diagonal.
     *
     * The factor shrinks in place inside the packed storage (no
     * reallocation; freed capacity is retained for future appends).
     * Any jitter used by the original factorization stays baked into
     * the surviving diagonal, matching a fresh factorization of the
     * punctured matrix with that jitter.
     *
     * @return false — leaving the factor unchanged — if the rotations
     *         produce a non-finite or non-positive diagonal entry
     *         (possible only under extreme dynamic range; callers fall
     *         back to refactorizing).
     * @pre ok() && k < size() && size() >= 2
     */
    bool removeRow(std::size_t k);

    /** The lower-triangular factor, expanded to a dense matrix. */
    Matrix lower() const;

    /** Solve A x = b via forward + backward substitution. */
    std::vector<double> solve(const std::vector<double> &b) const;

    /** Solve L y = b (forward substitution). */
    std::vector<double> solveLower(const std::vector<double> &b) const;

    /**
     * Multi-RHS forward substitution, in place: overwrite the n x m
     * matrix B with Y where L Y = B (each column an independent RHS).
     *
     * One pass over the packed factor serves every column: the inner
     * loops run along B's contiguous rows, so solving m right-hand
     * sides costs one factor traversal instead of m strided ones —
     * this is what batched GP posterior queries ride on. Per column,
     * the arithmetic (order of operations included) is identical to
     * solveLower, so results are bit-identical to the scalar path.
     *
     * @pre b.rows() == size()
     */
    void solveLowerBatch(Matrix &b) const;

    /**
     * Multi-RHS backward substitution, in place: overwrite the n x m
     * matrix B with X where L^T X = B (each column an independent
     * RHS). The backward mirror of solveLowerBatch: per column the
     * operation order (i descending, k ascending from i+1,
     * multiply-subtract, final divide) matches the backward half of
     * solve() exactly, so chaining solveLowerBatch then
     * solveUpperBatch on a single column is bit-identical to solve().
     *
     * @pre b.rows() == size()
     */
    void solveUpperBatch(Matrix &b) const;

    /** The packed lower-triangular factor (row i at i*(i+1)/2, i+1
     *  entries); valid while ok(). For callers that stage the factor
     *  in their own arena (see solveLowerPackedBatch). */
    const double *packedData() const { return fac_.data(); }

    /** log det(A) = 2 sum log L_ii. */
    double logDet() const;

  private:
    bool factor(const Matrix &a, double jitter);

    /** Start of packed row i (row i holds entries L(i, 0..i)). */
    static std::size_t rowStart(std::size_t i) { return i * (i + 1) / 2; }
    double at(std::size_t i, std::size_t j) const
    {
        return fac_[rowStart(i) + j];
    }

    std::size_t n_ = 0;
    AlignedVector fac_;  ///< packed lower triangle, row-major
    bool ok_ = false;
    double jitterUsed_ = 0.0;
};

/**
 * Multi-RHS forward substitution on raw storage: overwrite the n x m
 * row-major array b with Y where L Y = b, L given as a packed lower
 * triangle (Cholesky::packedData layout). Exactly the kernel behind
 * Cholesky::solveLowerBatch, exposed so callers can co-locate the
 * factor and the right-hand sides in one arena — keeping the two hot
 * streams adjacent is worth ~3x on large candidate sweeps on machines
 * where separately allocated buffers fall into unfavourable cache
 * placements. Per column the operation order matches
 * Cholesky::solveLower, so results are bit-identical to the scalar
 * path.
 */
void solveLowerPackedBatch(const double *packed_lower, std::size_t n,
                           double *b, std::size_t m);

/**
 * Multi-RHS backward substitution on raw storage: overwrite the n x m
 * row-major array b with X where L^T X = b, L given as a packed lower
 * triangle (Cholesky::packedData layout). The kernel behind
 * Cholesky::solveUpperBatch, exposed for the same arena co-location
 * reason as solveLowerPackedBatch. Per column the operation order
 * matches the backward half of Cholesky::solve, so forward + backward
 * on one column reproduces solve() bit for bit.
 */
void solveUpperPackedBatch(const double *packed_lower, std::size_t n,
                           double *b, std::size_t m);

/**
 * Squared norm of each row of the n x dim row-major block a, written
 * to out (n entries). Per row the accumulation is the plain k-ascending
 * sum of squares — the exact arithmetic crossSquaredDistances assumes
 * for its norm inputs.
 */
void rowSquaredNorms(const double *a, std::size_t n, std::size_t dim,
                     double *out);

/**
 * All-pairs squared Euclidean distances between two point blocks via
 * the GEMM decomposition d2(i,j) = (|a_i|^2 + |b_j|^2) - 2 a_i.b_j,
 * clamped at zero (catastrophic cancellation between the norm and dot
 * terms can drive tiny true distances a few ulps negative). One
 * blocked pass computes the whole na x nb matrix: per (i, j) the dot
 * product runs k-ascending with independent vector lanes over j, so
 * every entry is bit-identical to the per-pair scalar loop with the
 * same decomposition (oracle::crossSquaredDistancesNaive in the
 * test-only archgym_oracles library) at any block geometry.
 *
 * This is the kernel-matrix build behind GaussianProcess::predictBatch:
 * O(na nb dim) flops that previously hid behind per-pair
 * subtract-square loops over pointer-chased std::vectors.
 *
 * @param a        na x dim row-major point block
 * @param a_norms  per-row squared norms of a (rowSquaredNorms layout)
 * @param bt       dim x nb row-major: the b point block TRANSPOSED, so
 *                 vector lanes over j read contiguous memory
 * @param b_norms  per-row squared norms of b (nb entries)
 * @param out      na x nb row-major squared distances
 */
void crossSquaredDistances(const double *a, const double *a_norms,
                           std::size_t na, const double *bt,
                           const double *b_norms, std::size_t nb,
                           std::size_t dim, double *out);

/** Dot product. @pre a.size() == b.size() */
double dot(const std::vector<double> &a, const std::vector<double> &b);

/** Squared Euclidean distance between two vectors. */
double squaredDistance(const std::vector<double> &a,
                       const std::vector<double> &b);

} // namespace archgym

#endif // ARCHGYM_MATHUTIL_MATRIX_H
