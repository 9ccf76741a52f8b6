#include "matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace archgym {

namespace {

#if defined(__GNUC__) || defined(__clang__)
/** Four-lane double vector (one AVX register, or two SSE registers on
 *  older ISAs — the compiler splits it transparently). The Unaligned
 *  variant relaxes the natural 32-byte alignment so loads/stores
 *  compile to single unaligned vector moves instead of bouncing
 *  through the stack, and is may_alias so casting a double* to it is
 *  well-defined. */
typedef double V4d __attribute__((vector_size(32)));
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

/**
 * Panel-tiled forward substitution for one full-width (16-column)
 * block of the multi-RHS solve, written with explicit vector types:
 * four 4-lane accumulators stay in registers for each inner k-loop,
 * every iteration one broadcast plus four multiply-subtracts. Spelled
 * as explicit vectors because the autovectorized version of this loop
 * is codegen-roulette (GCC 12 variously spills an indexed accumulator
 * array to the stack, assembles the vectors from scalar loads when
 * the row stride is a runtime value, or identical-code-folds the
 * kernel with the remainder loop — each worth 3-4x on the 600-point
 * GP candidate sweep).
 *
 * The schedule is cache-tiled: a flat row-at-a-time sweep re-streams
 * every previously solved row of the block slice for each output row
 * — n^2/2 row reads per block, hundreds of megabytes of L2 traffic
 * per 600-point candidate sweep, which is where the solve's time
 * actually goes. Here output rows advance in panels of kPanel: the
 * subtraction of already-solved rows below the panel is applied
 * k-tile by k-tile, so each RHS row tile (kTile x 128 bytes, L1-
 * resident) is reused across the whole panel instead of being
 * re-fetched per row, then the small triangle inside the panel is
 * finished row by row.
 *
 * Bit-identity with solveLower is preserved because per column j and
 * output row i the multiply-subtracts still run in strictly ascending
 * k (tiles ascending, k ascending inside each tile, then the
 * intra-panel triangle), into the same accumulator, with the divide
 * last — only the memory access schedule changes, not the operation
 * order.
 */
__attribute__((noinline)) void
solveLowerPanelBlock16(const double *__restrict fac, std::size_t n,
                       double *__restrict b, std::size_t m,
                       std::size_t c0)
{
    constexpr std::size_t kPanel = 64;
    constexpr std::size_t kTile = 64;
    const auto rowStart = [](std::size_t i) { return i * (i + 1) / 2; };
    V4d acc[kPanel][4];
    for (std::size_t i0 = 0; i0 < n; i0 += kPanel) {
        const std::size_t i1 = std::min(i0 + kPanel, n);
        for (std::size_t i = i0; i < i1; ++i) {
            double *bi = b + i * m + c0;
            acc[i - i0][0] = loadu4(bi);
            acc[i - i0][1] = loadu4(bi + 4);
            acc[i - i0][2] = loadu4(bi + 8);
            acc[i - i0][3] = loadu4(bi + 12);
        }
        // GEMM phase: absorb all rows solved in earlier panels,
        // k-tile by k-tile so the tile's RHS rows stay L1-resident
        // across every row of this panel.
        for (std::size_t k0 = 0; k0 < i0; k0 += kTile) {
            const std::size_t k1 = std::min(k0 + kTile, i0);
            for (std::size_t i = i0; i < i1; ++i) {
                const double *ri = fac + rowStart(i);
                V4d a0 = acc[i - i0][0];
                V4d a1 = acc[i - i0][1];
                V4d a2 = acc[i - i0][2];
                V4d a3 = acc[i - i0][3];
                const double *bk = b + k0 * m + c0;
                for (std::size_t k = k0; k < k1; ++k, bk += m) {
                    const double lik = ri[k];
                    const V4d l = {lik, lik, lik, lik};
                    a0 -= l * loadu4(bk);
                    a1 -= l * loadu4(bk + 4);
                    a2 -= l * loadu4(bk + 8);
                    a3 -= l * loadu4(bk + 12);
                }
                acc[i - i0][0] = a0;
                acc[i - i0][1] = a1;
                acc[i - i0][2] = a2;
                acc[i - i0][3] = a3;
            }
        }
        // Triangular finish inside the panel: rows depend on each
        // other, so solve them in order against the rows just stored.
        for (std::size_t i = i0; i < i1; ++i) {
            const double *ri = fac + rowStart(i);
            V4d a0 = acc[i - i0][0];
            V4d a1 = acc[i - i0][1];
            V4d a2 = acc[i - i0][2];
            V4d a3 = acc[i - i0][3];
            const double *bk = b + i0 * m + c0;
            for (std::size_t k = i0; k < i; ++k, bk += m) {
                const double lik = ri[k];
                const V4d l = {lik, lik, lik, lik};
                a0 -= l * loadu4(bk);
                a1 -= l * loadu4(bk + 4);
                a2 -= l * loadu4(bk + 8);
                a3 -= l * loadu4(bk + 12);
            }
            const double di = ri[i];
            const V4d d = {di, di, di, di};
            double *bi = b + i * m + c0;
            storeu4(bi, a0 / d);
            storeu4(bi + 4, a1 / d);
            storeu4(bi + 8, a2 / d);
            storeu4(bi + 12, a3 / d);
        }
    }
}

/**
 * 32-column variant of solveLowerPanelBlock16: eight register
 * accumulators per output row instead of four. Each broadcast factor
 * entry feeds eight multiply-subtracts, and — more importantly — each
 * traversal of the packed factor (the dominant L2 stream once the RHS
 * tiles are L1-resident) is amortized over twice the columns, halving
 * factor traffic per solved column. Per column the operation order is
 * identical to the 16-column kernel and to solveLower, so results stay
 * bit-identical.
 */
__attribute__((noinline)) void
solveLowerPanelBlock32(const double *__restrict fac, std::size_t n,
                       double *__restrict b, std::size_t m,
                       std::size_t c0)
{
    constexpr std::size_t kPanel = 64;
    constexpr std::size_t kTile = 64;
    const auto rowStart = [](std::size_t i) { return i * (i + 1) / 2; };
    V4d acc[kPanel][8];
    for (std::size_t i0 = 0; i0 < n; i0 += kPanel) {
        const std::size_t i1 = std::min(i0 + kPanel, n);
        for (std::size_t i = i0; i < i1; ++i) {
            double *bi = b + i * m + c0;
            for (std::size_t v = 0; v < 8; ++v)
                acc[i - i0][v] = loadu4(bi + 4 * v);
        }
        for (std::size_t k0 = 0; k0 < i0; k0 += kTile) {
            const std::size_t k1 = std::min(k0 + kTile, i0);
            for (std::size_t i = i0; i < i1; ++i) {
                const double *ri = fac + rowStart(i);
                V4d a0 = acc[i - i0][0];
                V4d a1 = acc[i - i0][1];
                V4d a2 = acc[i - i0][2];
                V4d a3 = acc[i - i0][3];
                V4d a4 = acc[i - i0][4];
                V4d a5 = acc[i - i0][5];
                V4d a6 = acc[i - i0][6];
                V4d a7 = acc[i - i0][7];
                const double *bk = b + k0 * m + c0;
                for (std::size_t k = k0; k < k1; ++k, bk += m) {
                    const double lik = ri[k];
                    const V4d l = {lik, lik, lik, lik};
                    a0 -= l * loadu4(bk);
                    a1 -= l * loadu4(bk + 4);
                    a2 -= l * loadu4(bk + 8);
                    a3 -= l * loadu4(bk + 12);
                    a4 -= l * loadu4(bk + 16);
                    a5 -= l * loadu4(bk + 20);
                    a6 -= l * loadu4(bk + 24);
                    a7 -= l * loadu4(bk + 28);
                }
                acc[i - i0][0] = a0;
                acc[i - i0][1] = a1;
                acc[i - i0][2] = a2;
                acc[i - i0][3] = a3;
                acc[i - i0][4] = a4;
                acc[i - i0][5] = a5;
                acc[i - i0][6] = a6;
                acc[i - i0][7] = a7;
            }
        }
        for (std::size_t i = i0; i < i1; ++i) {
            const double *ri = fac + rowStart(i);
            V4d a0 = acc[i - i0][0];
            V4d a1 = acc[i - i0][1];
            V4d a2 = acc[i - i0][2];
            V4d a3 = acc[i - i0][3];
            V4d a4 = acc[i - i0][4];
            V4d a5 = acc[i - i0][5];
            V4d a6 = acc[i - i0][6];
            V4d a7 = acc[i - i0][7];
            const double *bk = b + i0 * m + c0;
            for (std::size_t k = i0; k < i; ++k, bk += m) {
                const double lik = ri[k];
                const V4d l = {lik, lik, lik, lik};
                a0 -= l * loadu4(bk);
                a1 -= l * loadu4(bk + 4);
                a2 -= l * loadu4(bk + 8);
                a3 -= l * loadu4(bk + 12);
                a4 -= l * loadu4(bk + 16);
                a5 -= l * loadu4(bk + 20);
                a6 -= l * loadu4(bk + 24);
                a7 -= l * loadu4(bk + 28);
            }
            const double di = ri[i];
            const V4d d = {di, di, di, di};
            double *bi = b + i * m + c0;
            storeu4(bi, a0 / d);
            storeu4(bi + 4, a1 / d);
            storeu4(bi + 8, a2 / d);
            storeu4(bi + 12, a3 / d);
            storeu4(bi + 16, a4 / d);
            storeu4(bi + 20, a5 / d);
            storeu4(bi + 24, a6 / d);
            storeu4(bi + 28, a7 / d);
        }
    }
}

/**
 * Backward substitution (L^T X = B) for one 16-column block: the
 * mirror of solveLowerPanelBlock16, i descending with the inner k-loop
 * walking column i of the packed factor (entries L(k, i), k > i).
 * The factor accesses are strided — rowStart(k) + i advances by k+1
 * per step — but the sixteen RHS lanes amortize each factor load just
 * as in the forward kernel. Per column j the operation order (k
 * ascending from i+1, multiply then subtract, final divide) matches
 * the backward half of Cholesky::solve exactly, so results are
 * bit-identical to the scalar path.
 */
__attribute__((noinline)) void
solveUpperBlock16(const double *__restrict fac, std::size_t n,
                  double *__restrict b, std::size_t m, std::size_t c0)
{
    const auto rowStart = [](std::size_t i) { return i * (i + 1) / 2; };
    for (std::size_t ii = n; ii > 0; --ii) {
        const std::size_t i = ii - 1;
        double *bi = b + i * m + c0;
        V4d a0 = loadu4(bi);
        V4d a1 = loadu4(bi + 4);
        V4d a2 = loadu4(bi + 8);
        V4d a3 = loadu4(bi + 12);
        const double *bk = b + (i + 1) * m + c0;
        std::size_t fk = rowStart(i + 1) + i;
        for (std::size_t k = i + 1; k < n; ++k, bk += m, fk += k) {
            const double lki = fac[fk];
            const V4d l = {lki, lki, lki, lki};
            a0 -= l * loadu4(bk);
            a1 -= l * loadu4(bk + 4);
            a2 -= l * loadu4(bk + 8);
            a3 -= l * loadu4(bk + 12);
        }
        const double di = fac[rowStart(i) + i];
        const V4d d = {di, di, di, di};
        storeu4(bi, a0 / d);
        storeu4(bi + 4, a1 / d);
        storeu4(bi + 8, a2 / d);
        storeu4(bi + 12, a3 / d);
    }
}

/**
 * One row of the cross-squared-distance matrix for one 16-column
 * block: dot products of point a_i against sixteen transposed b
 * columns accumulate in four register-resident vector lanes, then the
 * norm decomposition (|a|^2 + |b|^2) - 2 a.b lands with a vector
 * clamp at zero. Per lane j the arithmetic (k-ascending
 * multiply-accumulate from zero, norm sum before the doubled dot is
 * subtracted, clamp spelled as the same compare-select) matches
 * the per-pair scalar loop exactly, so entries are bit-identical to
 * the test oracle (oracle::crossSquaredDistancesNaive).
 */
__attribute__((noinline)) void
crossSquaredDistancesBlock16(const double *__restrict ai,
                             double a_norm, const double *__restrict bt,
                             const double *__restrict b_norms,
                             std::size_t nb, std::size_t dim,
                             double *__restrict out, std::size_t c0)
{
    V4d d0 = {0.0, 0.0, 0.0, 0.0};
    V4d d1 = d0, d2 = d0, d3 = d0;
    const double *btk = bt + c0;
    for (std::size_t k = 0; k < dim; ++k, btk += nb) {
        const double av = ai[k];
        const V4d a = {av, av, av, av};
        d0 += a * loadu4(btk);
        d1 += a * loadu4(btk + 4);
        d2 += a * loadu4(btk + 8);
        d3 += a * loadu4(btk + 12);
    }
    const V4d an = {a_norm, a_norm, a_norm, a_norm};
    const V4d two = {2.0, 2.0, 2.0, 2.0};
    const V4d zero = {0.0, 0.0, 0.0, 0.0};
    V4d r0 = (an + loadu4(b_norms + c0)) - two * d0;
    V4d r1 = (an + loadu4(b_norms + c0 + 4)) - two * d1;
    V4d r2 = (an + loadu4(b_norms + c0 + 8)) - two * d2;
    V4d r3 = (an + loadu4(b_norms + c0 + 12)) - two * d3;
    r0 = r0 < zero ? zero : r0;
    r1 = r1 < zero ? zero : r1;
    r2 = r2 < zero ? zero : r2;
    r3 = r3 < zero ? zero : r3;
    storeu4(out + c0, r0);
    storeu4(out + c0 + 4, r1);
    storeu4(out + c0 + 8, r2);
    storeu4(out + c0 + 12, r3);
}
#else
/** Portable fallback of the 16-column block kernel. */
void
solveLowerBlock16(const double *fac, std::size_t n, double *b,
                  std::size_t m, std::size_t c0)
{
    const auto rowStart = [](std::size_t i) { return i * (i + 1) / 2; };
    for (std::size_t i = 0; i < n; ++i) {
        const double *ri = fac + rowStart(i);
        double *bi = b + i * m + c0;
        double acc[16];
        for (std::size_t j = 0; j < 16; ++j)
            acc[j] = bi[j];
        for (std::size_t k = 0; k < i; ++k) {
            const double lik = ri[k];
            const double *bk = b + k * m + c0;
            for (std::size_t j = 0; j < 16; ++j)
                acc[j] -= lik * bk[j];
        }
        const double di = ri[i];
        for (std::size_t j = 0; j < 16; ++j)
            bi[j] = acc[j] / di;
    }
}

/** Portable fallback: the flat kernel already is the panel kernel's
 *  arithmetic, just without the cache-aware schedule. */
void
solveLowerPanelBlock16(const double *fac, std::size_t n, double *b,
                       std::size_t m, std::size_t c0)
{
    solveLowerBlock16(fac, n, b, m, c0);
}

/** Portable fallback: two adjacent 16-column blocks (per-column
 *  arithmetic is the same regardless of the grouping). */
void
solveLowerPanelBlock32(const double *fac, std::size_t n, double *b,
                       std::size_t m, std::size_t c0)
{
    solveLowerBlock16(fac, n, b, m, c0);
    solveLowerBlock16(fac, n, b, m, c0 + 16);
}

/** Portable fallback of the 16-column backward block kernel. */
void
solveUpperBlock16(const double *fac, std::size_t n, double *b,
                  std::size_t m, std::size_t c0)
{
    const auto rowStart = [](std::size_t i) { return i * (i + 1) / 2; };
    for (std::size_t ii = n; ii > 0; --ii) {
        const std::size_t i = ii - 1;
        double *bi = b + i * m + c0;
        double acc[16];
        for (std::size_t j = 0; j < 16; ++j)
            acc[j] = bi[j];
        for (std::size_t k = i + 1; k < n; ++k) {
            const double lki = fac[rowStart(k) + i];
            const double *bk = b + k * m + c0;
            for (std::size_t j = 0; j < 16; ++j)
                acc[j] -= lki * bk[j];
        }
        const double di = fac[rowStart(i) + i];
        for (std::size_t j = 0; j < 16; ++j)
            bi[j] = acc[j] / di;
    }
}

/** Portable fallback of the 16-column cross-distance block kernel. */
void
crossSquaredDistancesBlock16(const double *ai, double a_norm,
                             const double *bt, const double *b_norms,
                             std::size_t nb, std::size_t dim,
                             double *out, std::size_t c0)
{
    double acc[16];
    for (std::size_t j = 0; j < 16; ++j)
        acc[j] = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
        const double av = ai[k];
        const double *btk = bt + k * nb + c0;
        for (std::size_t j = 0; j < 16; ++j)
            acc[j] += av * btk[j];
    }
    for (std::size_t j = 0; j < 16; ++j) {
        const double d2 = (a_norm + b_norms[c0 + j]) - 2.0 * acc[j];
        out[c0 + j] = d2 < 0.0 ? 0.0 : d2;
    }
}
#endif

} // namespace

void
solveLowerPackedBatch(const double *fac, std::size_t n, double *b,
                      std::size_t m)
{
    constexpr std::size_t kBlock = 16;
    const auto rowStart = [](std::size_t i) { return i * (i + 1) / 2; };
    std::size_t c0 = 0;
    // Widest kernel first: 32-column panels halve factor traffic per
    // solved column, then one 16-column block mops up, then scalar.
    for (; c0 + 2 * kBlock <= m; c0 += 2 * kBlock)
        solveLowerPanelBlock32(fac, n, b, m, c0);
    for (; c0 + kBlock <= m; c0 += kBlock)
        solveLowerPanelBlock16(fac, n, b, m, c0);
    // Remainder columns: plain scalar forward substitution per column
    // (exactly the solveLower op order). Kept structurally distinct
    // from the block kernel so identical-code folding cannot merge
    // them — see solveLowerPanelBlock16.
    for (std::size_t j = c0; j < m; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            const double *ri = fac + rowStart(i);
            double s = b[i * m + j];
            for (std::size_t k = 0; k < i; ++k)
                s -= ri[k] * b[k * m + j];
            b[i * m + j] = s / ri[i];
        }
    }
}

void
solveUpperPackedBatch(const double *fac, std::size_t n, double *b,
                      std::size_t m)
{
    constexpr std::size_t kBlock = 16;
    const auto rowStart = [](std::size_t i) { return i * (i + 1) / 2; };
    std::size_t c0 = 0;
    for (; c0 + kBlock <= m; c0 += kBlock)
        solveUpperBlock16(fac, n, b, m, c0);
    // Remainder columns: plain scalar backward substitution per column
    // (exactly the op order of the backward half of Cholesky::solve).
    // Kept structurally distinct from the block kernel so identical-
    // code folding cannot merge them — see solveLowerPanelBlock16.
    for (std::size_t j = c0; j < m; ++j) {
        for (std::size_t ii = n; ii > 0; --ii) {
            const std::size_t i = ii - 1;
            double s = b[i * m + j];
            for (std::size_t k = i + 1; k < n; ++k)
                s -= fac[rowStart(k) + i] * b[k * m + j];
            b[i * m + j] = s / fac[rowStart(i) + i];
        }
    }
}

void
rowSquaredNorms(const double *a, std::size_t n, std::size_t dim,
                double *out)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double *ai = a + i * dim;
        double s = 0.0;
        for (std::size_t k = 0; k < dim; ++k)
            s += ai[k] * ai[k];
        out[i] = s;
    }
}

void
crossSquaredDistances(const double *a, const double *a_norms,
                      std::size_t na, const double *bt,
                      const double *b_norms, std::size_t nb,
                      std::size_t dim, double *out)
{
    constexpr std::size_t kBlock = 16;
    const std::size_t full = nb - nb % kBlock;
    for (std::size_t i = 0; i < na; ++i) {
        const double *ai = a + i * dim;
        double *oi = out + i * nb;
        for (std::size_t c0 = 0; c0 < full; c0 += kBlock)
            crossSquaredDistancesBlock16(ai, a_norms[i], bt, b_norms,
                                         nb, dim, oi, c0);
        // Remainder columns: the naive per-pair decomposition (same
        // arithmetic as the test oracle), kept structurally distinct
        // from the block kernel.
        for (std::size_t j = full; j < nb; ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < dim; ++k)
                s += ai[k] * bt[k * nb + j];
            const double d2 = (a_norms[i] + b_norms[j]) - 2.0 * s;
            oi[j] = d2 < 0.0 ? 0.0 : d2;
        }
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::multiply(const Matrix &other) const
{
    assert(cols_ == other.rows_);
    Matrix out(rows_, other.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(i, k);
            if (a == 0.0)
                continue;
            for (std::size_t j = 0; j < other.cols_; ++j)
                out(i, j) += a * other(k, j);
        }
    }
    return out;
}

std::vector<double>
Matrix::multiply(const std::vector<double> &v) const
{
    assert(cols_ == v.size());
    std::vector<double> out(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < cols_; ++j)
            s += (*this)(i, j) * v[j];
        out[i] = s;
    }
    return out;
}

Matrix
Matrix::transpose() const
{
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            out(j, i) = (*this)(i, j);
    return out;
}

Cholesky::Cholesky(const Matrix &a, double jitter)
{
    assert(a.rows() == a.cols());
    // Try plain factorization first, then escalate jitter by 10x up to a
    // generous cap; GP kernel matrices with duplicated points need this.
    if (factor(a, 0.0)) {
        ok_ = true;
        return;
    }
    double j = jitter;
    for (int attempt = 0; attempt < 12; ++attempt, j *= 10.0) {
        if (factor(a, j)) {
            ok_ = true;
            jitterUsed_ = j;
            return;
        }
    }
    ok_ = false;
}

bool
Cholesky::factor(const Matrix &a, double jitter)
{
    const std::size_t n = a.rows();
    n_ = n;
    fac_.assign(rowStart(n), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double *ri = fac_.data() + rowStart(i);
        for (std::size_t j = 0; j <= i; ++j) {
            const double *rj = fac_.data() + rowStart(j);
            double s = a(i, j);
            if (i == j)
                s += jitter;
            for (std::size_t k = 0; k < j; ++k)
                s -= ri[k] * rj[k];
            if (i == j) {
                if (s <= 0.0 || !std::isfinite(s))
                    return false;
                ri[i] = std::sqrt(s);
            } else {
                ri[j] = s / rj[j];
            }
        }
    }
    return true;
}

void
Cholesky::reserve(std::size_t max_dim)
{
    fac_.reserve(rowStart(max_dim));
}

bool
Cholesky::append(const std::vector<double> &col)
{
    assert(ok_);
    const std::size_t n = n_;
    assert(col.size() == n + 1);

    // Grow the packed storage by one row and run the forward
    // substitution l = L^-1 k directly in place — with reserved
    // capacity this allocates and copies nothing.
    const std::size_t base = fac_.size();
    fac_.resize(base + n + 1);
    double *row = fac_.data() + base;
    for (std::size_t i = 0; i < n; ++i) {
        const double *ri = fac_.data() + rowStart(i);
        double s = col[i];
        for (std::size_t k = 0; k < i; ++k)
            s -= ri[k] * row[k];
        row[i] = s / ri[i];
    }
    double s = col[n] + jitterUsed_;
    for (std::size_t k = 0; k < n; ++k)
        s -= row[k] * row[k];
    if (s <= 0.0 || !std::isfinite(s)) {
        fac_.resize(base);  // leave the factor unchanged
        return false;
    }
    row[n] = std::sqrt(s);
    ++n_;
    return true;
}

bool
Cholesky::removeRow(std::size_t k)
{
    assert(ok_);
    const std::size_t n = n_;
    assert(k < n && n >= 2);

    const std::size_t m = n - 1 - k;  // trailing-block dimension
    // Save the deleted column's sub-diagonal entries u_i = L(i, k); the
    // trailing block must absorb u u^T to stay a factor of the
    // punctured matrix. Validate the whole update on a scratch copy of
    // the trailing block first, so a failed downdate leaves the factor
    // untouched.
    std::vector<double> u(m);
    for (std::size_t i = 0; i < m; ++i)
        u[i] = at(k + 1 + i, k);

    // Shifted rows of the punctured factor, packed row-major: scratch
    // row i is old row k+1+i with column k deleted, so it has k+1+i
    // entries (new columns 0..k+i). Validating the update here first
    // means a failed downdate leaves the factor untouched.
    const auto shiftedStart = [k](std::size_t i) {
        return i * (k + 1) + i * (i - 1) / 2;
    };
    std::vector<double> block(shiftedStart(m));
    {
        std::size_t w = 0;
        for (std::size_t i = 0; i < m; ++i) {
            const double *src = fac_.data() + rowStart(k + 1 + i);
            for (std::size_t j = 0; j < k; ++j)
                block[w++] = src[j];
            for (std::size_t j = k + 1; j <= k + 1 + i; ++j)
                block[w++] = src[j];
        }
    }
    const auto blockAt = [&](std::size_t i, std::size_t j) -> double & {
        return block[shiftedStart(i) + j];
    };

    // Rank-1 update L' L'^T = L L^T + u u^T on the trailing block's
    // lower-right (m x m) corner via Givens-style rotations, one
    // column at a time. The update preserves positive definiteness in
    // exact arithmetic; only overflow/underflow under extreme dynamic
    // range can break it, which the finite/positive checks catch.
    for (std::size_t j = 0; j < m; ++j) {
        double &ljj = blockAt(j, k + j);
        const double r = std::sqrt(ljj * ljj + u[j] * u[j]);
        if (!(r > 0.0) || !std::isfinite(r))
            return false;
        const double c = r / ljj;
        const double s = u[j] / ljj;
        ljj = r;
        for (std::size_t i = j + 1; i < m; ++i) {
            double &lij = blockAt(i, k + j);
            lij = (lij + s * u[i]) / c;
            u[i] = c * u[i] - s * lij;
            if (!std::isfinite(lij))
                return false;
        }
    }

    // Commit: rows 0..k-1 stay in place; the validated trailing block
    // shifts into rows k..k+m-1. Writes land strictly below the packed
    // offsets they replace, and the factor shrinks within its own
    // storage (capacity is retained for future appends).
    std::size_t r2 = 0;
    for (std::size_t i = 0; i < m; ++i) {
        double *dst = fac_.data() + rowStart(k + i);
        for (std::size_t j = 0; j <= k + i; ++j)
            dst[j] = block[r2++];
    }
    --n_;
    fac_.resize(rowStart(n_));
    return true;
}

void
Cholesky::solveLowerBatch(Matrix &b) const
{
    const std::size_t n = n_;
    const std::size_t m = b.cols();
    assert(b.rows() == n);
    // Forward substitution over fixed-width column blocks. Within a
    // block, row i's partial sums live in a register-resident
    // accumulator for the whole k-loop, so each inner iteration
    // touches one factor entry and one 128-byte slice of an earlier
    // row — a working set that stays cache-resident where a
    // full-width sweep would re-stream the entire RHS matrix from L2
    // for every row. Per column the operation order (k ascending,
    // multiply-subtract, final divide) matches solveLower exactly, so
    // results are bit-identical to the scalar path at any block
    // geometry.
    if (m == 0 || n == 0)
        return;
    solveLowerPackedBatch(fac_.data(), n, &b(0, 0), m);
}

void
Cholesky::solveUpperBatch(Matrix &b) const
{
    const std::size_t n = n_;
    const std::size_t m = b.cols();
    assert(b.rows() == n);
    // Backward substitution over the same fixed-width column blocks as
    // solveLowerBatch; per column the operation order matches the
    // backward half of solve() exactly, so forward + backward on one
    // column is bit-identical to solve().
    if (m == 0 || n == 0)
        return;
    solveUpperPackedBatch(fac_.data(), n, &b(0, 0), m);
}

Matrix
Cholesky::lower() const
{
    Matrix out(n_, n_);
    for (std::size_t i = 0; i < n_; ++i)
        for (std::size_t j = 0; j <= i; ++j)
            out(i, j) = at(i, j);
    return out;
}

std::vector<double>
Cholesky::solveLower(const std::vector<double> &b) const
{
    const std::size_t n = n_;
    assert(b.size() == n);
    std::vector<double> y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double *ri = fac_.data() + rowStart(i);
        double s = b[i];
        for (std::size_t k = 0; k < i; ++k)
            s -= ri[k] * y[k];
        y[i] = s / ri[i];
    }
    return y;
}

std::vector<double>
Cholesky::solve(const std::vector<double> &b) const
{
    const std::size_t n = n_;
    std::vector<double> y = solveLower(b);
    // Backward substitution with L^T.
    std::vector<double> x(n, 0.0);
    for (std::size_t ii = n; ii > 0; --ii) {
        const std::size_t i = ii - 1;
        double s = y[i];
        for (std::size_t k = i + 1; k < n; ++k)
            s -= at(k, i) * x[k];
        x[i] = s / at(i, i);
    }
    return x;
}

double
Cholesky::logDet() const
{
    double s = 0.0;
    for (std::size_t i = 0; i < n_; ++i)
        s += std::log(at(i, i));
    return 2.0 * s;
}

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    assert(a.size() == b.size());
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += a[i] * b[i];
    return s;
}

double
squaredDistance(const std::vector<double> &a, const std::vector<double> &b)
{
    assert(a.size() == b.size());
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        s += d * d;
    }
    return s;
}

} // namespace archgym
