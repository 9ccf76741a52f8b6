#include "oracles/oracles.h"

#include <limits>

namespace archgym::oracle {

void
crossSquaredDistancesNaive(const double *a, const double *a_norms,
                           std::size_t na, const double *b,
                           const double *b_norms, std::size_t nb,
                           std::size_t dim, double *out)
{
    for (std::size_t i = 0; i < na; ++i) {
        const double *ai = a + i * dim;
        for (std::size_t j = 0; j < nb; ++j) {
            const double *bj = b + j * dim;
            double s = 0.0;
            for (std::size_t k = 0; k < dim; ++k)
                s += ai[k] * bj[k];
            const double d2 = (a_norms[i] + b_norms[j]) - 2.0 * s;
            out[i * nb + j] = d2 < 0.0 ? 0.0 : d2;
        }
    }
}

void
SeedBayesianOptAgent::refit()
{
    needFullFit_ = true;  // refactorize; never replay recorded edits
    BayesianOptAgent::refit();
}

Action
SeedBayesianOptAgent::selectByAcquisition()
{
    // Per-candidate scalar predicts, interleaved with candidate
    // generation (the RNG order the batched path must reproduce).
    const std::size_t localCands = hasBest_ ? numCandidates_ / 4 : 0;
    double bestAcq = -std::numeric_limits<double>::infinity();
    std::vector<double> bestCand;
    for (std::size_t c = 0; c < numCandidates_; ++c) {
        std::vector<double> cand;
        fillCandidate(cand, c, localCands);
        double mean, variance;
        gp_.predict(cand, mean, variance);
        const double a = acquisitionValue(mean, variance);
        if (a > bestAcq) {
            bestAcq = a;
            bestCand = std::move(cand);
        }
    }
    return space_.fromUnit(bestCand);
}

} // namespace archgym::oracle
