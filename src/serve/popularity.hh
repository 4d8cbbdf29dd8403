/**
 * @file
 * Zipfian key-popularity sampler (YCSB flavour).
 *
 * Implements the constant-time rejection-free Zipf draw of Gray et
 * al. ("Quickly generating billion-record synthetic databases"), the
 * same algorithm YCSB's ZipfianGenerator uses: the harmonic
 * normalizer zeta(n, theta) is computed once at construction, after
 * which each draw costs one uniform double and one pow(). Rank 0 is
 * the most popular key. theta = 0 degenerates to a uniform draw.
 *
 * Set-up stays bounded for any accepted keyspace: zeta is summed
 * term by term up to zetaExactTerms keys and taken from an
 * Euler–Maclaurin closed form past that.
 */

#ifndef KMU_SERVE_POPULARITY_HH
#define KMU_SERVE_POPULARITY_HH

#include <cstdint>

#include "common/random.hh"

namespace kmu
{
namespace serve
{

/** Keyspaces up to this size sum zeta term by term. */
constexpr std::uint64_t zetaExactTerms = std::uint64_t(1) << 24;

/** zeta(n, theta) = sum_{i=1..n} i^-theta, summed term by term. */
double zetaSum(std::uint64_t n, double theta);

/** zeta(n, theta) in O(1) for n > 64 and theta in (0, 1): the first
 *  63 terms plus an Euler–Maclaurin tail. */
double zetaClosedForm(std::uint64_t n, double theta);

class ZipfSampler
{
  public:
    /**
     * @param n      keyspace size (> 0).
     * @param theta  skew in [0, 1); 0 = uniform, YCSB default 0.99.
     */
    ZipfSampler(std::uint64_t n, double theta);

    /** Draw a key rank in [0, n); rank 0 is the hottest key. */
    std::uint64_t draw(Rng &rng) const;

    std::uint64_t keys() const { return n; }
    double skew() const { return theta; }

    /**
     * Expected probability of rank @p r under the fitted
     * distribution (1/r^theta normalized); test hook.
     */
    double rankProbability(std::uint64_t r) const;

  private:
    std::uint64_t n;
    double theta;
    double alpha = 0.0; //!< 1 / (1 - theta)
    double zetan = 0.0; //!< zeta(n, theta)
    double eta = 0.0;
};

} // namespace serve
} // namespace kmu

#endif // KMU_SERVE_POPULARITY_HH
