#include "serve/popularity.hh"

#include <cmath>

#include "common/logging.hh"

namespace kmu
{
namespace serve
{

double
zetaSum(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(double(i), theta);
    return sum;
}

double
zetaClosedForm(std::uint64_t n, double theta)
{
    // The first m - 1 terms exactly, then Euler–Maclaurin for
    // f(x) = x^-theta over [m, n] with Bernoulli terms through B6:
    //   sum_{i=m..n} f(i) = integral_m^n f + (f(m) + f(n)) / 2
    //       + (f'(n) - f'(m)) / 12 - (f'''(n) - f'''(m)) / 720
    //       + (f^(5)(n) - f^(5)(m)) / 30240 + R,
    // where R is of order f^(7)(m) / 1.2e6, under 1e-16 at m = 64.
    constexpr std::uint64_t m = 64;
    kmuAssert(n > m, "closed-form zeta needs more than %llu terms",
              (unsigned long long)m);
    const double a = double(m);
    const double b = double(n);
    // f^(k)(x) for odd k: -theta (theta + 1) ... (theta + k - 1)
    // x^(-theta - k).
    const auto derivative = [theta](double x, int k) {
        double c = theta;
        for (int j = 1; j < k; ++j)
            c *= theta + double(j);
        return -c * std::pow(x, -theta - double(k));
    };
    // integral_a^b x^-theta dx, without cancelling b^(1-theta)
    // against a^(1-theta) when theta is close to 1.
    const double integral =
        std::pow(a, 1.0 - theta) *
        std::expm1((1.0 - theta) * std::log(b / a)) / (1.0 - theta);
    const double tail =
        integral + (std::pow(a, -theta) + std::pow(b, -theta)) / 2.0 +
        (derivative(b, 1) - derivative(a, 1)) / 12.0 -
        (derivative(b, 3) - derivative(a, 3)) / 720.0 +
        (derivative(b, 5) - derivative(a, 5)) / 30240.0;
    return zetaSum(m - 1, theta) + tail;
}

namespace
{

double
zeta(std::uint64_t n, double theta)
{
    return n <= zetaExactTerms ? zetaSum(n, theta)
                               : zetaClosedForm(n, theta);
}

} // namespace

ZipfSampler::ZipfSampler(std::uint64_t keys, double skew)
    : n(keys), theta(skew)
{
    kmuAssert(n > 0, "zipf sampler needs a non-empty keyspace");
    kmuAssert(theta >= 0.0 && theta < 1.0,
              "zipf theta must be in [0, 1)");
    if (theta == 0.0)
        return; // uniform: no normalizer needed
    alpha = 1.0 / (1.0 - theta);
    zetan = zeta(n, theta);
    const double zeta2 = zeta(2 < n ? 2 : n, theta);
    eta = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
          (1.0 - zeta2 / zetan);
}

std::uint64_t
ZipfSampler::draw(Rng &rng) const
{
    if (theta == 0.0)
        return rng.nextBounded(n);
    const double u = rng.nextDouble();
    const double uz = u * zetan;
    if (uz < 1.0)
        return 0;
    if (n > 1 && uz < 1.0 + std::pow(0.5, theta))
        return 1;
    const double r =
        double(n) * std::pow(eta * u - eta + 1.0, alpha);
    std::uint64_t rank = std::uint64_t(r);
    if (rank >= n)
        rank = n - 1;
    return rank;
}

double
ZipfSampler::rankProbability(std::uint64_t r) const
{
    kmuAssert(r < n, "rank out of range");
    if (theta == 0.0)
        return 1.0 / double(n);
    return 1.0 / (std::pow(double(r + 1), theta) * zetan);
}

} // namespace serve
} // namespace kmu
