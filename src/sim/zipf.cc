#include "sim/zipf.h"

#include <cassert>
#include <cmath>

namespace checkin {

UniformDistribution::UniformDistribution(std::uint64_t item_count)
    : itemCount_(item_count)
{
    assert(item_count > 0);
}

std::uint64_t
UniformDistribution::next(Rng &rng)
{
    return rng.nextBounded(itemCount_);
}

ZipfianDistribution::ZipfianDistribution(std::uint64_t item_count,
                                         double theta)
    : itemCount_(item_count), theta_(theta)
{
    assert(item_count > 0);
    assert(theta > 0.0 && theta < 1.0);
    zetan_ = zeta(itemCount_, theta_);
    zeta2theta_ = zeta(2, theta_);
    halfPowTheta_ = std::pow(0.5, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / double(itemCount_), 1.0 - theta_)) /
           (1.0 - zeta2theta_ / zetan_);
}

double
ZipfianDistribution::zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(double(i), theta);
    return sum;
}

std::uint64_t
ZipfianDistribution::next(Rng &rng)
{
    const double u = rng.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + halfPowTheta_)
        return 1;
    const auto idx = std::uint64_t(
        double(itemCount_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return idx >= itemCount_ ? itemCount_ - 1 : idx;
}

ScrambledZipfianDistribution::ScrambledZipfianDistribution(
        std::uint64_t item_count, double theta)
    : itemCount_(item_count), zipf_(item_count, theta)
{
}

std::uint64_t
ScrambledZipfianDistribution::next(Rng &rng)
{
    return mix64(zipf_.next(rng)) % itemCount_;
}

LatestDistribution::LatestDistribution(std::uint64_t item_count)
    : itemCount_(item_count), zipf_(item_count)
{
}

std::uint64_t
LatestDistribution::next(Rng &rng)
{
    const std::uint64_t off = zipf_.next(rng);
    return itemCount_ - 1 - off;
}

} // namespace checkin
