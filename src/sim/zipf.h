/**
 * @file
 * Key-choice distributions used by the YCSB-style workload generator.
 */

#ifndef CHECKIN_SIM_ZIPF_H_
#define CHECKIN_SIM_ZIPF_H_

#include <cstdint>
#include <memory>

#include "sim/rng.h"

namespace checkin {

/** Abstract integer distribution over [0, itemCount). */
class KeyDistribution
{
  public:
    virtual ~KeyDistribution() = default;

    /** Draw the next item index. */
    virtual std::uint64_t next(Rng &rng) = 0;

    /** Number of items the distribution covers. */
    virtual std::uint64_t itemCount() const = 0;
};

/** Uniform distribution over [0, itemCount). */
class UniformDistribution : public KeyDistribution
{
  public:
    explicit UniformDistribution(std::uint64_t item_count);

    std::uint64_t next(Rng &rng) override;
    std::uint64_t itemCount() const override { return itemCount_; }

  private:
    std::uint64_t itemCount_;
};

/**
 * Zipfian distribution, YCSB-compatible.
 *
 * Implements the Gray et al. "Quickly generating billion-record
 * synthetic databases" rejection-free method used by YCSB's
 * ZipfianGenerator, including the default exponent 0.99. Item 0 is the
 * most popular; callers wanting scrambled popularity should hash the
 * result (see ScrambledZipfianDistribution).
 */
class ZipfianDistribution : public KeyDistribution
{
  public:
    static constexpr double kDefaultTheta = 0.99;

    explicit ZipfianDistribution(std::uint64_t item_count,
                                 double theta = kDefaultTheta);

    std::uint64_t next(Rng &rng) override;
    std::uint64_t itemCount() const override { return itemCount_; }

    double theta() const { return theta_; }

  private:
    static double zeta(std::uint64_t n, double theta);

    std::uint64_t itemCount_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double zeta2theta_;
    /** 0.5^theta, the item-1 threshold of next(). */
    double halfPowTheta_;
};

/**
 * Zipfian with scrambled item order (YCSB ScrambledZipfianGenerator):
 * popularity is Zipfian but hot items are spread over the key space.
 */
class ScrambledZipfianDistribution : public KeyDistribution
{
  public:
    explicit ScrambledZipfianDistribution(std::uint64_t item_count,
                                          double theta =
                                              ZipfianDistribution::
                                                  kDefaultTheta);

    std::uint64_t next(Rng &rng) override;
    std::uint64_t itemCount() const override { return itemCount_; }

  private:
    std::uint64_t itemCount_;
    ZipfianDistribution zipf_;
};

/**
 * "Latest" distribution (YCSB SkewedLatestGenerator): Zipfian over
 * recency, favouring the most recently inserted items.
 */
class LatestDistribution : public KeyDistribution
{
  public:
    explicit LatestDistribution(std::uint64_t item_count);

    std::uint64_t next(Rng &rng) override;
    std::uint64_t itemCount() const override { return itemCount_; }

  private:
    std::uint64_t itemCount_;
    ZipfianDistribution zipf_;
};

} // namespace checkin

#endif // CHECKIN_SIM_ZIPF_H_
