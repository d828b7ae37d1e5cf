/**
 * @file
 * Log-linear latency histogram for percentile reporting.
 *
 * HdrHistogram-style layout: values are bucketed by power-of-two
 * magnitude with a fixed number of linear sub-buckets per magnitude,
 * giving a bounded relative error (< 1/kSubBuckets) at every scale.
 */

#ifndef CHECKIN_SIM_HISTOGRAM_H_
#define CHECKIN_SIM_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace checkin {

/** Fixed-precision value histogram supporting quantile queries. */
class LatencyHistogram
{
  public:
    /** Linear sub-buckets per power-of-two magnitude. */
    static constexpr int kSubBucketBits = 6;
    static constexpr std::uint64_t kSubBuckets = 1ULL << kSubBucketBits;

    LatencyHistogram();

    /** Record one sample. */
    void record(std::uint64_t value);

    /** Record @p count identical samples. */
    void record(std::uint64_t value, std::uint64_t count);

    /** Total recorded samples. */
    std::uint64_t count() const { return count_; }

    /** Sum of all recorded samples (exact). */
    std::uint64_t sum() const { return sum_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Largest recorded sample (exact). */
    std::uint64_t max() const { return max_; }

    /** Smallest recorded sample (exact); 0 when empty. */
    std::uint64_t min() const { return count_ ? min_ : 0; }

    /**
     * Value at quantile @p q in [0, 1]; e.g. 0.999 for p99.9.
     * Returns an upper bound of the bucket containing the quantile.
     * Edge cases are exact: q <= 0 returns min(), q >= 1 returns
     * max(), and an empty histogram returns 0 for every q.
     */
    std::uint64_t quantile(double q) const;

    /** Merge another histogram into this one. */
    void merge(const LatencyHistogram &other);

    /** Drop all samples. */
    void reset();

    /** Same samples, bucket for bucket. */
    bool operator==(const LatencyHistogram &) const = default;

  private:
    static std::size_t bucketIndex(std::uint64_t value);
    static std::uint64_t bucketUpperBound(std::size_t index);

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
};

} // namespace checkin

#endif // CHECKIN_SIM_HISTOGRAM_H_
