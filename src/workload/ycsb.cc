#include "workload/ycsb.h"

#include <stdexcept>

namespace checkin {

const char *
distributionName(Distribution d)
{
    switch (d) {
      case Distribution::Uniform: return "uniform";
      case Distribution::Zipfian: return "zipfian";
      case Distribution::Latest: return "latest";
    }
    return "?";
}

WorkloadSpec
WorkloadSpec::a()
{
    WorkloadSpec s;
    s.name = "ycsb-a";
    s.mix = {0.5, 0.5, 0.0};
    return s;
}

WorkloadSpec
WorkloadSpec::b()
{
    WorkloadSpec s;
    s.name = "ycsb-b";
    s.mix = {0.95, 0.05, 0.0};
    return s;
}

WorkloadSpec
WorkloadSpec::c()
{
    WorkloadSpec s;
    s.name = "ycsb-c";
    s.mix = {1.0, 0.0, 0.0};
    return s;
}

WorkloadSpec
WorkloadSpec::d()
{
    WorkloadSpec s;
    s.name = "ycsb-d";
    s.mix = {0.95, 0.05, 0.0, 0.0};
    s.distribution = Distribution::Latest;
    return s;
}

WorkloadSpec
WorkloadSpec::e()
{
    WorkloadSpec s;
    s.name = "ycsb-e";
    s.mix = {0.0, 0.05, 0.0, 0.95};
    return s;
}

WorkloadSpec
WorkloadSpec::f()
{
    WorkloadSpec s;
    s.name = "ycsb-f";
    s.mix = {0.5, 0.0, 0.5};
    return s;
}

WorkloadSpec
WorkloadSpec::wo()
{
    WorkloadSpec s;
    s.name = "ycsb-wo";
    s.mix = {0.0, 1.0, 0.0};
    return s;
}

std::vector<std::uint32_t>
WorkloadSpec::sizePattern(std::uint32_t pattern)
{
    switch (pattern) {
      case 1: // small values only
        return {128, 256, 384, 512};
      case 2: // small to medium
        return {128, 256, 384, 512, 768, 1024};
      case 3: // medium to large
        return {512, 1024, 2048, 4096};
      case 4: // full range
        return {128, 256, 384, 512, 768, 1024, 1536, 2048, 3072,
                4096};
      default:
        throw std::invalid_argument("size pattern must be 1..4");
    }
}

WorkloadGenerator::WorkloadGenerator(const WorkloadSpec &spec,
                                     std::uint64_t key_count)
    : spec_(spec), keyCount_(key_count), rng_(spec.seed)
{
    // Every key chooser draws from [0, key_count): an empty key space
    // has nothing to draw, in every build type.
    if (key_count == 0)
        throw std::invalid_argument("workload needs at least one key");
    switch (spec_.distribution) {
      case Distribution::Uniform:
        dist_ = std::make_unique<UniformDistribution>(key_count);
        break;
      case Distribution::Zipfian:
        dist_ = std::make_unique<ScrambledZipfianDistribution>(
            key_count);
        break;
      case Distribution::Latest:
        dist_ = std::make_unique<LatestDistribution>(key_count);
        break;
    }
}

WorkloadGenerator::Op
WorkloadGenerator::next()
{
    Op op;
    op.key = dist_->next(rng_);
    const double roll = rng_.nextDouble();
    if (roll < spec_.mix.read) {
        op.type = OpType::Read;
    } else if (roll < spec_.mix.read + spec_.mix.update) {
        op.type = OpType::Update;
    } else if (roll < spec_.mix.read + spec_.mix.update +
                          spec_.mix.readModifyWrite) {
        op.type = OpType::Rmw;
    } else {
        op.type = OpType::Scan;
        op.scanLength = std::uint32_t(
            1 + rng_.nextBounded(spec_.maxScanLength));
    }
    if (op.type == OpType::Update || op.type == OpType::Rmw) {
        op.valueBytes = spec_.valueSizes[rng_.nextBounded(
            spec_.valueSizes.size())];
    }
    return op;
}

std::uint32_t
WorkloadGenerator::initialSize(std::uint64_t key) const
{
    return spec_.valueSizes[mix64(key ^ spec_.seed) %
                            spec_.valueSizes.size()];
}

} // namespace checkin
