/**
 * @file
 * YCSB-compatible workload definitions (paper §IV-A): workloads A, B,
 * C, F and the write-only workload WO, with uniform/zipfian/latest
 * request distributions and the mixed record-size patterns used by
 * the sector-aligned-journaling sensitivity study (Fig 13).
 */

#ifndef CHECKIN_WORKLOAD_YCSB_H_
#define CHECKIN_WORKLOAD_YCSB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/zipf.h"

namespace checkin {

/** Operation mix; proportions must sum to 1. */
struct WorkloadMix
{
    double read = 0.0;
    double update = 0.0;
    double readModifyWrite = 0.0;
    double scan = 0.0;
};

enum class Distribution : std::uint8_t
{
    Uniform,
    Zipfian, //!< scrambled zipfian (YCSB default request pattern)
    Latest,
};

const char *distributionName(Distribution d);

/** A complete workload description. */
struct WorkloadSpec
{
    std::string name = "workload-a";
    WorkloadMix mix{0.5, 0.5, 0.0};
    Distribution distribution = Distribution::Zipfian;
    /** Value sizes chosen uniformly per update. */
    std::vector<std::uint32_t> valueSizes{128, 256, 384, 512};
    /** Operations across all client threads. */
    std::uint64_t operationCount = 40'000;
    std::uint64_t seed = 42;
    /** Maximum scan length (scan lengths are uniform in [1, max]). */
    std::uint32_t maxScanLength = 64;

    // ------------------------------------------------------------------
    // YCSB presets (A, F and WO are the paper's evaluation set)
    // ------------------------------------------------------------------
    static WorkloadSpec a();  //!< 50 % read, 50 % update
    static WorkloadSpec b();  //!< 95 % read, 5 % update
    static WorkloadSpec c();  //!< 100 % read
    static WorkloadSpec d();  //!< 95 % read, 5 % update, latest dist
    static WorkloadSpec e();  //!< 95 % scan, 5 % update
    static WorkloadSpec f();  //!< 50 % read, 50 % read-modify-write
    static WorkloadSpec wo(); //!< write-only (100 % update)

    /** Mixed record-size patterns P1..P4 (Fig 13b), 1-based. */
    static std::vector<std::uint32_t>
    sizePattern(std::uint32_t pattern);
};

/** Draws operations of a WorkloadSpec. */
class WorkloadGenerator
{
  public:
    enum class OpType : std::uint8_t
    {
        Read,
        Update,
        Rmw,
        Scan,
        Delete, //!< not emitted by YCSB mixes; used by traces
    };

    struct Op
    {
        OpType type;
        std::uint64_t key;
        std::uint32_t valueBytes = 0; //!< for Update/Rmw
        std::uint32_t scanLength = 0; //!< for Scan

        bool operator==(const Op &) const = default;
    };

    WorkloadGenerator(const WorkloadSpec &spec,
                      std::uint64_t key_count);

    /** Draw the next operation. */
    Op next();

    /** Deterministic per-key initial value size (for load). */
    std::uint32_t initialSize(std::uint64_t key) const;

    Rng &rng() { return rng_; }

  private:
    WorkloadSpec spec_;
    std::uint64_t keyCount_;
    Rng rng_;
    std::unique_ptr<KeyDistribution> dist_;
};

} // namespace checkin

#endif // CHECKIN_WORKLOAD_YCSB_H_
