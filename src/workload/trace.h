/**
 * @file
 * Operation trace record/replay: capture a workload as a portable
 * text trace; a ClientPool (workload/client.h) replays it
 * deterministically against an engine. Useful for regression
 * pinning, cross-configuration comparisons on an identical request
 * stream, and importing external traces.
 */

#ifndef CHECKIN_WORKLOAD_TRACE_H_
#define CHECKIN_WORKLOAD_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/ycsb.h"

namespace checkin {

/** A replayable operation sequence. */
class Trace
{
  public:
    using Op = WorkloadGenerator::Op;

    Trace() = default;

    /** Record @p count operations drawn from @p spec. */
    static Trace generate(const WorkloadSpec &spec,
                          std::uint64_t key_count,
                          std::uint64_t count);

    void add(const Op &op) { ops_.push_back(op); }
    const std::vector<Op> &ops() const { return ops_; }
    std::size_t size() const { return ops_.size(); }

    /**
     * Serialize as one line per op:
     *   R <key>            read
     *   U <key> <bytes>    update
     *   M <key> <bytes>    read-modify-write
     *   S <key> <len>      scan
     *   D <key>            delete
     */
    void save(std::ostream &os) const;

    /**
     * Parse the text format. Unknown or malformed lines throw
     * std::invalid_argument; blank lines and '#' comments are
     * skipped.
     */
    static Trace load(std::istream &is);

    bool operator==(const Trace &) const = default;

  private:
    std::vector<Op> ops_;
};

} // namespace checkin

#endif // CHECKIN_WORKLOAD_TRACE_H_
