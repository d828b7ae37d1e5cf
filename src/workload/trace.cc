#include "workload/trace.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace checkin {

Trace
Trace::generate(const WorkloadSpec &spec, std::uint64_t key_count,
                std::uint64_t count)
{
    WorkloadGenerator gen(spec, key_count);
    Trace t;
    t.ops_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        t.ops_.push_back(gen.next());
    return t;
}

void
Trace::save(std::ostream &os) const
{
    using OpType = WorkloadGenerator::OpType;
    for (const Op &op : ops_) {
        switch (op.type) {
          case OpType::Read:
            os << "R " << op.key << "\n";
            break;
          case OpType::Update:
            os << "U " << op.key << " " << op.valueBytes << "\n";
            break;
          case OpType::Rmw:
            os << "M " << op.key << " " << op.valueBytes << "\n";
            break;
          case OpType::Scan:
            os << "S " << op.key << " " << op.scanLength << "\n";
            break;
          case OpType::Delete:
            os << "D " << op.key << "\n";
            break;
        }
    }
}

Trace
Trace::load(std::istream &is)
{
    using OpType = WorkloadGenerator::OpType;
    Trace t;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        char kind = 0;
        Op op;
        ls >> kind;
        auto bad = [&] {
            throw std::invalid_argument(
                "trace parse error at line " +
                std::to_string(lineno) + ": '" + line + "'");
        };
        switch (kind) {
          case 'R':
            op.type = OpType::Read;
            if (!(ls >> op.key))
                bad();
            break;
          case 'U':
            op.type = OpType::Update;
            if (!(ls >> op.key >> op.valueBytes))
                bad();
            break;
          case 'M':
            op.type = OpType::Rmw;
            if (!(ls >> op.key >> op.valueBytes))
                bad();
            break;
          case 'S':
            op.type = OpType::Scan;
            if (!(ls >> op.key >> op.scanLength))
                bad();
            break;
          case 'D':
            op.type = OpType::Delete;
            if (!(ls >> op.key))
                bad();
            break;
          default:
            bad();
        }
        t.ops_.push_back(op);
    }
    return t;
}

} // namespace checkin
