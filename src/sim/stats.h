/**
 * @file
 * Lightweight named-counter registry for simulation statistics.
 *
 * Modules register counters against a StatRegistry; the harness dumps
 * them after a run. Counters are plain uint64s addressed by name so
 * tests can assert on exact operation counts.
 *
 * Hot paths should intern() their counter names once (typically in
 * the owning module's constructor) and update through the returned
 * StatId: an interned add is a plain array index instead of a
 * std::map string lookup per event. The string-keyed calls take a
 * std::string_view and look it up heterogeneously, so they never
 * build a std::string except when creating a counter.
 */

#ifndef CHECKIN_SIM_STATS_H_
#define CHECKIN_SIM_STATS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace checkin {

/** Interned counter handle; stable for the registry's lifetime. */
using StatId = std::uint32_t;

/** Registry of named uint64 counters with interned fast handles. */
class StatRegistry
{
  public:
    /**
     * Intern @p name, creating the counter at zero. Idempotent: the
     * same name always returns the same id.
     */
    StatId
    intern(std::string_view name)
    {
        auto it = index_.lower_bound(name);
        if (it != index_.end() && it->first == name)
            return it->second;
        const StatId id = StatId(values_.size());
        index_.emplace_hint(it, std::string(name), id);
        values_.push_back(0);
        return id;
    }

    /** Add @p delta to the interned counter @p id. */
    void
    add(StatId id, std::uint64_t delta = 1)
    {
        values_[id] += delta;
    }

    /** Set the interned counter @p id to @p value. */
    void
    set(StatId id, std::uint64_t value)
    {
        values_[id] = value;
    }

    /** Read the interned counter @p id. */
    std::uint64_t get(StatId id) const { return values_[id]; }

    /** Add @p delta to counter @p name, creating it at zero. */
    void
    add(std::string_view name, std::uint64_t delta = 1)
    {
        values_[intern(name)] += delta;
    }

    /** Set counter @p name to @p value. */
    void
    set(std::string_view name, std::uint64_t value)
    {
        values_[intern(name)] = value;
    }

    /** Read counter @p name; zero when absent. */
    std::uint64_t
    get(std::string_view name) const
    {
        auto it = index_.find(name);
        return it == index_.end() ? 0 : values_[it->second];
    }

    /** All counters, sorted by name. */
    std::map<std::string, std::uint64_t>
    all() const
    {
        std::map<std::string, std::uint64_t> out;
        for (const auto &[name, id] : index_)
            out.emplace(name, values_[id]);
        return out;
    }

    /** Number of registered counters. */
    std::size_t size() const { return values_.size(); }

    /** Reset every counter to zero (names and ids are kept). */
    void
    reset()
    {
        for (std::uint64_t &v : values_)
            v = 0;
    }

    /** Render as "name = value" lines. */
    std::string dump(const std::string &prefix = "") const;

  private:
    /** Transparent comparator: string_view lookups, no temporaries. */
    std::map<std::string, StatId, std::less<>> index_;
    std::vector<std::uint64_t> values_;
};

/**
 * Counter of one registry, interned on its first update. Until it
 * fires the counter stays out of all()/dump(), exactly like a
 * string-keyed add; every later update is an array index. Use it
 * instead of interning in a constructor when the registry's key set
 * ends up in an artifact and the counter may never fire in a run.
 */
class LazyStat
{
  public:
    LazyStat(StatRegistry &stats, const char *name)
        : stats_(stats), name_(name)
    {
    }

    /** Add @p delta, creating the counter on the first call. */
    void
    add(std::uint64_t delta = 1)
    {
        if (id_ == kUnset)
            id_ = stats_.intern(name_);
        stats_.add(id_, delta);
    }

  private:
    static constexpr StatId kUnset = ~StatId{0};
    StatRegistry &stats_;
    const char *name_;
    StatId id_ = kUnset;
};

} // namespace checkin

#endif // CHECKIN_SIM_STATS_H_
