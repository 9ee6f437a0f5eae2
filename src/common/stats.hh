/**
 * @file
 * A tiny named-counter statistics registry, in the spirit of gem5's stats
 * package.  Components register scalar counters by name; reports iterate the
 * registry.  Counters are doubles so scaled (sampled) statistics stay exact.
 */

#ifndef TANGO_COMMON_STATS_HH
#define TANGO_COMMON_STATS_HH

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tango {

/** An ordered map of named scalar statistics with arithmetic helpers. */
class StatSet
{
  public:
    /** Add @p v to counter @p name (creating it at zero). */
    void add(const std::string &name, double v);

    /** Set counter @p name to @p v. */
    void set(const std::string &name, double v);

    /** set(), in O(1) when @p name sorts after every counter already
     *  present, as when reading a serialized (name-ordered) set. */
    void append(std::string_view name, double v)
    {
        stats_.insert_or_assign(stats_.end(), std::string(name), v);
    }

    /** @return value of @p name, or 0 if absent. */
    double get(const std::string &name) const;

    /** @return whether the counter exists. */
    bool has(const std::string &name) const;

    /** Accumulate every counter of @p other into this set. */
    void merge(const StatSet &other);

    /** Multiply every counter by @p factor (used by CTA sampling). */
    void scale(double factor);

    /** @return all counters in name order. */
    const std::map<std::string, double> &all() const { return stats_; }

    /** Sum of all counters whose name starts with @p prefix. */
    double sumPrefix(const std::string &prefix) const;

    /** Remove every counter. */
    void clear() { stats_.clear(); }

  private:
    std::map<std::string, double> stats_;
};

} // namespace tango

#endif // TANGO_COMMON_STATS_HH
