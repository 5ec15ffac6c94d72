/**
 * @file
 * Lightweight statistics package.
 *
 * Models own their stats as member objects and register them with the
 * system's StatRegistry; benches and tests read them back by name.
 */

#ifndef CNVM_STATS_STATS_HH
#define CNVM_STATS_STATS_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace cnvm::stats
{

class StatRegistry;

/** Base class: a named, self-describing statistic. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Primary numeric value of the stat (counters: the count). */
    virtual double value() const = 0;

    /** Resets the stat to its initial state. */
    virtual void reset() = 0;

    /** Writes "name value # desc" style lines. */
    virtual void dump(std::ostream &os) const;

  private:
    std::string _name;
    std::string _desc;
};

/**
 * A monotonically adjustable scalar counter.
 *
 * Accumulates in a uint64/double split: whole non-negative increments
 * land in an exact 64-bit integer, everything else in a double
 * remainder. A pure counter therefore never loses increments to
 * floating-point rounding — a double accumulator silently absorbs ++
 * once it passes 2^53 — while fractional adds keep their historical
 * behavior. value() (and hence dump()) still reports the combined
 * double, so the text format is unchanged.
 */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &
    operator++()
    {
        ++whole;
        return *this;
    }

    Scalar &
    operator+=(double v)
    {
        // Integer fast path: exact accumulation for counter-style
        // adds. 2^64 is the largest increment the integer half can
        // take without overflowing on its own.
        double ip;
        if (v >= 0 && std::modf(v, &ip) == 0.0 && ip < 18446744073709551616.0)
            whole += static_cast<std::uint64_t>(ip);
        else
            frac += v;
        return *this;
    }

    void
    set(double v)
    {
        whole = 0;
        frac = 0;
        *this += v;
    }

    double
    value() const override
    {
        return static_cast<double>(whole) + frac;
    }

    /**
     * The exact integer accumulation. For a stat only ever touched by
     * ++ and whole-valued +=, this is the exact count even past 2^53,
     * where value()'s double correctly rounds.
     */
    std::uint64_t
    exactCount() const
    {
        return whole;
    }

    void
    reset() override
    {
        whole = 0;
        frac = 0;
    }

  private:
    std::uint64_t whole = 0;
    double frac = 0;
};

/**
 * Fixed-width linear histogram with saturating overflow bucket;
 * also tracks count / sum / min / max for mean and extremes.
 */
class Histogram : public Stat
{
  public:
    /**
     * @param bucket_width width of each bucket
     * @param num_buckets  number of regular buckets before the overflow one
     */
    Histogram(std::string name, std::string desc,
              std::uint64_t bucket_width, std::size_t num_buckets);

    /** Records one sample. */
    void sample(std::uint64_t v);

    std::uint64_t count() const { return samples; }
    double mean() const { return samples ? sum / samples : 0.0; }
    std::uint64_t minValue() const { return samples ? minv : 0; }
    std::uint64_t maxValue() const { return maxv; }

    /** Count in bucket @p i (the last bucket collects overflow). */
    std::uint64_t bucketCount(std::size_t i) const { return buckets.at(i); }
    std::size_t numBuckets() const { return buckets.size(); }

    double value() const override { return mean(); }
    void reset() override;
    void dump(std::ostream &os) const override;

  private:
    std::uint64_t width;
    std::vector<std::uint64_t> buckets;
    std::uint64_t samples = 0;
    double sum = 0;
    std::uint64_t minv = 0;
    std::uint64_t maxv = 0;
};

/**
 * Owner of a system's stats. Stats register on construction via
 * registerStat() and must outlive the registry's last use.
 */
class StatRegistry
{
  public:
    /** Adds a stat; the name must be unique within the registry. */
    void registerStat(Stat &stat);

    /** Finds a stat by exact name; returns nullptr if absent. */
    const Stat *find(const std::string &name) const;

    /** Value of a named stat; fatal if the stat does not exist. */
    double lookup(const std::string &name) const;

    /** Dumps all stats in registration order. */
    void dump(std::ostream &os) const;

    const std::vector<Stat *> &all() const { return order; }

  private:
    std::map<std::string, Stat *> byName;
    std::vector<Stat *> order;
};

} // namespace cnvm::stats

#endif // CNVM_STATS_STATS_HH
