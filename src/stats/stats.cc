#include "stats/stats.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cnvm::stats
{

void
Stat::dump(std::ostream &os) const
{
    os << _name << " " << value() << " # " << _desc << "\n";
}

Histogram::Histogram(std::string name, std::string desc,
                     std::uint64_t bucket_width, std::size_t num_buckets)
    : Stat(std::move(name), std::move(desc)),
      width(bucket_width),
      buckets(num_buckets + 1, 0)
{
    cnvm_assert(bucket_width > 0);
    cnvm_assert(num_buckets > 0);
}

void
Histogram::sample(std::uint64_t v)
{
    std::size_t idx = std::min<std::size_t>(v / width, buckets.size() - 1);
    ++buckets[idx];
    ++samples;
    sum += static_cast<double>(v);
    if (samples == 1) {
        minv = maxv = v;
    } else {
        minv = std::min(minv, v);
        maxv = std::max(maxv, v);
    }
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    samples = 0;
    sum = 0;
    minv = 0;
    maxv = 0;
}

void
Histogram::dump(std::ostream &os) const
{
    os << name() << "::count " << samples << " # " << desc() << "\n";
    os << name() << "::mean " << mean() << "\n";
    // An unsampled histogram has no extremes: dump "-" instead of a
    // fabricated 0 (indistinguishable from a real zero-valued sample).
    if (samples == 0) {
        os << name() << "::min -\n";
        os << name() << "::max -\n";
    } else {
        os << name() << "::min " << minValue() << "\n";
        os << name() << "::max " << maxValue() << "\n";
    }
    // Per-bucket counts, the actual distribution; the saturating last
    // bucket dumps as ::overflow.
    for (std::size_t i = 0; i + 1 < buckets.size(); ++i) {
        os << name() << "::bucket_" << i << " " << buckets[i] << " # ["
           << i * width << ", " << (i + 1) * width << ")\n";
    }
    os << name() << "::overflow " << buckets.back() << " # [>= "
       << (buckets.size() - 1) * width << "]\n";
}

void
StatRegistry::registerStat(Stat &stat)
{
    auto [it, inserted] = byName.emplace(stat.name(), &stat);
    if (!inserted)
        cnvm_panic("duplicate stat name '%s'", stat.name().c_str());
    order.push_back(&stat);
}

const Stat *
StatRegistry::find(const std::string &name) const
{
    auto it = byName.find(name);
    return it == byName.end() ? nullptr : it->second;
}

double
StatRegistry::lookup(const std::string &name) const
{
    const Stat *stat = find(name);
    if (stat == nullptr)
        cnvm_fatal("unknown stat '%s'", name.c_str());
    return stat->value();
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const Stat *stat : order)
        stat->dump(os);
}

} // namespace cnvm::stats
