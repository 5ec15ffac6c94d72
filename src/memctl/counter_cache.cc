#include "memctl/counter_cache.hh"

namespace cnvm
{

CounterCache::CounterCache(std::uint64_t size_bytes, unsigned assoc,
                           stats::StatRegistry *registry,
                           const std::string &stat_prefix,
                           unsigned index_shift)
    : SetAssocCache(stat_prefix, size_bytes, assoc, index_shift),
      readHits(stat_prefix + "read_hits", "counter cache read hits"),
      readMisses(stat_prefix + "read_misses", "counter cache read misses"),
      writeHits(stat_prefix + "write_hits", "counter cache write hits"),
      writeMisses(stat_prefix + "write_misses",
                  "counter cache write misses"),
      dirtyEvictions(stat_prefix + "dirty_evictions",
                     "dirty counter lines displaced")
{
    if (registry != nullptr) {
        registry->registerStat(readHits);
        registry->registerStat(readMisses);
        registry->registerStat(writeHits);
        registry->registerStat(writeMisses);
        registry->registerStat(dirtyEvictions);
    }
}

std::optional<Victim<CounterCacheLine>>
CounterCache::install(Addr ctr_line_addr, const CounterLine &values,
                      std::uint8_t dirty_mask)
{
    auto victim = allocate(ctr_line_addr, {dirty_mask, values});
    if (!victim || !victim->dirty())
        return std::nullopt;
    ++dirtyEvictions;
    return victim;
}

std::uint64_t
CounterCache::dirtyCount() const
{
    return countIf([](const CounterCacheLine &line) { return line.dirty(); });
}

} // namespace cnvm
