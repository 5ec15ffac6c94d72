#include "memctl/counter_cache.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace cnvm
{

CounterCache::CounterCache(std::uint64_t size_bytes, unsigned assoc,
                           stats::StatRegistry *registry,
                           const std::string &stat_prefix,
                           unsigned index_shift)
    : readHits(stat_prefix + "read_hits", "counter cache read hits"),
      readMisses(stat_prefix + "read_misses", "counter cache read misses"),
      writeHits(stat_prefix + "write_hits", "counter cache write hits"),
      writeMisses(stat_prefix + "write_misses",
                  "counter cache write misses"),
      dirtyEvictions(stat_prefix + "dirty_evictions",
                     "dirty counter lines displaced"),
      ways(assoc),
      indexShift(index_shift)
{
    cnvm_assert(assoc > 0);
    cnvm_assert(size_bytes % (static_cast<std::uint64_t>(assoc) * lineBytes)
                == 0);
    numSets = size_bytes / (static_cast<std::uint64_t>(assoc) * lineBytes);
    if (!isPowerOf2(numSets))
        cnvm_fatal("counter cache: set count %llu is not a power of two",
                   static_cast<unsigned long long>(numSets));
    lines.resize(numSets * ways);

    if (registry != nullptr) {
        registry->registerStat(readHits);
        registry->registerStat(readMisses);
        registry->registerStat(writeHits);
        registry->registerStat(writeMisses);
        registry->registerStat(dirtyEvictions);
    }
}

std::uint64_t
CounterCache::setIndex(Addr addr) const
{
    return ((addr / lineBytes) >> indexShift) & (numSets - 1);
}

CounterCacheLine *
CounterCache::peek(Addr ctr_line_addr)
{
    CounterCacheLine *base = &lines[setIndex(ctr_line_addr) * ways];
    for (unsigned w = 0; w < ways; ++w) {
        if (base[w].valid && base[w].addr == ctr_line_addr)
            return &base[w];
    }
    return nullptr;
}

CounterCacheLine *
CounterCache::access(Addr ctr_line_addr)
{
    CounterCacheLine *line = peek(ctr_line_addr);
    if (line != nullptr)
        line->lruStamp = nextStamp++;
    return line;
}

std::optional<CounterEviction>
CounterCache::install(Addr ctr_line_addr, const CounterLine &values,
                      std::uint8_t dirty_mask)
{
    cnvm_assert(peek(ctr_line_addr) == nullptr);

    CounterCacheLine *base = &lines[setIndex(ctr_line_addr) * ways];
    CounterCacheLine *victim = nullptr;
    for (unsigned w = 0; w < ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (victim == nullptr || base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }

    std::optional<CounterEviction> evicted;
    if (victim->valid && victim->dirty) {
        ++dirtyEvictions;
        evicted = CounterEviction{victim->addr, victim->dirtyMask,
                                  victim->values};
    }

    victim->addr = ctr_line_addr;
    victim->valid = true;
    victim->dirty = dirty_mask != 0;
    victim->dirtyMask = dirty_mask;
    victim->lruStamp = nextStamp++;
    victim->values = values;
    return evicted;
}

void
CounterCache::reset()
{
    for (CounterCacheLine &line : lines) {
        line.valid = false;
        line.dirty = false;
        line.dirtyMask = 0;
    }
    nextStamp = 1;
}

std::uint64_t
CounterCache::validCount() const
{
    std::uint64_t n = 0;
    for (const CounterCacheLine &line : lines)
        n += line.valid ? 1 : 0;
    return n;
}

std::uint64_t
CounterCache::dirtyCount() const
{
    std::uint64_t n = 0;
    for (const CounterCacheLine &line : lines)
        n += (line.valid && line.dirty) ? 1 : 0;
    return n;
}

} // namespace cnvm
