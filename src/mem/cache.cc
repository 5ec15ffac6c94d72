#include "mem/cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace cnvm
{

Cache::Cache(std::string name, std::uint64_t size_bytes, unsigned assoc)
    : cacheName(std::move(name)), ways(assoc)
{
    cnvm_assert(assoc > 0);
    cnvm_assert(size_bytes % (static_cast<std::uint64_t>(assoc) * lineBytes)
                == 0);
    numSets = size_bytes / (static_cast<std::uint64_t>(assoc) * lineBytes);
    if (!isPowerOf2(numSets))
        cnvm_fatal("cache '%s': set count %llu is not a power of two",
                   cacheName.c_str(),
                   static_cast<unsigned long long>(numSets));
    tags.assign(numSets * ways, 0);
    stamps.assign(numSets * ways, 0);
    lines.resize(numSets * ways);
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr / lineBytes) & (numSets - 1);
}

std::size_t
Cache::find(Addr line_addr) const
{
    const std::size_t base = setIndex(line_addr) * ways;
    const Addr tag = line_addr | validBit;
    for (unsigned w = 0; w < ways; ++w) {
        if (tags[base + w] == tag)
            return base + w;
    }
    return absent;
}

CacheLine *
Cache::peek(Addr addr)
{
    std::size_t frame = find(lineAlign(addr));
    return frame == absent ? nullptr : &lines[frame];
}

const CacheLine *
Cache::peek(Addr addr) const
{
    std::size_t frame = find(lineAlign(addr));
    return frame == absent ? nullptr : &lines[frame];
}

CacheLine *
Cache::access(Addr addr)
{
    std::size_t frame = find(lineAlign(addr));
    if (frame == absent)
        return nullptr;
    stamps[frame] = nextStamp++;
    return &lines[frame];
}

std::optional<Eviction>
Cache::allocate(Addr addr, const LineData &fill)
{
    addr = lineAlign(addr);
    cnvm_assert(find(addr) == absent);

    const std::size_t base = setIndex(addr) * ways;
    std::size_t victim = absent;
    for (std::size_t frame = base; frame < base + ways; ++frame) {
        if (tags[frame] == 0) {
            victim = frame;
            break;
        }
        if (victim == absent || stamps[frame] < stamps[victim])
            victim = frame;
    }

    CacheLine &line = lines[victim];
    std::optional<Eviction> evicted;
    if (tags[victim] != 0) {
        evicted = Eviction{tags[victim] & ~validBit, line.dirty,
                           line.counterAtomic, line.data};
    }

    tags[victim] = addr | validBit;
    stamps[victim] = nextStamp++;
    line.dirty = false;
    line.counterAtomic = false;
    line.data = fill;
    return evicted;
}

std::optional<Eviction>
Cache::invalidate(Addr addr)
{
    std::size_t frame = find(lineAlign(addr));
    if (frame == absent)
        return std::nullopt;
    const CacheLine &line = lines[frame];
    Eviction out{tags[frame] & ~validBit, line.dirty, line.counterAtomic,
                 line.data};
    tags[frame] = 0;
    return out;
}

std::uint64_t
Cache::validCount() const
{
    std::uint64_t n = 0;
    for (Addr tag : tags)
        n += tag != 0 ? 1 : 0;
    return n;
}

void
Cache::reset()
{
    std::fill(tags.begin(), tags.end(), Addr(0));
    nextStamp = 1;
}

} // namespace cnvm
