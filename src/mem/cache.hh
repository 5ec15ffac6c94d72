/**
 * @file
 * The one set-associative cache structure behind every on-chip cache:
 * each core's private L1 and L2 (Cache, below) and each channel's
 * counter cache (memctl/counter_cache.hh). SetAssocCache owns the
 * frames, the lookup, the LRU stamps and the victim choice; the line
 * payload says what a resident line holds.
 *
 * The data caches hold tags and state only: a dirty bit, and a
 * counter-atomic bit recording that the line's pending update carries
 * the CounterAtomic annotation (paper section 4.3) so that its eventual
 * writeback is enforced as counter-atomic by the memory controller. A
 * line's program-order plaintext lives in its core's LiveView
 * (mem/live_view.hh), which a writeback snapshots as the line leaves
 * the hierarchy.
 *
 * These classes are purely structural (tags, state, LRU); all timing
 * lives in the CoreMemPath orchestration layer and the controller.
 */

#ifndef CNVM_MEM_CACHE_HH
#define CNVM_MEM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace cnvm
{

/** A line removed from a cache: its payload and its address. */
template <typename Line>
struct Victim : Line
{
    Addr addr = 0;
};

/**
 * Set-associative frames of 64 B lines with LRU replacement.
 *
 * A victim is the set's first free way; failing that, the way with the
 * lowest stamp. Stamps come from one counter per cache, which access()
 * and allocate() bump, peek() leaves alone and reset() restarts at 1.
 */
template <typename Line>
class SetAssocCache
{
  public:
    /**
     * @param name        names the cache in a geometry error
     * @param size_bytes  total capacity; must be a multiple of
     *                    assoc * lineBytes and index count a power of two
     * @param assoc       number of ways
     * @param index_shift line-index bits dropped before set selection
     *                    (0 unless every address the cache sees shares
     *                    its low line-index bits)
     */
    SetAssocCache(const std::string &name, std::uint64_t size_bytes,
                  unsigned assoc, unsigned index_shift = 0)
        : ways(assoc), indexShift(index_shift)
    {
        cnvm_assert(assoc > 0);
        cnvm_assert(size_bytes
                        % (static_cast<std::uint64_t>(assoc) * lineBytes)
                    == 0);
        numSets =
            size_bytes / (static_cast<std::uint64_t>(assoc) * lineBytes);
        if (!isPowerOf2(numSets))
            cnvm_fatal("cache '%s': set count %llu is not a power of two",
                       name.c_str(),
                       static_cast<unsigned long long>(numSets));
        tags.assign(numSets * ways, 0);
        stamps.assign(numSets * ways, 0);
        lines.resize(numSets * ways);
    }

    /** Looks a line up without touching LRU state. */
    Line *
    peek(Addr addr)
    {
        std::size_t frame = find(lineAlign(addr));
        return frame == absent ? nullptr : &lines[frame];
    }

    const Line *
    peek(Addr addr) const
    {
        std::size_t frame = find(lineAlign(addr));
        return frame == absent ? nullptr : &lines[frame];
    }

    /** Looks a line up and, on hit, makes it most recently used. */
    Line *
    access(Addr addr)
    {
        std::size_t frame = find(lineAlign(addr));
        if (frame == absent)
            return nullptr;
        stamps[frame] = nextStamp++;
        return &lines[frame];
    }

    /**
     * Allocates a frame holding @p line for @p addr (which must not be
     * resident), evicting the LRU victim of the set if every way is
     * valid.
     *
     * @return the victim, when one had to be displaced.
     */
    std::optional<Victim<Line>>
    allocate(Addr addr, const Line &line)
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

        std::optional<Victim<Line>> evicted;
        if (tags[victim] != 0)
            evicted = Victim<Line>{lines[victim], tags[victim] & ~validBit};
        tags[victim] = addr | validBit;
        stamps[victim] = nextStamp++;
        lines[victim] = line;
        return evicted;
    }

    /** Invalidates a line if present; returns its prior content. */
    std::optional<Victim<Line>>
    invalidate(Addr addr)
    {
        std::size_t frame = find(lineAlign(addr));
        if (frame == absent)
            return std::nullopt;
        Victim<Line> out{lines[frame], tags[frame] & ~validBit};
        tags[frame] = 0;
        return out;
    }

    /** Number of resident lines whose payload satisfies @p pred. */
    template <typename Pred>
    std::uint64_t
    countIf(Pred pred) const
    {
        std::uint64_t n = 0;
        for (std::size_t frame = 0; frame < tags.size(); ++frame)
            n += tags[frame] != 0 && pred(lines[frame]) ? 1 : 0;
        return n;
    }

    /** Number of valid lines currently resident. */
    std::uint64_t
    validCount() const
    {
        return countIf([](const Line &) { return true; });
    }

    std::uint64_t sizeBytes() const { return numSets * ways * lineBytes; }
    unsigned associativity() const { return ways; }
    std::uint64_t sets() const { return numSets; }

    /** Drops every line (used when modelling a power failure). */
    void
    reset()
    {
        std::fill(tags.begin(), tags.end(), Addr(0));
        nextStamp = 1;
    }

  private:
    /** Tag bit marking a resident frame; line addresses leave bit 0
     *  clear, and a free frame's tag is 0. */
    static constexpr Addr validBit = 1;

    /** find() result for a line that is not resident. */
    static constexpr std::size_t absent = ~std::size_t(0);

    std::uint64_t numSets;
    unsigned ways;
    unsigned indexShift;
    std::uint64_t nextStamp = 1;

    /**
     * Per-frame arrays, numSets * ways each, set-major. A lookup scans
     * only its set's row of tags (one 64 B row at 8 ways) and touches
     * the line itself only on a hit.
     */
    std::vector<Addr> tags;             //!< line address | validBit
    std::vector<std::uint64_t> stamps;  //!< LRU stamp
    std::vector<Line> lines;

    std::uint64_t
    setIndex(Addr addr) const
    {
        return ((addr / lineBytes) >> indexShift) & (numSets - 1);
    }

    /** Frame holding line-aligned @p line_addr, or absent. */
    std::size_t
    find(Addr line_addr) const
    {
        const std::size_t base = setIndex(line_addr) * ways;
        const Addr tag = line_addr | validBit;
        for (unsigned w = 0; w < ways; ++w) {
            if (tags[base + w] == tag)
                return base + w;
        }
        return absent;
    }
};

/**
 * The state of one resident data-cache line. Its address and LRU stamp
 * live in the cache's per-frame tag and stamp arrays; its plaintext in
 * the core's live view.
 */
struct CacheLine
{
    bool dirty = false;
    /** Pending update must be written back counter-atomically. */
    bool counterAtomic = false;
};

/** A private L1 or L2 data cache. */
using Cache = SetAssocCache<CacheLine>;

} // namespace cnvm

#endif // CNVM_MEM_CACHE_HH
