/**
 * @file
 * Set-associative writeback cache with the line state needed for
 * persistent-memory semantics: a dirty bit, and a counter-atomic bit
 * recording that the line's pending update carries the CounterAtomic
 * annotation (paper section 4.3) so that its eventual writeback is
 * enforced as counter-atomic by the memory controller.
 *
 * This class is purely structural (tags, data, LRU); all timing lives in
 * the CoreMemPath orchestration layer.
 */

#ifndef CNVM_MEM_CACHE_HH
#define CNVM_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "crypto/ctr_engine.hh"

namespace cnvm
{

/**
 * The state of one resident cache line. Its address and LRU stamp live
 * in the cache's per-frame tag and stamp arrays.
 */
struct CacheLine
{
    bool dirty = false;
    /** Pending update must be written back counter-atomically. */
    bool counterAtomic = false;
    LineData data{};
};

/** A victim line removed to make room for an allocation. */
struct Eviction
{
    Addr addr = 0;
    bool dirty = false;
    bool counterAtomic = false;
    LineData data{};
};

/**
 * Structural set-associative cache, LRU replacement, 64 B lines.
 */
class Cache
{
  public:
    /**
     * @param name        diagnostic name
     * @param size_bytes  total capacity; must be a multiple of
     *                    assoc * lineBytes and index count a power of two
     * @param assoc       number of ways
     */
    Cache(std::string name, std::uint64_t size_bytes, unsigned assoc);

    /** Looks a line up without touching LRU state. */
    CacheLine *peek(Addr addr);
    const CacheLine *peek(Addr addr) const;

    /** Looks a line up and, on hit, makes it most recently used. */
    CacheLine *access(Addr addr);

    /**
     * Allocates a frame for @p addr (which must not be resident),
     * evicting the LRU victim of the set if every way is valid.
     *
     * @return the victim, when one had to be displaced.
     */
    std::optional<Eviction> allocate(Addr addr, const LineData &fill);

    /** Invalidates a line if present; returns its prior content. */
    std::optional<Eviction> invalidate(Addr addr);

    /** Number of valid lines currently resident. */
    std::uint64_t validCount() const;

    std::uint64_t sizeBytes() const { return numSets * ways * lineBytes; }
    unsigned associativity() const { return ways; }
    std::uint64_t sets() const { return numSets; }
    const std::string &name() const { return cacheName; }

    /** Drops every line (used when modelling a power failure). */
    void reset();

  private:
    /** Tag bit marking a resident frame; line addresses leave bit 0
     *  clear, and a free frame's tag is 0. */
    static constexpr Addr validBit = 1;

    /** find() result for a line that is not resident. */
    static constexpr std::size_t absent = ~std::size_t(0);

    std::string cacheName;
    std::uint64_t numSets;
    unsigned ways;
    std::uint64_t nextStamp = 1;

    /**
     * Per-frame arrays, numSets * ways each, set-major. A lookup scans
     * only its set's row of tags (one 64 B row at 8 ways) and touches
     * the line itself only on a hit.
     */
    std::vector<Addr> tags;             //!< line address | validBit
    std::vector<std::uint64_t> stamps;  //!< LRU stamp
    std::vector<CacheLine> lines;

    std::uint64_t setIndex(Addr addr) const;

    /** Frame holding line-aligned @p line_addr, or absent. */
    std::size_t find(Addr line_addr) const;
};

} // namespace cnvm

#endif // CNVM_MEM_CACHE_HH
