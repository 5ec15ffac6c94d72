/**
 * @file
 * The on-chip counter cache (paper sections 2.2.1 and 5.2.1).
 *
 * Buffers counter lines (8 counters of 8 B covering 8 consecutive data
 * lines) so that OTP generation can overlap the memory read. Tracks a
 * dirty mask per line; in the SCA design dirty counter lines are the
 * updates whose persistence has been deferred.
 */

#ifndef CNVM_MEMCTL_COUNTER_CACHE_HH
#define CNVM_MEMCTL_COUNTER_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hh"
#include "mem/cache.hh"
#include "nvm/persist_image.hh"
#include "stats/stats.hh"

namespace cnvm
{

/**
 * One resident counter line. Its address and LRU stamp live in the
 * cache's per-frame tag and stamp arrays.
 */
struct CounterCacheLine
{
    /** Which of the eight counters carry unpersisted updates. */
    std::uint8_t dirtyMask = 0;
    CounterLine values{};

    bool dirty() const { return dirtyMask != 0; }
};

/** Set-associative, LRU counter cache. */
class CounterCache : private SetAssocCache<CounterCacheLine>
{
  public:
    /**
     * @param size_bytes  capacity; each entry models lineBytes of
     *                    counter storage
     * @param assoc       ways (paper: 16)
     * @param stat_prefix stat-name prefix; per-channel caches register
     *                    under distinct prefixes ("ctrcache.ch1." ...)
     * @param index_shift line-index bits dropped before set selection.
     *                    A channel-sharded cache only ever sees line
     *                    indices whose low log2(channels) bits equal
     *                    its channel id; indexing with them in place
     *                    would strand all but numSets/channels sets.
     *                    Pass log2(channels) to fold the constant bits
     *                    out (0 for an unsharded cache).
     */
    CounterCache(std::uint64_t size_bytes, unsigned assoc,
                 stats::StatRegistry *registry,
                 const std::string &stat_prefix = "ctrcache.ch0.",
                 unsigned index_shift = 0);

    /** Looks up a counter line; on hit refreshes LRU. */
    using SetAssocCache::access;

    /** Looks up without LRU update. */
    using SetAssocCache::peek;

    /**
     * Installs a counter line (must not be resident), returning the
     * dirty victim if one was displaced.
     *
     * @param dirty_mask which of the eight counters carry unpersisted
     *                   updates; 0 installs the line clean. The mask is
     *                   what a later eviction writes back, so it must
     *                   be exact at install time — a dirty writeback
     *                   sized by a stale mask inflates counter traffic.
     */
    std::optional<Victim<CounterCacheLine>>
    install(Addr ctr_line_addr, const CounterLine &values,
            std::uint8_t dirty_mask);

    /** Drops all contents (power failure). */
    using SetAssocCache::reset;

    using SetAssocCache::validCount;
    std::uint64_t dirtyCount() const;

    // Stats are public so the controller can attribute hits/misses by
    // access type.
    stats::Scalar readHits;
    stats::Scalar readMisses;
    stats::Scalar writeHits;
    stats::Scalar writeMisses;
    stats::Scalar dirtyEvictions;
};

} // namespace cnvm

#endif // CNVM_MEMCTL_COUNTER_CACHE_HH
