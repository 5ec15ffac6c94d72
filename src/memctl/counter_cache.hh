/**
 * @file
 * The on-chip counter cache (paper sections 2.2.1 and 5.2.1).
 *
 * Buffers counter lines (8 counters of 8 B covering 8 consecutive data
 * lines) so that OTP generation can overlap the memory read. Tracks a
 * dirty bit per line; in the SCA design dirty counter lines are the
 * updates whose persistence has been deferred.
 */

#ifndef CNVM_MEMCTL_COUNTER_CACHE_HH
#define CNVM_MEMCTL_COUNTER_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "nvm/nvm_device.hh"
#include "stats/stats.hh"

namespace cnvm
{

/** One resident counter line. */
struct CounterCacheLine
{
    Addr addr = 0;          //!< counter-line address
    bool valid = false;
    bool dirty = false;
    /** Which of the eight counters carry unpersisted updates. */
    std::uint8_t dirtyMask = 0;
    std::uint64_t lruStamp = 0;
    CounterLine values{};
};

/** A dirty counter line displaced by an allocation. */
struct CounterEviction
{
    Addr addr = 0;
    /** Which of the eight counters carry unpersisted updates. */
    std::uint8_t dirtyMask = 0;
    CounterLine values{};
};

/** Set-associative, LRU counter cache. */
class CounterCache
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
    CounterCacheLine *access(Addr ctr_line_addr);

    /** Looks up without LRU update. */
    CounterCacheLine *peek(Addr ctr_line_addr);

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
    std::optional<CounterEviction>
    install(Addr ctr_line_addr, const CounterLine &values,
            std::uint8_t dirty_mask);

    /** Drops all contents (power failure). */
    void reset();

    std::uint64_t validCount() const;
    std::uint64_t dirtyCount() const;

    // Stats are public so the controller can attribute hits/misses by
    // access type.
    stats::Scalar readHits;
    stats::Scalar readMisses;
    stats::Scalar writeHits;
    stats::Scalar writeMisses;
    stats::Scalar dirtyEvictions;

  private:
    std::uint64_t numSets;
    unsigned ways;
    unsigned indexShift = 0;
    std::uint64_t nextStamp = 1;
    std::vector<CounterCacheLine> lines;

    std::uint64_t setIndex(Addr addr) const;
};

} // namespace cnvm

#endif // CNVM_MEMCTL_COUNTER_CACHE_HH
