/**
 * @file
 * Address-to-channel interleaving map for the multi-channel memory
 * system.
 *
 * The address space is interleaved across N channels (N a power of
 * two) at *counter-block* granularity: one counter line covers
 * countersPerLine consecutive data lines (512 B), and the whole block
 * maps to one channel. Interleaving at plain cache-line granularity
 * would split a counter line's eight data lines across channels, so a
 * single counter-atomic pair would straddle controllers and every
 * counter write-back would have to be mirrored. With block-granule
 * interleaving each counter line, its eight data lines, and the MACs
 * over them are owned by exactly one channel — the cross-channel
 * ordering problem reduces to ordering *between* blocks, which the
 * shared PersistSequencer solves.
 *
 * Region layout (addresses are absolute):
 *   [0, counterRegionBase)                       data
 *   [counterRegionBase, 2*counterRegionBase)     counter store
 *   [2*counterRegionBase, ...)                   integrity-tree nodes
 *
 * A counter line at counterRegionBase + k*lineBytes covers the data
 * block at k*countersPerLine*lineBytes, and both map to channel
 * k & (channels-1): the map is co-location preserving by construction.
 */

#ifndef CNVM_MEM_CHANNEL_MAP_HH
#define CNVM_MEM_CHANNEL_MAP_HH

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace cnvm
{

struct ChannelMap
{
    unsigned channels = 1;
    Addr counterRegionBase = Addr(1) << 33;

    ChannelMap() = default;

    ChannelMap(unsigned channels_in, Addr counter_region_base)
        : channels(channels_in), counterRegionBase(counter_region_base)
    {
        cnvm_assert(isPowerOf2(channels));
        cnvm_assert(isLineAligned(counterRegionBase));
    }

    /** Bytes of one interleave granule in the data region. */
    static constexpr Addr dataGranule = Addr(countersPerLine) * lineBytes;

    /** The channel owning @p addr (data, counter, or tree region). */
    unsigned
    channelOf(Addr addr) const
    {
        if (channels == 1)
            return 0;
        if (addr >= counterRegionBase * 2) {
            // Tree-node region: line interleave above the region base.
            return static_cast<unsigned>(
                ((addr - counterRegionBase * 2) / lineBytes)
                & (channels - 1));
        }
        if (addr >= counterRegionBase) {
            // Counter line k covers data block k: same index, so the
            // same channel as the data it protects.
            return static_cast<unsigned>(
                ((addr - counterRegionBase) / lineBytes)
                & (channels - 1));
        }
        return static_cast<unsigned>((addr / dataGranule)
                                     & (channels - 1));
    }

    /**
     * The address a channel's integrity-tree epoch flush is billed to.
     * Distinct per channel so per-channel flush traffic lands on that
     * channel's own bank group.
     */
    Addr
    treeFlushAddr(unsigned channel) const
    {
        cnvm_assert(channel < channels);
        return counterRegionBase * 2 + Addr(channel) * lineBytes;
    }
};

} // namespace cnvm

#endif // CNVM_MEM_CHANNEL_MAP_HH
