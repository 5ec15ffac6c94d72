/**
 * @file
 * Cross-channel persist ordering (the multi-queue atomicity idiom).
 *
 * Every write-queue entry on every channel draws its sequence number
 * from one shared PersistSequencer, so program persist order is a
 * single global total order even though the entries live in N
 * independent per-channel queues. The ADR drain contract ("the K
 * oldest queued entries survive a power failure") is then defined over
 * that global order: computeDrainKeeps() turns a global drop count
 * into a per-channel keep *prefix* — a commit record enqueued on
 * channel 0 after its undo entries on channel 3 can never be kept
 * while the undo entries are dropped, because its sequence number is
 * strictly larger.
 *
 * The simulation runs on one event queue, so one shared sequencer
 * handing out next++ needs no synchronization; determinism comes from
 * the event order, which is already deterministic.
 */

#ifndef CNVM_MEMCTL_PERSIST_SEQUENCER_HH
#define CNVM_MEMCTL_PERSIST_SEQUENCER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace cnvm
{

/** Monotonic sequence source for queue entries, one instance shared
 *  by every channel. */
class PersistSequencer
{
  public:
    std::uint64_t acquire() { return next++; }

  private:
    std::uint64_t next = 1;
};

/**
 * One channel's share of a global ADR cut: how many of its oldest data
 * entries and oldest counter entries drain before power is lost. Every
 * queued entry is ADR-ready (pairing inserts a data entry and its
 * counter values in one step), so keeps are always prefixes of the
 * per-channel queues in sequence order.
 */
struct AdrCut
{
    unsigned dataKeep = 0;
    unsigned ctrKeep = 0;
};

/** The queued (hence ADR-eligible) entries of one channel, by
 *  sequence. */
struct ChannelReady
{
    /** Sequence numbers of the data entries, ascending. */
    std::vector<std::uint64_t> dataSeqs;

    /** Sequence numbers of the counter entries, ascending. */
    std::vector<std::uint64_t> ctrSeqs;
};

/**
 * Computes the per-channel keep prefixes for a global ADR drain that
 * loses the @p drop youngest queued entries.
 *
 * The drain order: all data entries persist before any counter
 * entry, each class in global sequence order. Every power failure
 * takes its cut from here, at one channel or many; the tree rebuild
 * that follows the drain is the caller's.
 */
inline std::vector<AdrCut>
computeDrainKeeps(const std::vector<ChannelReady> &ready, unsigned drop)
{
    struct Tagged
    {
        std::uint64_t seq;
        unsigned channel;
    };

    std::vector<Tagged> data;
    std::vector<Tagged> ctr;
    for (unsigned c = 0; c < ready.size(); ++c) {
        for (std::size_t i = 0; i < ready[c].dataSeqs.size(); ++i) {
            cnvm_assert(i == 0 || ready[c].dataSeqs[i - 1]
                                      < ready[c].dataSeqs[i]);
            data.push_back({ready[c].dataSeqs[i], c});
        }
        for (std::size_t i = 0; i < ready[c].ctrSeqs.size(); ++i) {
            cnvm_assert(i == 0 || ready[c].ctrSeqs[i - 1]
                                      < ready[c].ctrSeqs[i]);
            ctr.push_back({ready[c].ctrSeqs[i], c});
        }
    }
    auto by_seq = [](const Tagged &a, const Tagged &b)
    { return a.seq < b.seq; };
    std::sort(data.begin(), data.end(), by_seq);
    std::sort(ctr.begin(), ctr.end(), by_seq);

    std::uint64_t total = data.size() + ctr.size();
    std::uint64_t budget = total - std::min<std::uint64_t>(drop, total);

    std::vector<AdrCut> cuts(ready.size());
    for (const Tagged &t : data) {
        if (budget == 0)
            break;
        ++cuts[t.channel].dataKeep;
        --budget;
    }
    for (const Tagged &t : ctr) {
        if (budget == 0)
            break;
        ++cuts[t.channel].ctrKeep;
        --budget;
    }
    return cuts;
}

} // namespace cnvm

#endif // CNVM_MEMCTL_PERSIST_SEQUENCER_HH
