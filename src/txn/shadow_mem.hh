/**
 * @file
 * Host-side plaintext mirror of a persistent region.
 *
 * The workload's source of truth while generating operation streams:
 * every transactional write updates the shadow at emission time, and
 * undo-log backups snapshot pre-transaction shadow content. After a
 * simulated crash, the recovered structure is compared against digests
 * taken from this shadow at commit points.
 *
 * The lines live in a LineTable, so a copy of table() shares every page
 * with the shadow: System builds each core's live view that way, and
 * the two hold one page until either side writes it (see LineTable).
 */

#ifndef CNVM_TXN_SHADOW_MEM_HH
#define CNVM_TXN_SHADOW_MEM_HH

#include <unordered_set>
#include <vector>

#include "common/line_table.hh"
#include "txn/byte_reader.hh"

namespace cnvm
{

class ShadowMem : public ByteReader
{
  public:
    void read(Addr addr, unsigned size, void *out) const override;

    /** Writes @p size bytes at @p addr; may cross lines. */
    void write(Addr addr, const void *data, unsigned size);

    void
    writeU64(Addr addr, std::uint64_t v)
    {
        write(addr, &v, sizeof(v));
    }

    /** Full line content (zeros if untouched). */
    LineData line(Addr line_addr) const;

    std::size_t touchedLines() const { return lines.size(); }

    /** Every touched line, in ascending address order. A copy shares
     *  its pages with the shadow until either side writes one. */
    const LineTable<LineData> &table() const { return lines; }

    /**
     * Visits every touched line in the order a std::unordered_map<Addr,
     * LineData> fed the same writes would iterate: bucket order, which
     * depends on the standard library's hash and growth policy, not on
     * the addresses' order. Simulated results depend on this order —
     * System::build warms the counter cache in it, and warming in
     * ascending address order instead changes the stats of every
     * counter-cache design (DESIGN.md section 4).
     *
     * The order is rebuilt from the first-touch record: inserting it,
     * in order, into a default-constructed std::unordered_set<Addr>
     * repeats the map's insertions, and libstdc++ lays out both
     * containers with the same hashtable, hash and rehash policy. Do
     * not reserve the set: a different bucket count is a different
     * order. Rebuilding costs a hash insert per line, so only the warm
     * calls this; everything else walks table(). The golden update
     * that makes the warm order explicit deletes the record and this
     * function.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        std::unordered_set<Addr> order;
        for (Addr addr : firstTouch)
            order.insert(addr);
        for (Addr addr : order)
            fn(addr, *lines.find(addr));
    }

  private:
    LineTable<LineData> lines;

    /** Each line's address, in the order a write first touched it. */
    std::vector<Addr> firstTouch;
};

} // namespace cnvm

#endif // CNVM_TXN_SHADOW_MEM_HH
