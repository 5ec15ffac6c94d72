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

  private:
    LineTable<LineData> lines;
};

} // namespace cnvm

#endif // CNVM_TXN_SHADOW_MEM_HH
