/**
 * @file
 * The live view: one core's program-order plaintext of every line it
 * touches. A store updates it as it retires into the L1; a writeback
 * reads the whole line from it as the line leaves the cache hierarchy.
 * It is functional (zero-time) state outside the timing model, and a
 * power failure persists none of it.
 *
 * System keeps one view per core, each built as a copy of that core's
 * shadow table, so the view and the shadow share every page until one
 * of them writes it (see LineTable): a line's plaintext is stored once
 * until the two diverge.
 */

#ifndef CNVM_MEM_LIVE_VIEW_HH
#define CNVM_MEM_LIVE_VIEW_HH

#include <cstring>
#include <utility>

#include "common/line_table.hh"
#include "common/logging.hh"

namespace cnvm
{

class LiveView
{
  public:
    LiveView() = default;

    /** A view holding @p lines; a table copied in shares its pages. */
    explicit LiveView(LineTable<LineData> lines) : lines(std::move(lines))
    {}

    /** The plaintext of @p line_addr: zeros if never stored to. */
    LineData
    read(Addr line_addr) const
    {
        cnvm_assert(isLineAligned(line_addr));
        const LineData *line = lines.find(line_addr);
        return line == nullptr ? LineData{} : *line;
    }

    /** Writes @p size bytes at @p byte_addr, within one line. */
    void
    store(Addr byte_addr, unsigned size, const std::uint8_t *bytes)
    {
        const Addr line_addr = lineAlign(byte_addr);
        cnvm_assert(byte_addr + size <= line_addr + lineBytes);
        std::memcpy(lines[line_addr].data() + (byte_addr - line_addr),
                    bytes, size);
    }

  private:
    LineTable<LineData> lines;
};

} // namespace cnvm

#endif // CNVM_MEM_LIVE_VIEW_HH
