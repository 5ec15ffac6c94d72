/**
 * @file
 * Host-side plaintext mirror of a persistent region.
 *
 * The workload's source of truth while generating operation streams:
 * every transactional write updates the shadow at emission time, and
 * undo-log backups snapshot pre-transaction shadow content. After a
 * simulated crash, the recovered structure is compared against digests
 * taken from this shadow at commit points.
 */

#ifndef CNVM_TXN_SHADOW_MEM_HH
#define CNVM_TXN_SHADOW_MEM_HH

#include <unordered_map>

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

    /**
     * Visits every touched line in std::unordered_map iteration order:
     * bucket order, which depends on the standard library's hash and
     * growth policy, not on the addresses' order. Simulated results
     * depend on this order — System::build warms the counter cache in
     * it, and warming in ascending address order instead changes the
     * stats of every counter-cache design (DESIGN.md section 4). Keep
     * this container and order until a change that means to move the
     * timing model replaces both.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const auto &[addr, data] : lines)
            fn(addr, data);
    }

  private:
    std::unordered_map<Addr, LineData> lines;
};

} // namespace cnvm

#endif // CNVM_TXN_SHADOW_MEM_HH
