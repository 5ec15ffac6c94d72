/**
 * @file
 * MemIo implementations: transactional (measured run) and setup-time
 * (pre-population on a flat copy of the region, flushed into the
 * shadow).
 */

#ifndef CNVM_WORKLOADS_MEM_IO_HH
#define CNVM_WORKLOADS_MEM_IO_HH

#include <cstring>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "workloads/workload.hh"

namespace cnvm
{

/** Runs structure code inside an undo-logging transaction. */
class TxIo : public MemIo
{
  public:
    TxIo(UndoTx &tx, PersistentAllocator &alloc) : tx(tx), alloc(alloc) {}

    std::uint64_t readU64(Addr addr) override { return tx.readU64(addr); }
    void writeU64(Addr addr, std::uint64_t v) override
    { tx.writeU64(addr, v); }

    Addr
    allocNode(std::uint64_t bytes, std::uint64_t align) override
    {
        return alloc.alloc(tx, bytes, align);
    }

  private:
    UndoTx &tx;
    PersistentAllocator &alloc;
};

/**
 * Runs structure code at setup time on a flat, zero-initialised copy of
 * the workload's region, so reads and writes are array accesses.
 * Construction seeds the copy with the lines the shadow already holds
 * inside the region (the log header and whatever doSetup wrote before:
 * allocator cursor, root, buckets). flush() hands each line written
 * since then to the caller once, whole, in ascending address order.
 * The builders pass it to Workload::initWrite, so the shadow ends up
 * with the lines and bytes direct 8-byte writes would leave. The
 * allocation cursor is the same persistent field the transactional
 * allocator uses.
 *
 * Every access must be 8-byte aligned and inside the region. The copy
 * is the size of the region and lives as long as this object.
 */
class SetupIo : public MemIo
{
  public:
    SetupIo(const ShadowMem &shadow, Addr region_base, Addr region_end,
            Addr cursor_addr, Addr pool_limit)
        : base(region_base), end(region_end), cursorAddr(cursor_addr),
          poolLimit(pool_limit),
          words(divCeil(region_end - region_base, lineBytes) * lineWords),
          written(words.size() / lineWords)
    {
        cnvm_assert(isLineAligned(region_base) && region_base <= region_end);
        shadow.table().forEach([&](Addr addr, const LineData &line) {
            if (addr >= base && addr < end)
                std::memcpy(&words[(addr - base) / 8], line.data(),
                            lineBytes);
        });
    }

    std::uint64_t readU64(Addr addr) override { return words[wordOf(addr)]; }

    void
    writeU64(Addr addr, std::uint64_t v) override
    {
        const std::size_t w = wordOf(addr);
        words[w] = v;
        written[w / lineWords] = true;
    }

    Addr
    allocNode(std::uint64_t bytes, std::uint64_t align) override
    {
        Addr cursor = readU64(cursorAddr);
        Addr aligned = roundUp(cursor, align);
        if (aligned + bytes > poolLimit)
            return 0;
        writeU64(cursorAddr, aligned + bytes);
        return aligned;
    }

    /** Calls fn(line_addr, bytes) once per line written since
     *  construction, in ascending address order; @p bytes points at
     *  the line's lineBytes bytes. */
    template <typename Fn>
    void
    flush(Fn &&fn) const
    {
        for (std::size_t line = 0; line < written.size(); ++line) {
            if (written[line])
                fn(base + line * lineBytes,
                   reinterpret_cast<const std::uint8_t *>(
                       &words[line * lineWords]));
        }
    }

  private:
    static constexpr unsigned lineWords = lineBytes / 8;

    std::size_t
    wordOf(Addr addr) const
    {
        cnvm_assert(addr % 8 == 0 && addr >= base && addr + 8 <= end);
        return (addr - base) / 8;
    }

    Addr base;
    Addr end;
    Addr cursorAddr;
    Addr poolLimit;

    /** The region, one 64-bit word per 8 bytes. */
    std::vector<std::uint64_t> words;

    /** Whether writeU64 has written each line of the region. */
    std::vector<bool> written;
};

} // namespace cnvm

#endif // CNVM_WORKLOADS_MEM_IO_HH
