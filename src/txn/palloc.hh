/**
 * @file
 * Crash-consistent bump allocator.
 *
 * The allocation cursor lives in a persistent meta line and is advanced
 * inside the caller's transaction, so an aborted transaction rolls the
 * cursor back together with the structural pointers that referenced the
 * new object — no leaks, no dangling pointers after recovery.
 */

#ifndef CNVM_TXN_PALLOC_HH
#define CNVM_TXN_PALLOC_HH

#include "common/intmath.hh"
#include "common/logging.hh"
#include "txn/undo_log.hh"

namespace cnvm
{

class PersistentAllocator
{
  public:
    /**
     * @param cursor_addr persistent location of the 8 B cursor
     * @param pool_base   first allocatable address
     * @param pool_limit  one past the last allocatable address
     */
    PersistentAllocator(Addr cursor_addr, Addr pool_base, Addr pool_limit)
        : cursorAddr(cursor_addr), poolBase(pool_base),
          poolLimit(pool_limit)
    {
        cnvm_assert(pool_base <= pool_limit);
    }

    /** Setup-time initialization of the cursor (outside any txn). */
    template <typename InitWriter>
    void
    initialize(InitWriter &&write)
    {
        std::uint64_t base = poolBase;
        write(cursorAddr, &base, sizeof(base));
    }

    /**
     * Allocates @p bytes within the caller's transaction.
     * @return the new object's address, or 0 when the pool is full.
     */
    Addr
    alloc(UndoTx &tx, std::uint64_t bytes, std::uint64_t align = lineBytes)
    {
        Addr cursor = tx.readU64(cursorAddr);
        Addr aligned = roundUp(cursor, align);
        if (aligned + bytes > poolLimit)
            return 0;
        tx.writeU64(cursorAddr, aligned + bytes);
        return aligned;
    }

    /** Pool capacity left given the current cursor (via @p reader). */
    std::uint64_t
    remaining(const ByteReader &reader) const
    {
        Addr cursor = reader.readU64(cursorAddr);
        return cursor >= poolLimit ? 0 : poolLimit - cursor;
    }

    Addr poolStart() const { return poolBase; }

  private:
    Addr cursorAddr;
    Addr poolBase;
    Addr poolLimit;
};

} // namespace cnvm

#endif // CNVM_TXN_PALLOC_HH
