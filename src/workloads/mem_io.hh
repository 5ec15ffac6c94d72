/**
 * @file
 * MemIo implementations: transactional (measured run) and setup-time
 * (pre-population against the shadow).
 */

#ifndef CNVM_WORKLOADS_MEM_IO_HH
#define CNVM_WORKLOADS_MEM_IO_HH

#include <functional>

#include "common/intmath.hh"
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
 * Runs structure code at setup time: reads come from the shadow and
 * writes go through Workload::initWrite into it, so the pre-populated
 * structure lands in the shadow that System installs. The allocation
 * cursor is the same persistent field the transactional allocator uses.
 */
class SetupIo : public MemIo
{
  public:
    using WriteFn = std::function<void(Addr, std::uint64_t)>;

    SetupIo(const ShadowMem &shadow, WriteFn write, Addr cursor_addr,
            Addr pool_limit)
        : shadow(shadow), writeFn(std::move(write)),
          cursorAddr(cursor_addr), poolLimit(pool_limit)
    {}

    std::uint64_t readU64(Addr addr) override
    { return shadow.readU64(addr); }

    void writeU64(Addr addr, std::uint64_t v) override
    { writeFn(addr, v); }

    Addr
    allocNode(std::uint64_t bytes, std::uint64_t align) override
    {
        Addr cursor = shadow.readU64(cursorAddr);
        Addr aligned = roundUp(cursor, align);
        if (aligned + bytes > poolLimit)
            return 0;
        writeFn(cursorAddr, aligned + bytes);
        return aligned;
    }

  private:
    const ShadowMem &shadow;
    WriteFn writeFn;
    Addr cursorAddr;
    Addr poolLimit;
};

} // namespace cnvm

#endif // CNVM_WORKLOADS_MEM_IO_HH
