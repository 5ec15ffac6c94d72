/**
 * @file
 * Abstract interface the cache hierarchy uses to talk to main memory.
 *
 * The concrete implementation is memctl::MemController; tests substitute
 * simple fakes.
 */

#ifndef CNVM_MEM_MEM_BACKEND_HH
#define CNVM_MEM_MEM_BACKEND_HH

#include <functional>

#include "mem/packet.hh"

namespace cnvm
{

/**
 * Downstream memory interface with bounded write acceptance.
 *
 * Writes may be refused when the controller's write queues are full;
 * the caller registers a retry callback and tries again once notified.
 * Reads are always accepted (cores block on loads, so the read queue
 * can never be oversubscribed in this system).
 */
class MemBackend
{
  public:
    virtual ~MemBackend() = default;

    /**
     * Issues a line read; @p done fires when decrypted data is
     * available to fill the cache.
     */
    virtual void issueRead(Addr addr, ReadCallback done) = 0;

    /**
     * Attempts to hand a line write to the controller.
     * @return false when the controller cannot take the write now; the
     *         caller should register a retry callback.
     */
    virtual bool tryWrite(const WriteReq &req) = 0;

    /**
     * Attempts to issue a counter_cache_writeback() for the counter
     * line covering @p data_line_addr (paper section 4.3).
     * @return false when the counter write queue cannot take it.
     */
    virtual bool tryCtrWriteback(Addr data_line_addr,
                                 std::function<void()> accepted) = 0;

    /**
     * Registers a one-shot callback invoked when write-queue space may
     * have become available.
     */
    virtual void registerRetry(std::function<void()> retry) = 0;
};

} // namespace cnvm

#endif // CNVM_MEM_MEM_BACKEND_HH
