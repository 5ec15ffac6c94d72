/**
 * @file
 * Request types exchanged between the cache hierarchy and the memory
 * controller.
 */

#ifndef CNVM_MEM_PACKET_HH
#define CNVM_MEM_PACKET_HH

#include <cstdint>
#include <functional>

#include "common/types.hh"
#include "crypto/ctr_engine.hh"

namespace cnvm
{

/**
 * A full-line write travelling from a cache to the memory controller,
 * either a clwb-induced writeback or a dirty eviction.
 */
struct WriteReq
{
    /** Line-aligned address of the data line. */
    Addr addr = 0;

    /** Plaintext contents of the line at writeback time. */
    LineData data{};

    /**
     * True when the line holds a CounterAtomic-annotated update: its
     * data and counter must persist atomically (paper section 4.3).
     */
    bool counterAtomic = false;

    /**
     * Invoked when the write has been accepted into the ADR-protected
     * persistence domain; for counter-atomic writes this additionally
     * requires the ready-bit pairing to have completed. May be empty
     * (dirty evictions do not gate any fence).
     */
    std::function<void()> accepted;
};

/** Completion callback for a read: fires when decrypted data is ready. */
using ReadCallback = std::function<void()>;

} // namespace cnvm

#endif // CNVM_MEM_PACKET_HH
