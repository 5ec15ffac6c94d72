/**
 * @file
 * Undo-logging transactions with the paper's selective counter-atomicity
 * primitives (sections 4.2, 4.3, Figure 9, Table 1).
 *
 * A transaction proceeds in three stages separated by persist barriers:
 *
 *   Prepare — the touched lines are backed up into the per-thread log
 *     (header + descriptors + whole-line backups, protected by a
 *     checksum); the writes are ordinary stores followed by clwb,
 *     counter_cache_writeback() and an sfence. The header's `valid`
 *     field is a CounterAtomic variable: the store that publishes it is
 *     annotated so its line writes back counter-atomically.
 *
 *   Mutate — the data structure is modified in place; again ordinary
 *     stores + clwb + counter_cache_writeback() + sfence. Torn lines in
 *     this stage are harmless: recovery rolls them back from the log.
 *
 *   Commit — a single CounterAtomic store flips `valid` to the invalid
 *     marker, atomically switching the recoverable version from the log
 *     to the in-place data. This is the only write whose
 *     counter-atomicity the SCA design must strictly enforce.
 */

#ifndef CNVM_TXN_UNDO_LOG_HH
#define CNVM_TXN_UNDO_LOG_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/intmath.hh"
#include "cpu/op.hh"
#include "txn/shadow_mem.hh"

namespace cnvm
{

/**
 * Placement of one per-thread undo log inside the persistent region.
 *
 * Layout:
 *   base + 0                         header line
 *   base + 64                        descriptor area (maxLines * 8 B,
 *                                    line-aligned)
 *   base + 64 + descBytes            backup area (maxLines lines)
 */
struct LogLayout
{
    /** Header field identifying an initialized log. */
    static constexpr std::uint64_t kMagic = 0x314741564d4e4331ull;
    /** `valid` marker: a backed-up transaction may be in flight. */
    static constexpr std::uint64_t kValid = 0x21212144494c4156ull;
    /** `valid` marker: no transaction holds a live backup. */
    static constexpr std::uint64_t kInvalid = 0x0044494c41564e49ull;

    Addr base = 0;
    unsigned maxLines = 0;

    Addr headerAddr() const { return base; }
    Addr magicAddr() const { return base; }
    Addr validAddr() const { return base + 8; }
    Addr txnIdAddr() const { return base + 16; }
    Addr countAddr() const { return base + 24; }
    Addr checksumAddr() const { return base + 32; }

    Addr descBase() const { return base + lineBytes; }
    Addr descAddr(unsigned i) const { return descBase() + i * 8; }
    std::uint64_t
    descBytes() const
    {
        return roundUp(static_cast<std::uint64_t>(maxLines) * 8, lineBytes);
    }

    Addr backupBase() const { return descBase() + descBytes(); }
    Addr backupAddr(unsigned i) const
    { return backupBase() + static_cast<Addr>(i) * lineBytes; }

    /** Total footprint of the log. */
    std::uint64_t
    sizeBytes() const
    {
        return lineBytes + descBytes()
             + static_cast<std::uint64_t>(maxLines) * lineBytes;
    }
};

/**
 * One undo-logging transaction: collects reads (for timing), deferred
 * writes, then emits the staged operation stream at commit().
 */
class UndoTx
{
  public:
    /**
     * @param shadow the thread's live program-order state
     * @param log    the thread's log placement
     */
    UndoTx(ShadowMem &shadow, const LogLayout &log);

    /** Starts a transaction with the given id (monotonic per thread). */
    void begin(std::uint64_t txn_id);

    /** Read with read-your-writes semantics; emits a timing load once
     *  per line per transaction. */
    void read(Addr addr, unsigned size, void *out);
    std::uint64_t readU64(Addr addr);

    /** Deferred transactional write (applied to shadow at commit). */
    void write(Addr addr, const void *data, unsigned size);
    void writeU64(Addr addr, std::uint64_t v);

    /** Adds application compute time to the transaction. */
    void compute(Cycles cycles);

    /**
     * Emits the complete staged op stream for this transaction into
     * @p out and applies the deferred writes to the shadow.
     */
    void commit(std::vector<Op> &out);

    /** Lines that will be (were) logged by this transaction. */
    unsigned touchedLines() const
    { return static_cast<unsigned>(lines.size()); }

  private:
    ShadowMem &shadow;
    LogLayout log;

    std::uint64_t txnId = 0;
    bool active = false;

    /** Deferred byte-granularity writes, program order preserved by
     *  last-writer-wins per byte. */
    std::map<Addr, std::uint8_t> pendingBytes;

    /** Touched (to-be-logged) data lines in first-touch order. */
    std::vector<Addr> lines;
    std::set<Addr> lineSet;

    /** Lines already charged with a timing load this transaction. */
    std::set<Addr> loadedLines;

    /** Ops accumulated before commit (loads, compute). */
    std::vector<Op> preOps;

    void touchLine(Addr line_addr);
    void emitLoad(Addr addr);

    /** Merged (shadow + pending) content of a touched line. */
    LineData mergedLine(Addr line_addr) const;
};

/**
 * Computes the log checksum over (txn id, count, descriptors, backups)
 * as read through @p reader. Shared by commit-time generation and
 * recovery-time verification.
 */
std::uint64_t logChecksum(const ByteReader &reader, const LogLayout &log,
                          std::uint64_t txn_id, std::uint64_t count);

} // namespace cnvm

#endif // CNVM_TXN_UNDO_LOG_HH
