/**
 * @file
 * The persisted half of the NVM device, separated from the timing
 * model so it can be snapshotted.
 *
 * By the paper's recovery model (section 2.2.2), a power failure
 * discards every volatile structure; what recovery works from is
 * exactly the persisted ciphertext image, the persisted counter store,
 * and (simulator-only) the ground-truth record of which counter each
 * ciphertext was encrypted with. PersistImage bundles that state and
 * is the one type the recovery engine, the crash oracle and the
 * integrity tree read it through, so the same classification code
 * runs against the live device after an in-place crash *and* against
 * a PersistFork captured from a still-running trunk simulation.
 */

#ifndef CNVM_NVM_PERSIST_IMAGE_HH
#define CNVM_NVM_PERSIST_IMAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/line_table.hh"
#include "common/types.hh"

namespace cnvm
{

/** Values of one persisted counter line (8 counters of 8 B). */
using CounterLine = std::array<std::uint64_t, countersPerLine>;

/**
 * The state that survives a power failure: ciphertext image, counter
 * store, and the oracle's cipher-counter record. Copyable — a copy
 * shares every line-table page with its source, and whichever side
 * then writes a shared page copies that page first (see LineTable). A
 * copy costs the page directories; each side pays for the pages it
 * writes afterwards, not for the touched footprint.
 */
class PersistImage
{
  public:
    // ------------------------------------------------------------------
    // Drain-time mutation
    // ------------------------------------------------------------------

    /**
     * Applies a drained data write to the persisted ciphertext image.
     *
     * @param cipher_counter the counter the ciphertext was encrypted
     *        with (0 for unencrypted designs). Simulator-only ground
     *        truth: the crash oracle compares it against the persisted
     *        counter store to detect counter/data divergence without
     *        having to guess from garbage plaintext.
     */
    void drainData(Addr line_addr, const LineData &ciphertext,
                   std::uint64_t cipher_counter = 0);

    /** Applies a drained counter-line write to the counter store. */
    void drainCounters(Addr ctr_line_addr, const CounterLine &values);

    /**
     * Stores the integrity MAC persisted alongside a line's write
     * burst (ECC spare bits). Called by the controller right after
     * drainData() when integrity metadata is enabled; the line must
     * already be drained.
     */
    void drainMac(Addr line_addr, std::uint64_t mac);

    /**
     * Stores one integrity-tree node (the controller's lazy epoch
     * write-back, the crash flush, or recovery's reconstruction). A
     * node already persisted with @p hash is left alone, so a flush
     * that rebuilds the whole tree writes — and unshares from a copy —
     * only the pages of nodes that changed.
     */
    void drainTreeNode(unsigned level, std::uint64_t index,
                       std::uint64_t hash);

    /** Stores the integrity-tree root — always written last. */
    void drainTreeRoot(std::uint64_t hash);

    // ------------------------------------------------------------------
    // Fault injection (FaultModel only)
    // ------------------------------------------------------------------

    /**
     * Replaces a persisted line's ciphertext with corrupted bits and
     * marks the line faulted. The MAC and the oracle's cipher-counter
     * record are left alone: media corruption changes the stored
     * cells, not the history of what was written to them.
     */
    void corruptDataLine(Addr line_addr, const LineData &corrupted);

    /**
     * Overwrites one counter-store word and marks the covered data
     * line (@p data_line_addr) faulted.
     */
    void corruptCounterSlot(Addr ctr_line_addr, unsigned slot,
                            std::uint64_t value, Addr data_line_addr);

    /**
     * Re-installs the stale-but-valid triple recorded the last time
     * @p line_addr was overwritten at a new counter: the old
     * ciphertext, the old MAC word (0 if none was stored), and the old
     * counter value written back into the store word (@p ctr_line_addr
     * / @p slot). The whole triple is internally consistent, so the
     * per-line MAC verifies — only the integrity tree can tell the
     * counter was rolled back.
     *
     * Returns false (and changes nothing) when the line was never
     * overwritten, or when the recorded counter equals the currently
     * stored one — a no-op replay would be undetectable *and*
     * harmless, so the fault model skips it. The line is deliberately
     * NOT marked faulted: a replay is the stealthy case the faulted
     * ground truth must not conflate with media corruption.
     */
    bool replayLine(Addr line_addr, Addr ctr_line_addr, unsigned slot);

    /**
     * Every data line with a recorded stale triple, ascending — the
     * fault model's replay-victim candidate list.
     */
    std::vector<Addr> replayableLineAddrs() const;

    // ------------------------------------------------------------------
    // Persisted-state reads (recovery, the crash oracle, the tree)
    // ------------------------------------------------------------------

    /**
     * Persisted ciphertext of a line, or nullptr if never written
     * (never-written lines decrypt as all-zero plaintext at counter 0).
     */
    const LineData *persistedLine(Addr line_addr) const;

    /** Persisted counter-line values (zeros if never written). */
    CounterLine persistedCounters(Addr ctr_line_addr) const;

    /**
     * Ground truth for the crash oracle: the counter the persisted
     * ciphertext of @p line_addr was encrypted with (0 if the line was
     * never drained). A recovered line is decryptable iff this equals
     * the matching slot of persistedCounters().
     */
    std::uint64_t persistedCipherCounter(Addr line_addr) const;

    /**
     * Persisted integrity MAC word of a line, or nullptr only when the
     * line was never drained. A drained line's word reads 0 until
     * drainMac() stores a MAC (with integrity metadata disabled it
     * stays 0), so readers check whether MACs are on before trusting
     * it. Modeled as ECC-spare-bit storage updated atomically with the
     * line's own write burst, so it costs no extra bus traffic.
     */
    const std::uint64_t *persistedMac(Addr line_addr) const;

    /**
     * Simulator-only ground truth: true when an injected media fault
     * corrupted this data line (its ciphertext, or the counter word
     * covering it). Recovery code must never consult this — it exists
     * so the oracle can tell silent corruption from detected.
     */
    bool lineFaulted(Addr line_addr) const;

    /**
     * Simulator-only ground truth: true when an injected replay fault
     * re-installed a stale-but-valid triple on this data line. Like
     * lineFaulted(), recovery code must never consult this — the
     * oracle uses it to tell a silent replay from a detected one.
     */
    bool lineReplayed(Addr line_addr) const;

    /**
     * Persisted integrity-tree node at (@p level, @p index), or
     * nullptr when none was written (tree disabled, or the subtree
     * untouched — an absent subtree hashes to its zero constant).
     */
    const std::uint64_t *persistedTreeNode(unsigned level,
                                           std::uint64_t index) const;

    /** Persisted tree root, or nullptr when never flushed. */
    const std::uint64_t *persistedTreeRoot() const;

    /** Ascending indices of the persisted level-1 (counter-block) tree
     *  nodes — rebuildTree()'s interior recomputation domain. */
    std::vector<std::uint64_t> persistedTreeLeafIndices() const;

    /**
     * Visits every persisted counter line as fn(ctr_line_addr, values),
     * in ascending address order. The integrity tree hashes the
     * counter store with it, and the controller's re-seed models
     * recovery's counter-region scan with it, rebuilding the
     * encryption engine's volatile counter registers from persistent
     * state only.
     */
    template <typename Fn>
    void
    forEachCounterLine(Fn &&fn) const
    {
        counterStore.forEach(fn);
    }

    /** Number of persisted counter lines. */
    std::size_t counterLineCount() const { return counterStore.size(); }

    /** Number of distinct lines present in the persisted image. */
    std::size_t lineCount() const { return dataLines.size(); }

    /** Number of data lines an injected fault corrupted. */
    std::size_t faultedLineCount() const { return faulted.size(); }

    /**
     * Forgets the fault-injection ground truth (the faulted/replayed
     * marks), keeping the stored bytes exactly as the faults left
     * them. The soak driver calls this when a recovered image becomes
     * the next cycle's resume state: each cycle's oracle verdict must
     * attribute only that cycle's dose, not re-litigate corruption an
     * earlier recovery already detected, repaired or tombstoned. The
     * stale-triple attack surface is deliberately kept — replay
     * attacks may span crash cycles.
     */
    void
    clearFaultGroundTruth()
    {
        faulted.clear();
        replayed.clear();
    }

    /**
     * Every persisted data-line address, ascending. The fault model
     * draws victims from this list, so fault placement is a function
     * of the image's contents alone.
     */
    std::vector<Addr> dataLineAddrs() const;

  private:
    /** One drained data line, as persisted by its last write burst. */
    struct DataLine
    {
        LineData cipher{};

        /** Counter the ciphertext was encrypted with (oracle ground
         *  truth, not an architectural structure). */
        std::uint64_t cipherCounter = 0;

        /** Integrity MAC (ECC spare bits); 0 until drainMac() stores
         *  one. */
        std::uint64_t mac = 0;
    };

    /** The triple a data line held before its last overwrite at a new
     *  counter — the replay attack's raw material. */
    struct StaleTriple
    {
        LineData cipher{};
        std::uint64_t counter = 0;
        std::uint64_t mac = 0;
    };

    /** Persisted tree levels below the root (the integrity tree's
     *  levels 0 to 8; its level-9 root is treeRoot). */
    static constexpr unsigned treeNodeLevels = 9;

    /** The drained line at @p line_addr, which must be present. */
    DataLine &drainedLine(Addr line_addr);

    LineTable<DataLine> dataLines;
    LineTable<CounterLine> counterStore;

    /** Last superseded triple per overwritten line (attack surface). */
    LineTable<StaleTriple> staleTriples;

    /** Persisted integrity-tree nodes, one table per level; a node's
     *  key is its index * lineBytes. */
    std::array<LineTable<std::uint64_t>, treeNodeLevels> treeNodes;

    /** Persisted integrity-tree root (valid iff treeRootPresent). */
    std::uint64_t treeRoot = 0;
    bool treeRootPresent = false;

    /** Data lines corrupted by injected faults (oracle ground truth;
     *  presence is the mark, the value is always true). */
    LineTable<bool> faulted;

    /** Data lines an injected replay rolled back (oracle ground
     *  truth — recovery code must never consult it). */
    LineTable<bool> replayed;
};

} // namespace cnvm

#endif // CNVM_NVM_PERSIST_IMAGE_HH
