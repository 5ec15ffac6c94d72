/**
 * @file
 * Post-crash recovery: decryption of the persisted image and
 * undo-log-based rollback, followed by workload-level verification.
 *
 * This is where counter-atomicity violations become visible: a line
 * whose persisted data and counter are out of sync decrypts to garbage
 * (paper equation 4), which the log checks and structure validators
 * detect.
 */

#ifndef CNVM_CORE_RECOVERY_HH
#define CNVM_CORE_RECOVERY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/line_table.hh"
#include "memctl/mem_controller.hh"
#include "nvm/persist_image.hh"
#include "workloads/workload.hh"

namespace cnvm
{

class WorkPool;
class RecoveryCrashInjector;

/**
 * A decrypted, mutable view of the persisted NVM image, as recovery
 * software would see it after a power failure.
 *
 * Reads one PersistImage: the live device's persisted state after an
 * in-place crash, or a PersistFork's image captured from a running
 * trunk. The controller reference supplies only immutable
 * configuration (design point, counter layout, encryption engine) —
 * never volatile state, which a real crash would have destroyed
 * anyway.
 *
 * When the controller persists integrity metadata
 * (MemCtlConfig::integrityMac), every decryption is *verified before
 * it is trusted*: the stored per-line MAC is checked against
 * (address, stored counter, ciphertext). On a mismatch the image
 * attempts Osiris-style counter repair — trial-verifying counters in
 * a bounded window around the stored value, which recovers from
 * counter-store rollback and from data/counter pairs the crash tore
 * apart — and quarantines the line (it reads as zeros) when no
 * counter in the window verifies. Rollback may later overwrite a
 * quarantined line from an intact log backup, clearing the
 * quarantine; whatever remains quarantined at the end of recovery is
 * unrecoverable and reported, never silently consumed.
 *
 * When the controller additionally maintains the counter integrity
 * tree (MemCtlConfig::integrityTree), construction runs the
 * verify-root-first step: recompute the tree root bottom-up from the
 * persisted counter store (Phoenix-style) and compare it against the
 * persisted root. On a mismatch, every line verification also checks
 * the stored counter's hash against its persisted level-0 tree node,
 * which is what distinguishes a *replayed* line — stale-but-valid
 * triple, MAC verifies, tree disagrees — from a *corrupted* one (MAC
 * disagrees). Replayed lines are quarantined like corrupt ones; an
 * intact log backup may restore them.
 */
class RecoveredImage : public ByteReader
{
  public:
    RecoveredImage(const PersistImage &src, const MemController &ctl);

    void read(Addr addr, unsigned size, void *out) const override;

    /** Recovery-side write (rollback), full-byte overlay. */
    void write(Addr addr, const void *data, unsigned size);

    /** Decrypted content of a line. */
    LineData line(Addr line_addr) const;

    /**
     * Integrity pre-scan over [base, end): decrypt-and-verify every
     * line up front, so no corruption can hide in a line the later
     * pipeline happens not to read.
     *
     * The scan walks the range in address order, one fixed-size shard
     * at a time: verifyShard() batches a shard's MACs, and its lines
     * are installed before the next shard is verified. @p crash, when
     * non-null, observes one PreScanLine step per installed line (and
     * may interrupt there). The WorkPool parameter is unused; it stays
     * only so that perfbench/, which passes nullptr, compiles
     * unchanged until a benchmark change drops it.
     */
    void preScan(Addr base, Addr end, WorkPool *,
                 RecoveryCrashInjector *crash) const;

    /** MAC mismatches found so far (integrity metadata only). */
    std::uint64_t detectedCorruptions() const { return detected; }

    /** Mismatches the counter-window search repaired. */
    std::uint64_t windowRepairs() const { return repaired; }

    /** Lines whose MAC verified but whose stored counter the
     *  integrity tree rejected — detected replays. */
    std::uint64_t replaysDetected() const { return replays; }

    /** True when the tree is armed and the root recomputed from the
     *  counter store disagreed with the persisted root. */
    bool treeRootMismatch() const { return treeMismatch; }

    /** Lines currently quarantined (undecryptable, read as zeros). */
    std::size_t quarantinedCount() const { return quarantine.size(); }

    /** True when @p line_addr is quarantined. */
    bool isQuarantined(Addr line_addr) const
    { return quarantine.contains(lineAlign(line_addr)); }

    /** The quarantined line addresses, ascending. */
    std::vector<Addr> quarantinedLineAddrs() const;

    /** Lifts a line's quarantine (rollback restored it from an intact
     *  backup). */
    void clearQuarantine(Addr line_addr)
    { quarantine.erase(lineAlign(line_addr)); }

  private:
    const PersistImage &src;
    const MemController &ctl;

    /** Decrypted lines plus rollback overlays. */
    mutable LineTable<LineData> cache;

    /** Integrity bookkeeping (populated as lines decrypt), mutated
     *  only through install(): by the pre-scan in address order, then
     *  on lazy reads. */
    mutable std::uint64_t detected = 0;
    mutable std::uint64_t repaired = 0;
    mutable std::uint64_t replays = 0;

    /** Quarantined lines; the value is always true — presence is the
     *  mark. */
    mutable LineTable<bool> quarantine;

    /** Verify-root-first outcome, fixed at construction (the counter
     *  store never changes during recovery). */
    bool treeArmed = false;
    bool treeMismatch = false;

    /** Outcome of verifying one line, before it touches the image's
     *  bookkeeping. */
    struct VerifiedLine
    {
        LineData plain{}; //!< zeros when quarantined
        bool detected = false;
        bool repaired = false;
        bool replayed = false;
        bool quarantined = false;
    };

    /** What the persisted image holds for one data line: the inputs
     *  a verification decides on. */
    struct StoredLine
    {
        const LineData *cipher = nullptr;   //!< nullptr: never drained
        const std::uint64_t *mac = nullptr; //!< nullptr: not checked
        std::uint64_t counter = 0;          //!< stored counter
    };

    /** Looks up @p line_addr's stored inputs; @p ctrs is its persisted
     *  counter line (unused when the design does not encrypt). The MAC
     *  is looked up only when integrity metadata is on and the line
     *  was drained, so a non-null mac means "check it". */
    StoredLine storedLine(Addr line_addr, const CounterLine &ctrs) const;

    /** Decrypts and verifies one line from its stored inputs; @p tag is
     *  lineMac(line_addr, s.counter, *s.cipher), read only when s.mac
     *  is set. Pure, like verifyLine(). */
    VerifiedLine decideLine(Addr line_addr, const StoredLine &s,
                            std::uint64_t tag) const;

    /** Decrypts and verifies one line. Pure: reads only the immutable
     *  source/controller, mutates nothing. */
    VerifiedLine verifyLine(Addr line_addr) const;

    /** verifyLine() of lines [lo, hi) past @p base, batched: one
     *  gather, one CtrEngine::lineMacs() call, then decideLine() per
     *  line. Pure. */
    std::vector<VerifiedLine> verifyShard(Addr base, std::size_t lo,
                                          std::size_t hi) const;

    /** Folds a verified line into the cache and the bookkeeping; a
     *  line already cached keeps its bytes. */
    LineData &install(Addr line_addr, const VerifiedLine &v) const;

    LineData &cachedLine(Addr line_addr) const;
};

/**
 * Machine-checkable reason a recovery came back inconsistent. The
 * human-readable RecoveryReport::detail string conflated distinct
 * failure modes ("undecryptable" vs "structurally invalid" vs "no
 * committed prefix"); tests and tools switch on this enum instead of
 * parsing prose.
 */
enum class RecoveryFailure
{
    None,                //!< consistent
    LogHeaderUnreadable, //!< header magic garbage (torn/corrupt/quarantined)
    TornCommitFlag,      //!< log valid flag holds garbage
    LogDescriptorInvalid,//!< rollback descriptor points outside the region
    QuarantinedLines,    //!< unrepairable corrupt lines remain in the region
    StructureInvalid,    //!< structure invariants fail after rollback
    NoCommittedPrefix,   //!< digest matches no committed prefix
};

const char *recoveryFailureName(RecoveryFailure reason);

/** Result of recovering one workload's region. */
struct RecoveryReport
{
    /** The region decrypted and validated, and (when digests were
     *  recorded) matches a committed prefix of the transaction
     *  history. */
    bool consistent = false;

    /** Machine-checkable failure reason (None when consistent). */
    RecoveryFailure reason = RecoveryFailure::None;

    /** Human-readable failure reason when inconsistent. */
    std::string detail;

    /** Whether a live undo-log entry was rolled back. */
    bool rolledBack = false;

    /** Matched committed-transaction count (when digests recorded). */
    std::uint64_t committedTxns = 0;

    /** Whether the committed-prefix digest search was performed. */
    bool digestChecked = false;

    /** Digest of the recovered region content. Computed whenever
     *  recovery got far enough to validate structure (digestComputed),
     *  independently of whether a committed-digest log existed to
     *  search — it is what the crash-during-recovery idempotence check
     *  compares across interrupted and complete attempts. */
    bool digestComputed = false;
    std::uint64_t recoveredDigest = 0;

    // --- integrity metadata findings (zero when integrityMac is off) --

    /** Lines whose stored MAC rejected the (counter, ciphertext) pair:
     *  corruption recovery *saw*, whatever happened next. */
    std::uint64_t detectedCorruptions = 0;

    /** Lines whose MAC verified but whose stored counter the integrity
     *  tree rejected — replays recovery *caught* (zero when the tree
     *  is off; a replayed line then decrypts cleanly to stale
     *  plaintext and never shows up here). */
    std::uint64_t replaysDetected = 0;

    /** Detected lines restored — by the counter-window search or by an
     *  undo-log rollback from an intact backup. */
    std::uint64_t repairedLines = 0;

    /** Detected lines nothing could restore: still quarantined when
     *  recovery finished (graceful degradation, never silent). */
    std::uint64_t unrecoverableLines = 0;

    /**
     * Line addresses still quarantined when recovery finished, sorted
     * (the same population unrecoverableLines counts). The resume
     * path needs the exact set to keep those lines reading as zeros
     * in the resumed system, and the soak oracle needs it to assert
     * the quarantine never silently shrinks across cycles.
     */
    std::vector<Addr> quarantinedLines;

    /**
     * True when recovery completed *despite* residual quarantined
     * lines (degraded mode): structure validated and the digest
     * matched a committed prefix with the quarantined lines reading
     * as zeros — i.e. the lost lines were free space the committed
     * state never reached. Always false outside degraded mode.
     */
    bool degradedConsistent = false;
};

/**
 * How to run one recovery. The default value is the historical
 * behavior: in-memory only, uninterruptible.
 */
struct RecoveryOptions
{
    /**
     * Write-back mode: persist every restoration recovery makes —
     * rolled-back lines re-encrypted at their stored counters (MAC
     * refreshed when integrity metadata is on) and the undo log
     * invalidated after a completed rollback. This is what makes an
     * interrupted recovery attempt leave a *resumable* image behind;
     * quarantined content is never persisted. Typically the same
     * PersistImage the engine is reading (reads are cached before
     * writes land, so the view stays coherent).
     */
    PersistImage *commitTo = nullptr;

    /** When non-null, observes each recovery step and may interrupt
     *  the attempt by throwing RecoveryInterrupted. */
    RecoveryCrashInjector *crash = nullptr;

    /**
     * Degraded-completion mode, for the resume-after-recovery
     * lifecycle. By default residual quarantined lines fail recovery
     * outright (RecoveryFailure::QuarantinedLines) — the safe answer
     * for a one-shot examination, but it leaves the committed prefix
     * unknown, so a soak chain could never resume past an
     * unrecoverable fault. With degraded set, recovery keeps going:
     * quarantined lines read as zeros, structure validation and the
     * committed-prefix digest search run against that degraded view,
     * and the report lists the surviving quarantine set
     * (RecoveryReport::quarantinedLines) with degradedConsistent set
     * when the digest still matches — meaning the lost lines were
     * outside the committed state. Unrecoverable damage to committed
     * state still fails (the digest matches no prefix), never
     * silently.
     */
    bool degraded = false;
};

/** Runs recovery for workloads against one crashed system image. */
class RecoveryEngine
{
  public:
    RecoveryEngine(const PersistImage &src, const MemController &ctl);

    /**
     * Recovers one workload's region: decrypt, roll back the undo log
     * if a valid entry exists, validate structure invariants, and (when
     * digests were recorded) match against a committed prefix.
     *
     * @param digests when non-null, the committed-digest log to match
     *        against instead of the workload's own — a PersistFork's
     *        snapshot, frozen at the capture tick while the workload's
     *        live log keeps growing on the trunk.
     * @param opt write-back target, injector, degraded mode (see
     *        RecoveryOptions).
     */
    RecoveryReport recover(const Workload &workload,
                           const std::vector<std::uint64_t> *digests
                               = nullptr,
                           const RecoveryOptions &opt = {});

  private:
    const PersistImage &src;
    const MemController &ctl;

    /** The log/validate/digest pipeline; the public wrapper adds the
     *  integrity pre-scan before it and the corruption accounting
     *  after it. */
    void runRecovery(RecoveredImage &image, const Workload &workload,
                     const std::vector<std::uint64_t> *digests,
                     const RecoveryOptions &opt,
                     RecoveryReport &report) const;

    /** Write-back: re-encrypts @p line_addr's recovered plaintext at
     *  its stored counter and persists it (MAC included when
     *  integrity metadata is on). Deterministic for a fixed image, so
     *  re-running an interrupted rollback rewrites identical bytes. */
    void persistLine(const RecoveredImage &image, Addr line_addr,
                     PersistImage &out) const;
};

} // namespace cnvm

#endif // CNVM_CORE_RECOVERY_HH
