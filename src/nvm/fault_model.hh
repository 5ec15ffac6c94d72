/**
 * @file
 * Media-fault injection beneath the crash model.
 *
 * Every crash the sweep explores is, by default, a *clean* power
 * failure: the ADR drain completes perfectly and every persisted bit is
 * exact. Real NVM dies are not that polite — capacitance budgets run
 * out mid-drain, cells flip, and counter-store words land torn — and
 * the paper's counter-atomicity argument only covers the clean case.
 * The fault model injects the dirty cases at crash capture time:
 *
 *  - torn intra-line writes: only a prefix of a line's 8 B words
 *    persists; the tail holds stale bits,
 *  - media bit-flips in persisted data lines,
 *  - counter-store corruption and rollback (a counter word holds
 *    garbage, or an old value, while its ciphertext is current),
 *  - dropped ADR entries: the energy budget dies before the drain
 *    finishes, losing the tail of the ready-entry drain order.
 *
 * Faults are seeded and deterministic per plan point: the same
 * FaultSpec applied to the same persisted image mutates it
 * identically, in Replay and Fork sweep modes alike, at any job
 * count. Victim lines are chosen from the persisted address list in
 * ascending order (the image's page-table iteration order), which is
 * what makes the sweep fingerprint reproducible.
 *
 * Injected corruptions are recorded in the image as simulator-only
 * ground truth (PersistImage::lineFaulted), which is how the crash
 * oracle can tell a *silent* corruption (recovery saw nothing) from a
 * detected one. ADR drops are deliberately not marked: losing a ready
 * entry is a legitimate persistence outcome whose divergence the
 * counter census and the integrity scan already surface.
 */

#ifndef CNVM_NVM_FAULT_MODEL_HH
#define CNVM_NVM_FAULT_MODEL_HH

#include <cstdint>
#include <string>

#include "common/random.hh"
#include "common/types.hh"
#include "nvm/persist_image.hh"

namespace cnvm
{

/**
 * One crash point's fault dose. Default-constructed = no faults (the
 * clean power failure every existing test and fingerprint assumes).
 */
struct FaultSpec
{
    /** Persisted data lines whose tail words are torn off. */
    unsigned tornWrites = 0;

    /** Persisted data lines taking 1-3 random bit flips. */
    unsigned bitFlips = 0;

    /** Counter-store words corrupted (garbage) or rolled back. */
    unsigned counterFaults = 0;

    /** Upper bound of ready ADR entries lost off the drain tail
     *  (the model draws the actual loss uniformly from [0, adrDrops]). */
    unsigned adrDrops = 0;

    /**
     * Persisted data lines whose last superseded (cipher, counter,
     * MAC) triple is re-installed whole — the persistence-based
     * replay attack. The triple is internally consistent, so per-line
     * MACs verify; only the integrity tree can catch it.
     */
    unsigned replays = 0;

    /** Seed of the point's private fault RNG. */
    std::uint64_t seed = 0;

    /** True when any fault kind is enabled. */
    bool
    any() const
    {
        return tornWrites > 0 || bitFlips > 0 || counterFaults > 0
            || adrDrops > 0 || replays > 0;
    }

    /**
     * The per-point spec: same dose, private seed derived from the
     * base seed and the plan index, so points draw independent fault
     * streams while the whole sweep stays a pure function of
     * (config, base seed).
     */
    FaultSpec forPoint(std::size_t plan_index) const;

    /** " +f(t..,b..,c..,a..,s..)" — empty when !any(), and the replay
     *  field ",p.." appears only when replays are dosed. Appended to
     *  CrashSpec::describe(), so fault sweeps fingerprint distinctly
     *  while clean and replay-free sweeps keep their historical
     *  fingerprints byte for byte. */
    std::string describe() const;

    /** Every fault kind at a moderate dose (the CLI's --faults all). */
    static FaultSpec allKinds(std::uint64_t seed);

    /** allKinds() plus a replay dose (the CLI's --replays). */
    static FaultSpec allKindsWithReplays(std::uint64_t seed);
};

/**
 * Applies one FaultSpec to one captured persisted image. The two
 * entry points must be called in a fixed order — adrDropCount() first,
 * then applyMediaFaults() — because they share the RNG stream; the
 * System crash and fork-capture paths both follow it.
 */
class FaultModel
{
  public:
    /**
     * @param spec the dose and seed
     * @param counter_region_base the controller's counter address-space
     *        base, needed to map a victim data line to its counter
     *        store word (MemCtlConfig::counterRegionBase)
     */
    FaultModel(const FaultSpec &spec, Addr counter_region_base);

    /**
     * Number of ready ADR entries the dying energy budget fails to
     * drain, uniform in [0, spec.adrDrops] clamped to @p ready_entries.
     * Call exactly once, before applyMediaFaults().
     */
    unsigned adrDropCount(unsigned ready_entries);

    /**
     * Mutates @p img in place: torn tails, bit flips and counter
     * faults on victims drawn from the ascending persisted line list.
     * Corrupted lines are marked as ground truth for the oracle.
     */
    void applyMediaFaults(PersistImage &img);

  private:
    FaultSpec spec;
    Addr counterRegionBase;
    Random rng;
};

} // namespace cnvm

#endif // CNVM_NVM_FAULT_MODEL_HH
