/**
 * @file
 * The encrypted-NVMM memory controller (paper section 5).
 *
 * Hosts the encryption engine, the counter cache, the read path, and the
 * two ADR-protected write queues (data and counter) with the ready-bit
 * pairing protocol that enforces counter-atomicity. One controller
 * instance implements all evaluated design points; the DesignPoint
 * selects the policy at each decision site.
 *
 * Key invariant (crash safety): a counter value may become eligible for
 * persistence (visible in the counter cache, or resident in a
 * counter-queue entry) only once the matching ciphertext is itself
 * ADR-protected, or in the same atomic ready-pairing action. The unsafe
 * direction — counter persisted ahead of its data — is exactly the
 * Figure-4 failure, and only the Unsafe design permits it.
 */

#ifndef CNVM_MEMCTL_MEM_CONTROLLER_HH
#define CNVM_MEMCTL_MEM_CONTROLLER_HH

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/intmath.hh"
#include "crypto/ctr_engine.hh"
#include "mem/mem_backend.hh"
#include "memctl/counter_cache.hh"
#include "memctl/design.hh"
#include "memctl/persist_sequencer.hh"
#include "nvm/nvm_device.hh"
#include "sim/eventq.hh"
#include "stats/stats.hh"

namespace cnvm
{

/**
 * Semantic controller events observable from outside the timing model.
 * The crash injector arms power failures at the Nth occurrence of one
 * of these ("crash mid-encryption-pipeline", "crash at the 40th counter
 * eviction"), which is how the sweep reaches controller states a
 * runtime-fraction crash point can never hit reliably.
 */
enum class CtlEvent : unsigned
{
    PipelineEnter = 0, //!< a write entered the encryption pipeline
    PairAction,        //!< a ready-bit data/counter pairing completed
    DirtyEviction,     //!< a dirty counter line left the counter cache
    DataDrain,         //!< a data write-queue entry drained to the device
    CtrDrain,          //!< a counter write-queue entry drained
};

constexpr unsigned numCtlEvents = 5;

/** Controller geometry and latencies (paper Table 2 defaults). */
struct MemCtlConfig
{
    DesignPoint design = DesignPoint::SCA;

    unsigned dataWqEntries = 64;
    unsigned ctrWqEntries = 16;

    /**
     * Counter-cache capacity of *this controller instance*. At the
     * System level MemCtlConfig::counterCacheBytes is the explicit
     * total across all channels (it no longer scales with core count);
     * System splits it evenly per channel before construction.
     */
    std::uint64_t counterCacheBytes = 1ull << 20;

    /**
     * Multi-channel identity: how many channels shard the address
     * space, and which shard this controller owns. Every channel
     * registers its stats under "memctl.chN.*" / "ctrcache.chN.*".
     */
    unsigned numChannels = 1;
    unsigned channelId = 0;

    /** AES engine latency for OTP generation (Table 2: 40 ns). */
    Tick encLatency = nsToTicks(40);

    /** Controller pipeline overhead for unencrypted acceptance. */
    static constexpr Tick acceptLatency = nsToTicks(5);

    /**
     * Extra acceptance latency of a counter-atomic write: the NVM
     * coordinator and encryption engine cross-check both write queues
     * and set the ready bits (section 5.2.2, steps 5-7).
     */
    Tick pairLatency = nsToTicks(15);

    /** Latency of servicing a read from a matching write-queue entry. */
    static constexpr Tick forwardLatency = nsToTicks(20);

    /** Base of the separate counter address space (above 8 GB data). */
    Addr counterRegionBase = Addr(1) << 33;

    /**
     * Address-match write combining in the write queues. On by
     * default (standard controller behaviour); the ablation harness
     * turns it off to show why the paper's hot undo-log lines depend
     * on it.
     */
    bool writeCombining = true;

    /**
     * Per-line integrity metadata: a truncated MAC over (address,
     * counter, ciphertext) persisted in the line's ECC spare bits
     * atomically with its write burst, so it adds no bus traffic and
     * no timing. Recovery verifies it before trusting any decryption
     * (see RecoveredImage), which is what turns media faults from
     * silent garbage into detected — and often repairable —
     * corruption. Off by default: the baseline designs the paper
     * evaluates carry no integrity metadata, and the Unsafe design's
     * negative-control classifications depend on garbage going
     * undetected.
     */
    bool integrityMac = false;

    /**
     * Osiris-style repair bound: on a MAC mismatch, recovery trial-
     * verifies counters within this distance of the stored value
     * before declaring the line unrecoverable.
     */
    static constexpr unsigned macRepairWindow = 64;

    /**
     * Bonsai Merkle Tree over the persisted counter store (see
     * integrity/integrity_tree.hh): the controller mirrors every
     * persisted counter into a volatile tree, writes dirty nodes back
     * lazily on epoch boundaries, and flushes the tree — root last —
     * through the ADR path at a power failure. Closes the replay hole
     * per-line MACs leave open, at the cost of tree-node write
     * traffic. Implies integrityMac (the tree authenticates counters;
     * the MAC still authenticates ciphertext).
     */
    bool integrityTree = false;

    /** AES-128 key used by the encryption engine. */
    std::array<std::uint8_t, 16> key{
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
        0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
};

class MemController : public MemBackend
{
  public:
    /**
     * @param sequencer shared cross-channel persist-order source; null
     *        (single-channel and unit-test construction) gives the
     *        controller a private sequencer with identical numbering.
     */
    MemController(EventQueue &eq, NvmDevice &nvm, const MemCtlConfig &cfg,
                  stats::StatRegistry *registry,
                  PersistSequencer *sequencer = nullptr);

    /** Counter-cache associativity (Table 2: 16-way). */
    static constexpr unsigned counterCacheAssoc = 16;

    /**
     * Whether a system-wide counter cache of @p total_bytes splits over
     * @p channels into equal per-channel caches of a power-of-two
     * number of 1 KB sets (counterCacheAssoc lines each): the total in
     * KB must be a power of two and at least the channel count.
     */
    static constexpr bool
    counterCacheSplits(std::uint64_t total_bytes, unsigned channels)
    {
        constexpr std::uint64_t set_bytes = counterCacheAssoc * lineBytes;
        return isPowerOf2(total_bytes) && total_bytes >= channels * set_bytes;
    }

    // ------------------------------------------------------------------
    // MemBackend interface (cache-side)
    // ------------------------------------------------------------------
    void issueRead(Addr addr, ReadCallback done) override;
    bool tryWrite(const WriteReq &req) override;
    bool tryCtrWriteback(Addr data_line_addr,
                         std::function<void()> accepted) override;
    void registerRetry(std::function<void()> retry) override;

    // ------------------------------------------------------------------
    // Crash machinery
    // ------------------------------------------------------------------

    /**
     * Models a power failure of a controller driven without a System:
     * the ADR logic drains the queued entries (every one is ready:
     * pairing inserts both halves in one step) into the NVM image,
     * then all volatile controller state (counter cache, queues,
     * pipeline) is lost (paper section 5.2.2, "Steps During a System
     * Failure"). The cut is computeDrainKeeps() over this controller's
     * own queues. The integrity tree must be off: its root-last flush
     * covers every channel's drain, so it belongs to
     * System::crashChannels().
     *
     * @param adr_drop_tail entries the dying energy budget fails to
     *        drain, taken off the *tail* of the drain order (data
     *        entries in age order, then counter entries) — the
     *        fault model's energy-exhaustion knob. 0 = the clean,
     *        fully-budgeted drain.
     */
    void crash(unsigned adr_drop_tail = 0);

    /**
     * The ADR drain of this channel's share of a power failure:
     * persists the keep prefixes of @p cut (as computeDrainKeeps
     * computes them over every channel's queued entries) onto @p img —
     * the device's own image for an in-place crash, or a fork's copy.
     * Deliberately side-effect free: no stats counters
     * (crashDroppedData/Ctr stay put) and no queue or cache mutation,
     * so a trunk run with any number of captures is byte-identical to
     * an unarmed run.
     */
    void drainCut(PersistImage &img, const AdrCut &cut) const;

    /**
     * The rest of a power failure once drainCut() has run: counts
     * every queued entry outside @p cut as dropped, loses the
     * queues, pipeline and counter cache, and re-seeds the global
     * counter from the persisted image.
     */
    void dropVolatileState(const AdrCut &cut);

    /**
     * Rebuilds this channel's volatile counter state from the
     * device's persisted counter store: the global counter (restarted
     * strictly above every persisted value of the lines this channel
     * owns), drain-kick flags, and a cold counter cache. This is the
     * tail of dropVolatileState(), exposed for the
     * resume-after-recovery path — a fresh system re-seeded from a
     * recovered image installs the image into the device and then
     * calls this, making resumed controller state equivalent to
     * post-crash rebuilt state by construction (DESIGN.md section 4i).
     */
    void reseedFromPersistedImage();

    /** Sequence numbers of the queued entries, in queue (age) order —
     *  this channel's input to computeDrainKeeps(). */
    ChannelReady ready() const;

    /**
     * Zero-time setup helper: installs @p n lines into the persisted
     * image (encrypted, with their counters persisted alongside), as a
     * freshly initialized system would hold them. Line i takes the
     * next counter in order, exactly as n initLine() calls would; the
     * MACs are computed CtrEngine::macLanes lines at a time. Not part
     * of the timing model.
     */
    void initLines(const Addr line_addrs[],
                   const LineData *const plaintexts[], std::size_t n);

    /** initLines() of one line. */
    void
    initLine(Addr line_addr, const LineData &plaintext)
    {
        const LineData *plain = &plaintext;
        initLines(&line_addr, &plain, 1);
    }

    /**
     * Zero-time setup helper: pre-warms the counter cache with the
     * (clean) counter line covering @p data_line_addr, modelling a
     * steady-state region of interest rather than a cold machine.
     */
    void warmCounterLine(Addr data_line_addr);

    // ------------------------------------------------------------------
    // Address-space helpers (shared with the recovery engine)
    // ------------------------------------------------------------------

    /** Counter-line address covering @p data_line_addr. */
    Addr counterLineAddr(Addr data_line_addr) const;

    /** Slot of @p data_line_addr within its counter line. */
    unsigned counterSlot(Addr data_line_addr) const;

    const crypto::CtrEngine &engine() const { return ctrEngine; }
    DesignPoint design() const { return cfg.design; }
    const MemCtlConfig &config() const { return cfg; }

    /** Current occupancy of the data write queue (entries + reserved). */
    unsigned dataQueueOccupancy() const;
    /** Current occupancy of the counter write queue. */
    unsigned ctrQueueOccupancy() const;

    /** True when no write-queue entry or reservation is outstanding. */
    bool writesIdle() const;

    /** Writes parked behind the queues waiting for slots. */
    std::size_t landingDepth() const { return landingQ.size(); }

    /** Writes inside the encryption pipeline. */
    unsigned pipelineDepth() const { return pipelineWrites; }

    /** Writes handed to the device whose burst has not completed. */
    unsigned inflightDepth() const { return inflightWrites; }

    /** Reads issued to the controller whose data has not returned. */
    unsigned outstandingReadCount() const { return outstandingReads; }

    /**
     * Installs an observer invoked synchronously at each semantic
     * controller event. At most one observer; the crash injector and
     * the sweep's probe census are the intended users. The hook must
     * not re-enter the controller — defer any reaction (such as the
     * power failure itself) through the event queue.
     */
    void
    setEventHook(std::function<void(CtlEvent)> hook)
    {
        eventHook = std::move(hook);
    }

    // Exposed counters for tests and benches.
    stats::Scalar dataInserts;
    stats::Scalar ctrInserts;
    stats::Scalar ctrCoalesces;
    stats::Scalar dataCoalesces;
    stats::Scalar writeRejects;
    stats::Scalar readForwards;
    stats::Scalar atomicPairs;
    stats::Scalar pairBlocks;
    stats::Scalar ccFillReads;
    stats::Scalar crashDroppedData;
    stats::Scalar crashDroppedCtr;
    stats::Scalar ctrwbNoops;
    stats::Scalar treeLeafUpdates;
    stats::Scalar treeCoalesces;
    stats::Scalar treeNodeWrites;
    stats::Scalar treeFlushes;

  private:
    struct DataEntry
    {
        std::uint64_t seq;
        Addr addr;
        unsigned bank;          //!< nvm.bankOf(addr), taken at insert
        LineData cipher;
        std::uint64_t counter;
        bool issued = false;
    };

    struct CtrEntry
    {
        std::uint64_t seq;
        Addr addr;              //!< counter-line address
        unsigned bank;          //!< nvm.bankOf(addr), taken at insert
        CounterLine values;
        /** Which of the eight counters this write actually updates;
         *  the device is charged 8 B per touched counter. */
        std::uint8_t dirtyMask;
        bool issued = false;
    };

    EventQueue &eventq;
    NvmDevice &nvm;
    MemCtlConfig cfg;
    crypto::CtrEngine ctrEngine;
    std::unique_ptr<CounterCache> counterCache;

    /**
     * The two write queues, each one array in age (insertion) order,
     * reserved to its capacity so an insert never reallocates. Every
     * lookup is a linear scan, and a drained entry is erased in place:
     * age order decides which bank-free entry drains next, which match
     * wins when combining is off, and the ADR drain order the
     * co-located designs' counter read-modify-write depends on.
     * Pairing inserts a data entry and its counter values in one step,
     * so every queued entry is ADR-ready and no per-entry bit is kept.
     */
    std::vector<DataEntry> dataQ;
    std::vector<CtrEntry> ctrQ;

    /** Private fallback sequencer (single-channel construction). */
    PersistSequencer ownSequencer;

    /** Where queue entries draw their global persist order from. */
    PersistSequencer *sequencer;

    /**
     * Line addresses of writes accepted by tryWrite() but not yet
     * landed in the data queue (still in the encryption pipeline or
     * the landing buffer), with multiplicity. Read forwarding must
     * consult these too: a read racing a write through the pipeline
     * would otherwise fetch stale data from the device.
     */
    std::unordered_map<Addr, unsigned> pendingLineWrites;

    /**
     * Writes that have left the encryption pipeline but found their
     * target queue full: they claim slots in FIFO order as drains free
     * space. Acceptance (the ADR point fences wait on) happens at the
     * actual landing.
     */
    std::deque<std::function<bool()>> landingQ;
    static constexpr std::size_t landingCapacity = 256;

    /**
     * Lazy-update epoch: dirty tree nodes coalesce across this many
     * counter-store persists before one batched write-back (Freij et
     * al.). Larger epochs coalesce more and write less; the crash
     * flush covers whatever is still dirty either way.
     */
    static constexpr unsigned treeEpochDrains = 8;

    /** Writes inside the encryption pipeline (pre-landing). */
    unsigned pipelineWrites = 0;

    /** Writes scheduled on the device but whose burst has not ended. */
    unsigned inflightWrites = 0;
    unsigned maxInflightWrites;

    /** Bus bytes of one data-entry drain: the line, plus its counter
     *  on the co-located designs' 72-bit bus. */
    const unsigned dataBusBytes;

    /** A wake-up for bank-busy drain candidates is already scheduled. */
    bool drainKickPending = false;

    /** An end-of-tick drain kick is already scheduled. */
    bool kickScheduled = false;

    /** Bumped at a power failure: in-flight pipeline events from
     *  before it compare epochs and become no-ops. */
    std::uint64_t pipelineEpoch = 0;

    unsigned outstandingReads = 0;

    /** Monotonic counter source (paper section 5.2.1). */
    std::uint64_t globalCounter = 0;

    std::vector<std::function<void()>> retryCallbacks;

    /** Dirty counter-cache victims waiting for counter-queue space. */
    std::deque<Victim<CounterCacheLine>> pendingCcEvictions;

    /**
     * Lazy integrity-tree update state (cfg.integrityTree): level-1
     * leaf indexes dirtied by counter persists since the last epoch
     * write-back. An ordered set — the write-back charges traffic in
     * index order, and determinism here is what keeps tree-enabled
     * sweep fingerprints identical across Replay/Fork modes.
     */
    std::set<std::uint64_t> dirtyTreeLeaves;

    /** Counter persists since simulation start (the epoch clock). */
    std::uint64_t treeCtrPersists = 0;

    /** Semantic-event observer (crash injector / sweep census). */
    std::function<void(CtlEvent)> eventHook;

    /** Fires the event hook, if any. */
    void
    emitEvent(CtlEvent ev)
    {
        if (eventHook)
            eventHook(ev);
    }

    // --- queue lookups ---
    bool dataQueueHas(Addr addr) const;
    bool ctrQueueHasIssued(Addr ctr_addr) const;

    // --- write path helpers ---
    bool haveDataSlot() const;
    bool haveCtrSlot() const;
    bool landDataWrite(const WriteReq &req, std::uint64_t counter,
                       bool pair);
    void processLandings();
    void scheduleDrainKick();
    CtrEntry *findUnissuedCtr(Addr ctr_addr);
    DataEntry *findUnissuedData(Addr addr);
    void enqueueCtrValues(Addr ctr_addr, const CounterLine &values,
                          std::uint8_t dirty_mask);
    void applyCounterToCache(Addr data_line_addr, std::uint64_t counter,
                             bool make_dirty, bool charge_fill_on_miss);
    void handleCcEviction(const Victim<CounterCacheLine> &ev);
    void drainPendingCcEvictions();

    /**
     * Integrity-tree hook at every counter persist to the device
     * image: marks the covering leaf dirty and, on an epoch boundary,
     * writes the coalesced dirty set back (charging node traffic).
     * No-op when the tree is off.
     */
    void noteCounterPersist(Addr ctr_line_addr);

    /** The batched epoch write-back of the dirty tree-node set. */
    void flushTreeEpoch();

    /** The channel owning a counter line under the block interleave. */
    unsigned ctrLineChannel(Addr ctr_line_addr) const;

    /** Safe-to-persist counter values: persisted image overlaid with
     *  pending counter-queue entries in age order. */
    CounterLine memoryViewCounters(Addr ctr_addr) const;

    /** Counter values currently visible to a flush (cache else memory). */
    CounterLine visibleCounters(Addr ctr_addr);

    // --- drain engine ---
    void kickDrain();
    bool issueOneWrite();
    void completeDataDrain(std::uint64_t seq);
    void completeCtrDrain(std::uint64_t seq);
    void persistDataEntry(const DataEntry &entry);

    /** Drain-time persistence of one data entry, applied to an
     *  arbitrary persisted image (the device's own, or a fork's). */
    void persistDataEntryTo(PersistImage &img,
                            const DataEntry &entry) const;
    void notifyRetries();

    // --- read path ---
    void finishRead(Tick when, ReadCallback done);
};

} // namespace cnvm

#endif // CNVM_MEMCTL_MEM_CONTROLLER_HH
