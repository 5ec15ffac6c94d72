#include "memctl/mem_controller.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "integrity/integrity_tree.hh"
#include "sim/eventq.hh"

namespace cnvm
{

namespace
{

/**
 * Stat-name prefix for a channel. Every channel — including channel 0 —
 * uses the "memctl.chN." form, so bench/tool parsers handle all
 * channels uniformly.
 */
std::string
ctlStatPrefix(const MemCtlConfig &cfg)
{
    return "memctl.ch" + std::to_string(cfg.channelId) + ".";
}

std::string
ccStatPrefix(const MemCtlConfig &cfg)
{
    return "ctrcache.ch" + std::to_string(cfg.channelId) + ".";
}

} // namespace

MemController::MemController(EventQueue &eq, NvmDevice &nvm,
                             const MemCtlConfig &cfg,
                             stats::StatRegistry *registry,
                             PersistSequencer *sequencer_in)
    : dataInserts(ctlStatPrefix(cfg) + "data_inserts",
                  "data write-queue insertions"),
      ctrInserts(ctlStatPrefix(cfg) + "ctr_inserts",
                 "counter write-queue insertions"),
      ctrCoalesces(ctlStatPrefix(cfg) + "ctr_coalesces",
                   "counter writes merged into pending entries"),
      dataCoalesces(ctlStatPrefix(cfg) + "data_coalesces",
                    "data writes merged into pending entries"),
      writeRejects(ctlStatPrefix(cfg) + "write_rejects",
                   "writes refused for lack of queue space"),
      readForwards(ctlStatPrefix(cfg) + "read_forwards",
                   "reads served from the data write queue"),
      atomicPairs(ctlStatPrefix(cfg) + "atomic_pairs",
                  "counter-atomic data/counter pairs enforced"),
      pairBlocks(ctlStatPrefix(cfg) + "pair_blocks",
                 "writes blocked behind an incomplete pair on the same "
                 "counter line (Figure 7a serialization)"),
      ccFillReads(ctlStatPrefix(cfg) + "cc_fill_reads",
                  "NVM reads issued to fill the counter cache"),
      crashDroppedData(ctlStatPrefix(cfg) + "crash_dropped_data",
                       "queued data entries outside the ADR cut at "
                       "power failure"),
      crashDroppedCtr(ctlStatPrefix(cfg) + "crash_dropped_ctr",
                      "queued counter entries outside the ADR cut at "
                      "power failure"),
      ctrwbNoops(ctlStatPrefix(cfg) + "ctrwb_noops",
                 "counter_cache_writeback calls that had nothing to do"),
      treeLeafUpdates(ctlStatPrefix(cfg) + "tree_leaf_updates",
                      "integrity-tree leaves dirtied by counter persists"),
      treeCoalesces(ctlStatPrefix(cfg) + "tree_coalesces",
                    "leaf updates absorbed by an already-dirty node"),
      treeNodeWrites(ctlStatPrefix(cfg) + "tree_node_writes",
                     "integrity-tree nodes written back to the device"),
      treeFlushes(ctlStatPrefix(cfg) + "tree_flushes",
                  "batched epoch write-backs of the dirty tree set"),
      eventq(eq),
      nvm(nvm),
      cfg(cfg),
      ctrEngine(cfg.key.data()),
      sequencer(sequencer_in != nullptr ? sequencer_in : &ownSequencer),
      maxInflightWrites(nvm.timing().numBanks),
      dataBusBytes(cfg.design != DesignPoint::NoEncryption
                           && !designSeparateCounters(cfg.design)
                       ? lineBytes + counterBytes
                       : lineBytes)
{
    // The tree authenticates the counter store; without the per-line
    // MAC there would be nothing tying ciphertext to those counters,
    // so the tree axis implies the MAC axis.
    if (this->cfg.integrityTree)
        this->cfg.integrityMac = true;
    cnvm_assert(isPowerOf2(cfg.numChannels));
    cnvm_assert(cfg.channelId < cfg.numChannels);
    if (designHasCounterCache(cfg.design)) {
        // Fold the channel-id bits out of the set index: this shard
        // only sees counter-line indices ≡ channelId (mod channels),
        // and indexing with those constant bits in place would strand
        // all but numSets/channels of the sets.
        counterCache = std::make_unique<CounterCache>(
            cfg.counterCacheBytes, counterCacheAssoc, registry,
            ccStatPrefix(cfg), floorLog2(cfg.numChannels));
    }
    dataQ.reserve(cfg.dataWqEntries);
    ctrQ.reserve(cfg.ctrWqEntries);
    if (registry != nullptr) {
        registry->registerStat(dataInserts);
        registry->registerStat(ctrInserts);
        registry->registerStat(ctrCoalesces);
        registry->registerStat(dataCoalesces);
        registry->registerStat(writeRejects);
        registry->registerStat(readForwards);
        registry->registerStat(atomicPairs);
        registry->registerStat(pairBlocks);
        registry->registerStat(ccFillReads);
        registry->registerStat(crashDroppedData);
        registry->registerStat(crashDroppedCtr);
        registry->registerStat(ctrwbNoops);
        registry->registerStat(treeLeafUpdates);
        registry->registerStat(treeCoalesces);
        registry->registerStat(treeNodeWrites);
        registry->registerStat(treeFlushes);
    }
}

// ----------------------------------------------------------------------
// Address-space helpers
// ----------------------------------------------------------------------

Addr
MemController::counterLineAddr(Addr data_line_addr) const
{
    std::uint64_t line_index = data_line_addr / lineBytes;
    return cfg.counterRegionBase + (line_index / countersPerLine) * lineBytes;
}

unsigned
MemController::counterSlot(Addr data_line_addr) const
{
    return static_cast<unsigned>((data_line_addr / lineBytes)
                                 % countersPerLine);
}

unsigned
MemController::ctrLineChannel(Addr ctr_line_addr) const
{
    return static_cast<unsigned>(
        ((ctr_line_addr - cfg.counterRegionBase) / lineBytes)
        & (cfg.numChannels - 1));
}

// ----------------------------------------------------------------------
// Queue lookups
// ----------------------------------------------------------------------

bool
MemController::dataQueueHas(Addr addr) const
{
    for (const DataEntry &entry : dataQ) {
        if (entry.addr == addr)
            return true;
    }
    return false;
}

bool
MemController::ctrQueueHasIssued(Addr ctr_addr) const
{
    for (const CtrEntry &entry : ctrQ) {
        if (entry.issued && entry.addr == ctr_addr)
            return true;
    }
    return false;
}

CounterLine
MemController::memoryViewCounters(Addr ctr_addr) const
{
    CounterLine values = nvm.persistedState().persistedCounters(ctr_addr);
    // Pending counter-queue entries and not-yet-queued evictions are
    // newer than the image; counters only grow, so merging by max
    // yields the youngest value per slot in any merge order.
    for (const CtrEntry &entry : ctrQ) {
        if (entry.addr != ctr_addr)
            continue;
        for (unsigned s = 0; s < countersPerLine; ++s)
            values[s] = std::max(values[s], entry.values[s]);
    }
    for (const Victim<CounterCacheLine> &ev : pendingCcEvictions) {
        if (ev.addr != ctr_addr)
            continue;
        for (unsigned s = 0; s < countersPerLine; ++s)
            values[s] = std::max(values[s], ev.values[s]);
    }
    return values;
}

CounterLine
MemController::visibleCounters(Addr ctr_addr)
{
    if (counterCache != nullptr) {
        if (CounterCacheLine *line = counterCache->peek(ctr_addr))
            return line->values;
    }
    return memoryViewCounters(ctr_addr);
}

// ----------------------------------------------------------------------
// Read path
// ----------------------------------------------------------------------

void
MemController::finishRead(Tick when, ReadCallback done)
{
    ++outstandingReads;
    std::uint64_t epoch = pipelineEpoch;
    scheduleAt(eventq, when, [this, epoch, done = std::move(done)]() {
        // A power failure between scheduling and completion killed the
        // read with the rest of the volatile controller state; firing
        // anyway would decrement the freshly-zeroed counter.
        if (epoch != pipelineEpoch)
            return;
        cnvm_assert(outstandingReads > 0);
        --outstandingReads;
        done();
        kickDrain();
    });
}

void
MemController::issueRead(Addr addr, ReadCallback done)
{
    addr = lineAlign(addr);
    Tick now = eventq.curTick();

    // Forward from a matching data write-queue entry — or from a write
    // still inside the encryption pipeline / landing buffer. The
    // latter matters: an accepted write is architecturally younger
    // than this read, so fetching the line from the device instead
    // would return stale data (and mis-time the read). Tracking
    // in-flight lines in pendingLineWrites closes that window.
    if (dataQueueHas(addr)
        || pendingLineWrites.find(addr) != pendingLineWrites.end()) {
        ++readForwards;
        finishRead(now + cfg.forwardLatency, std::move(done));
        return;
    }

    Tick data_arrival = nvm.scheduleRead(addr, now);

    switch (cfg.design) {
      case DesignPoint::NoEncryption:
        finishRead(data_arrival, std::move(done));
        return;

      case DesignPoint::Colocated:
        // No counter cache: the counter arrives with the data and
        // decryption is serialized behind the read (Figure 6a).
        finishRead(data_arrival + cfg.encLatency, std::move(done));
        return;

      case DesignPoint::ColocatedCC: {
        Addr ctr_addr = counterLineAddr(addr);
        if (counterCache->access(ctr_addr) != nullptr) {
            ++counterCache->readHits;
            // OTP generation overlaps the read (Figure 6b).
            finishRead(std::max(data_arrival, now + cfg.encLatency),
                       std::move(done));
        } else {
            ++counterCache->readMisses;
            // The counter rides with the data: decryption waits for
            // arrival, then the persisted counter line the read
            // brought in is installed. Only its tag and LRU state
            // matter: a co-located line is never dirty, so no flush
            // or eviction ever reads its values.
            Tick ready = data_arrival + cfg.encLatency;
            finishRead(ready, std::move(done));
            std::uint64_t epoch = pipelineEpoch;
            scheduleAt(eventq, ready, [this, epoch, ctr_addr]() {
                if (epoch != pipelineEpoch)
                    return; // fill died with the power failure
                if (counterCache->peek(ctr_addr) == nullptr) {
                    auto victim = counterCache->install(
                        ctr_addr, memoryViewCounters(ctr_addr), 0);
                    if (victim)
                        handleCcEviction(*victim);
                }
            });
        }
        return;
      }

      default: {
        // Separate-counter designs: overlap OTP generation with the
        // data read on a counter hit; a miss fetches the counter line
        // from NVMM first (section 5.2.1, "Counter Cache Miss").
        Addr ctr_addr = counterLineAddr(addr);
        if (counterCache->access(ctr_addr) != nullptr) {
            ++counterCache->readHits;
            finishRead(std::max(data_arrival, now + cfg.encLatency),
                       std::move(done));
        } else {
            ++counterCache->readMisses;
            ++ccFillReads;
            Tick ctr_arrival = nvm.scheduleRead(ctr_addr, now);
            Tick ready = std::max(data_arrival,
                                  ctr_arrival + cfg.encLatency);
            finishRead(ready, std::move(done));
            CounterLine values = memoryViewCounters(ctr_addr);
            std::uint64_t epoch = pipelineEpoch;
            scheduleAt(eventq, ctr_arrival,
                       [this, epoch, ctr_addr, values]() {
                if (epoch != pipelineEpoch)
                    return; // fill died with the power failure
                if (counterCache->peek(ctr_addr) == nullptr) {
                    auto victim =
                        counterCache->install(ctr_addr, values, 0);
                    if (victim)
                        handleCcEviction(*victim);
                }
            });
        }
        return;
      }
    }
}

// ----------------------------------------------------------------------
// Write path
// ----------------------------------------------------------------------

bool
MemController::haveDataSlot() const
{
    return dataQ.size() < cfg.dataWqEntries;
}

bool
MemController::haveCtrSlot() const
{
    return ctrQ.size() < cfg.ctrWqEntries;
}

unsigned
MemController::dataQueueOccupancy() const
{
    return static_cast<unsigned>(dataQ.size());
}

unsigned
MemController::ctrQueueOccupancy() const
{
    return static_cast<unsigned>(ctrQ.size());
}

bool
MemController::writesIdle() const
{
    return dataQ.empty() && ctrQ.empty() && landingQ.empty()
        && pipelineWrites == 0 && inflightWrites == 0
        && pendingCcEvictions.empty();
}

MemController::CtrEntry *
MemController::findUnissuedCtr(Addr ctr_addr)
{
    for (CtrEntry &entry : ctrQ) {
        if (!entry.issued && entry.addr == ctr_addr)
            return &entry;
    }
    return nullptr;
}

MemController::DataEntry *
MemController::findUnissuedData(Addr addr)
{
    for (DataEntry &entry : dataQ) {
        if (!entry.issued && entry.addr == addr)
            return &entry;
    }
    return nullptr;
}

bool
MemController::tryWrite(const WriteReq &req)
{
    cnvm_assert(isLineAligned(req.addr));

    // Does this write require the data/counter ready-bit pairing?
    bool pair = false;
    switch (cfg.design) {
      case DesignPoint::FCA:
        pair = true;                  // every write is counter-atomic
        break;
      case DesignPoint::SCA:
        pair = req.counterAtomic;     // only annotated writes
        break;
      default:
        pair = false;                 // no separate pairing
        break;
    }

    // Dependent-write blocking (Figure 7a): a counter-atomic write
    // whose counter line is being written to the device right now must
    // wait until that write completes — an in-flight transfer cannot
    // absorb new values. (A still-queued entry is no obstacle: the new
    // counter merges into it in the same atomic pairing action.)
    if (pair && ctrQueueHasIssued(counterLineAddr(req.addr))) {
        ++pairBlocks;
        return false;
    }

    // The controller input buffer in front of the encryption pipeline
    // is finite; refusal here is rare and only under severe backlog.
    if (landingQ.size() >= landingCapacity) {
        ++writeRejects;
        return false;
    }

    Tick now = eventq.curTick();
    std::uint64_t epoch = pipelineEpoch;
    std::uint64_t counter = 0;

    if (cfg.design != DesignPoint::NoEncryption) {
        // Assign a fresh counter from the global counter at engine
        // entry (section 5.2.1, write accesses); the ciphertext and
        // queue entries appear at pipeline exit.
        counter = ++globalCounter;
        if (pair)
            ++atomicPairs;
    }

    Tick lat = cfg.design == DesignPoint::NoEncryption
        ? cfg.acceptLatency : cfg.encLatency;
    ++pipelineWrites;
    ++pendingLineWrites[req.addr];
    emitEvent(CtlEvent::PipelineEnter);
    scheduleAt(eventq, now + lat, [this, epoch, req, counter, pair]() {
        if (epoch != pipelineEpoch)
            return;
        --pipelineWrites;
        landingQ.push_back([this, req, counter, pair]() {
            if (!landDataWrite(req, counter, pair))
                return false;
            // The line is now visible in the data queue; stop
            // tracking it as in-pipeline.
            auto pending = pendingLineWrites.find(req.addr);
            cnvm_assert(pending != pendingLineWrites.end());
            if (--pending->second == 0)
                pendingLineWrites.erase(pending);
            return true;
        });
        processLandings();
    });
    return true;
}

void
MemController::processLandings()
{
    while (!landingQ.empty()) {
        if (!landingQ.front()())
            return; // head cannot claim a slot yet
        landingQ.pop_front();
    }
}

void
MemController::scheduleDrainKick()
{
    // Deferring the kick to the end of the current tick lets every
    // same-tick arrival land (and coalesce) before any entry issues.
    if (kickScheduled)
        return;
    kickScheduled = true;
    std::uint64_t epoch = pipelineEpoch;
    scheduleAt(eventq, eventq.curTick(), [this, epoch]() {
        if (epoch != pipelineEpoch)
            return; // the power failure already reset kickScheduled
        kickScheduled = false;
        kickDrain();
    }, EventQueue::MaxPriority);
}

bool
MemController::landDataWrite(const WriteReq &req, std::uint64_t counter,
                             bool pair)
{
    bool encrypted = cfg.design != DesignPoint::NoEncryption;
    Addr ctr_addr = counterLineAddr(req.addr);
    unsigned slot = counterSlot(req.addr);

    // Claim the queue slots this write needs. Entering the write queue
    // is the ADR acceptance point the upstream fence waits on.
    DataEntry *entry =
        cfg.writeCombining ? findUnissuedData(req.addr) : nullptr;
    if (entry == nullptr && !haveDataSlot())
        return false;
    bool ctr_mergeable =
        cfg.writeCombining && findUnissuedCtr(ctr_addr) != nullptr;
    if (pair && !ctr_mergeable && !haveCtrSlot())
        return false;

    LineData cipher = encrypted
        ? ctrEngine.encrypt(req.addr, counter, req.data)
        : req.data;

    if (entry != nullptr) {
        // Write combining: a newer write to a still-queued line
        // replaces its ciphertext (and counter) in place.
        entry->cipher = cipher;
        entry->counter = counter;
        ++dataCoalesces;
    } else {
        cnvm_assert(haveDataSlot());
        dataQ.push_back({sequencer->acquire(), req.addr,
                         nvm.bankOf(req.addr), cipher, counter});
        ++dataInserts;
    }

    if (pair) {
        // Atomic pairing action: the counter-line values (currently
        // visible values plus this write's counter) enter the counter
        // queue in the same step as the data entry, so neither side
        // can persist without the other (section 5.2.2).
        CounterLine values = visibleCounters(ctr_addr);
        values[slot] = counter;
        // FCA writes the counter back at cache-line granularity, which
        // "unnecessarily increases the write traffic" (section 4.1);
        // SCA's enforcement hardware knows the dirty mask from the
        // counter cache and writes only the touched counters.
        std::uint8_t mask;
        if (cfg.design == DesignPoint::FCA) {
            mask = 0xff;
        } else {
            mask = static_cast<std::uint8_t>(1u << slot);
            if (counterCache != nullptr) {
                if (CounterCacheLine *line = counterCache->peek(ctr_addr))
                    mask |= line->dirtyMask;
            }
        }
        enqueueCtrValues(ctr_addr, values, mask);
        // Write-through: the counter cache copy is now clean — every
        // deferred value on the line just entered the counter queue.
        applyCounterToCache(req.addr, counter, false, true);
        if (counterCache != nullptr) {
            if (CounterCacheLine *line = counterCache->peek(ctr_addr))
                line->dirtyMask = 0;
        }
        emitEvent(CtlEvent::PairAction);
    } else if (encrypted && counterCache != nullptr) {
        // Deferred counter persistence: the update is only dirty in
        // the counter cache (SCA/Unsafe), or persistence is free
        // (Ideal), or the counter rides with the data (ColocatedCC).
        bool dirty = cfg.design == DesignPoint::SCA
                  || cfg.design == DesignPoint::Unsafe;
        applyCounterToCache(req.addr, counter, dirty, true);
    }

    if (req.accepted) {
        if (pair) {
            // The ready-bit pairing handshake delays completion
            // (section 5.2.2 steps 5-7): the write is "complete" only
            // once both queues have cross-checked their entries.
            scheduleAfter(eventq, cfg.pairLatency, req.accepted);
        } else {
            req.accepted();
        }
    }
    scheduleDrainKick();
    return true;
}

void
MemController::enqueueCtrValues(Addr ctr_addr, const CounterLine &values,
                                std::uint8_t dirty_mask)
{
    CtrEntry *existing =
        cfg.writeCombining ? findUnissuedCtr(ctr_addr) : nullptr;
    if (existing != nullptr) {
        for (unsigned s = 0; s < countersPerLine; ++s)
            existing->values[s] = std::max(existing->values[s], values[s]);
        existing->dirtyMask |= dirty_mask;
        ++ctrCoalesces;
        return;
    }

    cnvm_assert(haveCtrSlot());
    ctrQ.push_back({sequencer->acquire(), ctr_addr, nvm.bankOf(ctr_addr),
                    values, dirty_mask});
    ++ctrInserts;
}

void
MemController::applyCounterToCache(Addr data_line_addr,
                                   std::uint64_t counter, bool make_dirty,
                                   bool charge_fill_on_miss)
{
    if (counterCache == nullptr)
        return;

    Addr ctr_addr = counterLineAddr(data_line_addr);
    unsigned slot = counterSlot(data_line_addr);

    if (CounterCacheLine *line = counterCache->access(ctr_addr)) {
        ++counterCache->writeHits;
        line->values[slot] = std::max(line->values[slot], counter);
        if (make_dirty)
            line->dirtyMask |= static_cast<std::uint8_t>(1u << slot);
        return;
    }

    ++counterCache->writeMisses;
    // A write miss does not stall (section 5.2.1): the line is fetched
    // in the background. The fill read is charged for bus/bank
    // occupancy; the install happens immediately for simplicity.
    if (charge_fill_on_miss && designSeparateCounters(cfg.design)) {
        ++ccFillReads;
        nvm.scheduleRead(ctr_addr, eventq.curTick());
    }
    CounterLine values = memoryViewCounters(ctr_addr);
    values[slot] = std::max(values[slot], counter);
    auto victim = counterCache->install(
        ctr_addr, values,
        make_dirty ? static_cast<std::uint8_t>(1u << slot) : 0);
    if (victim)
        handleCcEviction(*victim);
}

void
MemController::handleCcEviction(const Victim<CounterCacheLine> &ev)
{
    // Only SCA and Unsafe defer counter persistence, so only their
    // counter lines are ever dirty; the other designs install clean.
    cnvm_assert(cfg.design == DesignPoint::SCA
                || cfg.design == DesignPoint::Unsafe);
    emitEvent(CtlEvent::DirtyEviction);
    if (haveCtrSlot()) {
        enqueueCtrValues(ev.addr, ev.values, ev.dirtyMask);
        kickDrain();
    } else {
        pendingCcEvictions.push_back(ev);
    }
}

void
MemController::drainPendingCcEvictions()
{
    while (!pendingCcEvictions.empty() && haveCtrSlot()) {
        enqueueCtrValues(pendingCcEvictions.front().addr,
                         pendingCcEvictions.front().values,
                         pendingCcEvictions.front().dirtyMask);
        pendingCcEvictions.pop_front();
    }
}

void
MemController::noteCounterPersist(Addr ctr_line_addr)
{
    if (!cfg.integrityTree)
        return;
    const std::uint64_t leaf =
        (ctr_line_addr - cfg.counterRegionBase) / lineBytes;
    // The coalescing rule (Freij et al.): a leaf dirtied twice within
    // one epoch costs one write-back, not two.
    if (dirtyTreeLeaves.insert(leaf).second)
        ++treeLeafUpdates;
    else
        ++treeCoalesces;
    ++treeCtrPersists;
    if (treeCtrPersists % treeEpochDrains == 0)
        flushTreeEpoch();
}

void
MemController::flushTreeEpoch()
{
    if (dirtyTreeLeaves.empty())
        return;

    // The write-back set is the ancestor closure of the dirty leaves,
    // deduplicated level by level: leaves sharing a parent cost that
    // parent once. Each dirty counter-block leaf carries its 64 B
    // slot-hash line; every node above it (level 1 up to and including
    // the root) is an 8 B hash word.
    std::uint64_t bytes =
        std::uint64_t(lineBytes) * dirtyTreeLeaves.size();
    std::uint64_t nodes = 0;
    std::set<std::uint64_t> level = dirtyTreeLeaves;
    nodes += level.size();
    for (unsigned l = 1; l < treeRootLevel; ++l) {
        std::set<std::uint64_t> up;
        for (std::uint64_t index : level)
            up.insert(index / treeArity);
        level = std::move(up);
        nodes += level.size();
    }
    bytes += 8 * nodes;

    // One batched burst into the tree region above the counter store —
    // at this channel's own slot, so the flush occupies this channel's
    // bank group and bus, not channel 0's. The traffic (and the bank
    // time it occupies) is the overhead over MAC-only designs that
    // TreeOverhead.TreeCostsTicksAndBytesOverMacOnly checks.
    nvm.scheduleWrite(nvm.channelMap().treeFlushAddr(cfg.channelId),
                      eventq.curTick(), static_cast<unsigned>(bytes));
    treeNodeWrites += static_cast<double>(nodes);
    ++treeFlushes;
    dirtyTreeLeaves.clear();
}

bool
MemController::tryCtrWriteback(Addr data_line_addr,
                               std::function<void()> accepted)
{
    Tick now = eventq.curTick();

    auto accept_now = [this, now, accepted]() {
        if (accepted)
            scheduleAt(eventq, now + cfg.acceptLatency, accepted);
    };

    switch (cfg.design) {
      case DesignPoint::NoEncryption:
      case DesignPoint::Colocated:
      case DesignPoint::ColocatedCC:
      case DesignPoint::FCA:
        // Nothing deferred in these designs: counters are either
        // absent, co-located with data, or written through per write.
        ++ctrwbNoops;
        accept_now();
        return true;

      case DesignPoint::Ideal: {
        Addr ctr_addr = counterLineAddr(data_line_addr);
        if (CounterCacheLine *line = counterCache->peek(ctr_addr)) {
            nvm.persistedState().drainCounters(ctr_addr, line->values);
            noteCounterPersist(ctr_addr);
        }
        accept_now();
        return true;
      }

      case DesignPoint::SCA:
      case DesignPoint::Unsafe: {
        // The request flows through the controller pipeline and
        // snapshots the counter cache at landing, after any write that
        // preceded it in program order has updated its counters.
        if (landingQ.size() >= landingCapacity) {
            ++writeRejects;
            return false;
        }
        Addr ctr_addr = counterLineAddr(data_line_addr);
        std::uint64_t epoch = pipelineEpoch;
        scheduleAt(eventq, now + cfg.encLatency,
                   [this, epoch, ctr_addr,
                    accepted = std::move(accepted)]() {
            if (epoch != pipelineEpoch)
                return;
            landingQ.push_back([this, ctr_addr, accepted]() {
                CounterCacheLine *line = counterCache->peek(ctr_addr);
                if (line == nullptr || !line->dirty()) {
                    // Clean or absent: the values are already
                    // persistent or in flight; nothing to write back.
                    ++ctrwbNoops;
                } else {
                    // Without write combining the values never merge
                    // into a queued entry, so they always need a slot.
                    bool mergeable = cfg.writeCombining
                        && findUnissuedCtr(ctr_addr) != nullptr;
                    if (!mergeable && !haveCtrSlot())
                        return false;
                    enqueueCtrValues(ctr_addr, line->values,
                                     line->dirtyMask);
                    line->dirtyMask = 0;
                }
                if (accepted)
                    accepted();
                scheduleDrainKick();
                return true;
            });
            processLandings();
        });
        return true;
      }
    }
    return false;
}

void
MemController::registerRetry(std::function<void()> retry)
{
    retryCallbacks.push_back(std::move(retry));
}

void
MemController::notifyRetries()
{
    if (retryCallbacks.empty())
        return;
    std::vector<std::function<void()>> pending;
    pending.swap(retryCallbacks);
    Tick now = eventq.curTick();
    for (auto &cb : pending)
        scheduleAt(eventq, now, std::move(cb));
}

// ----------------------------------------------------------------------
// Drain engine
// ----------------------------------------------------------------------

void
MemController::kickDrain()
{
    // Writes drain opportunistically: the bank-free issue gate plus
    // PCM write pausing keep them off the read critical path, so there
    // is no reason to hold the queues back.
    while (inflightWrites < maxInflightWrites) {
        if (!issueOneWrite())
            break;
    }
}

bool
MemController::issueOneWrite()
{
    Tick now = eventq.curTick();

    DataEntry *data_pick = nullptr;
    CtrEntry *ctr_pick = nullptr;

    // Writes are only handed to the device once their bank is free —
    // reserving a busy bank would park the shared bus in the future
    // and block later reads. When every candidate's bank is busy, a
    // drain kick is scheduled for the earliest bank-free tick.
    //
    // All designs share the bank-aware scheduler: the oldest unissued
    // entry whose bank is free, from whichever queue is fuller
    // relative to its capacity. FCA's penalties are the ready-bit
    // pairing, the per-write counter traffic and the counter-queue
    // occupancy it induces (sections 3.2.2 and 4.1), not an
    // artificial drain order.
    Tick earliest_busy = maxTick;

    for (DataEntry &e : dataQ) {
        if (e.issued)
            continue;
        Tick free_at = nvm.bankFreeTick(e.bank);
        if (free_at <= now) {
            data_pick = &e;
            break;
        }
        earliest_busy = std::min(earliest_busy, free_at);
    }
    for (CtrEntry &e : ctrQ) {
        if (e.issued)
            continue;
        Tick free_at = nvm.bankFreeTick(e.bank);
        if (free_at <= now) {
            ctr_pick = &e;
            break;
        }
        earliest_busy = std::min(earliest_busy, free_at);
    }
    if (data_pick != nullptr && ctr_pick != nullptr) {
        double data_fill = static_cast<double>(dataQ.size())
                         / cfg.dataWqEntries;
        double ctr_fill = static_cast<double>(ctrQ.size())
                        / cfg.ctrWqEntries;
        if (ctr_fill > data_fill)
            data_pick = nullptr;
        else
            ctr_pick = nullptr;
    }

    if (data_pick == nullptr && ctr_pick == nullptr
        && earliest_busy != maxTick && !drainKickPending) {
        drainKickPending = true;
        std::uint64_t epoch = pipelineEpoch;
        scheduleAt(eventq, std::max(earliest_busy, now + 1),
                   [this, epoch]() {
            if (epoch != pipelineEpoch)
                return; // the power failure already reset drainKickPending
            drainKickPending = false;
            kickDrain();
        });
    }

    // Burst-completion events carry the pipeline epoch: a power failure
    // empties the queues and zeroes inflightWrites, so a completion
    // scheduled before the failure must become a no-op, not decrement
    // the freshly-zeroed counter of the next epoch.
    if (data_pick != nullptr) {
        data_pick->issued = true;
        ++inflightWrites;
        Tick done = nvm.scheduleWrite(data_pick->addr, now, dataBusBytes);
        std::uint64_t seq = data_pick->seq;
        std::uint64_t epoch = pipelineEpoch;
        scheduleAt(eventq, done, [this, seq, epoch]() {
            if (epoch == pipelineEpoch)
                completeDataDrain(seq);
        });
        return true;
    }
    if (ctr_pick != nullptr) {
        ctr_pick->issued = true;
        ++inflightWrites;
        unsigned touched = std::popcount(ctr_pick->dirtyMask);
        if (touched == 0)
            touched = 1;
        Tick done = nvm.scheduleWrite(ctr_pick->addr, now,
                                      touched * counterBytes);
        std::uint64_t seq = ctr_pick->seq;
        std::uint64_t epoch = pipelineEpoch;
        scheduleAt(eventq, done, [this, seq, epoch]() {
            if (epoch == pipelineEpoch)
                completeCtrDrain(seq);
        });
        return true;
    }
    // Nothing eligible right now; a later completion or insertion will
    // kick the drain again.
    return false;
}

void
MemController::persistDataEntry(const DataEntry &entry)
{
    persistDataEntryTo(nvm.persistedState(), entry);
    // The co-located and ideal designs persist the covering counter
    // word inside the data drain itself; mirror that into the tree.
    switch (cfg.design) {
      case DesignPoint::Colocated:
      case DesignPoint::ColocatedCC:
      case DesignPoint::Ideal:
        noteCounterPersist(counterLineAddr(entry.addr));
        break;
      default:
        break;
    }
}

void
MemController::persistDataEntryTo(PersistImage &img,
                                  const DataEntry &entry) const
{
    img.drainData(entry.addr, entry.cipher, entry.counter);
    // Integrity metadata rides the same burst in the ECC spare bits:
    // persisted atomically with the line, costing no extra traffic.
    if (cfg.integrityMac) {
        img.drainMac(entry.addr, ctrEngine.lineMac(entry.addr,
                                                   entry.counter,
                                                   entry.cipher));
    }

    // Designs whose counter persistence accompanies the data write.
    switch (cfg.design) {
      case DesignPoint::Colocated:
      case DesignPoint::ColocatedCC: {
        Addr ctr_addr = counterLineAddr(entry.addr);
        CounterLine values = img.persistedCounters(ctr_addr);
        values[counterSlot(entry.addr)] = entry.counter;
        img.drainCounters(ctr_addr, values);
        break;
      }
      case DesignPoint::Ideal: {
        Addr ctr_addr = counterLineAddr(entry.addr);
        CounterLine values = img.persistedCounters(ctr_addr);
        values[counterSlot(entry.addr)] =
            std::max(values[counterSlot(entry.addr)], entry.counter);
        img.drainCounters(ctr_addr, values);
        break;
      }
      default:
        break;
    }
}

ChannelReady
MemController::ready() const
{
    ChannelReady seqs;
    seqs.dataSeqs.reserve(dataQ.size());
    for (const DataEntry &entry : dataQ)
        seqs.dataSeqs.push_back(entry.seq);
    seqs.ctrSeqs.reserve(ctrQ.size());
    for (const CtrEntry &entry : ctrQ)
        seqs.ctrSeqs.push_back(entry.seq);
    return seqs;
}

void
MemController::drainCut(PersistImage &img, const AdrCut &cut) const
{
    // The kept data entries in queue (age) order, then the kept
    // counter entries — the order matters for the co-located designs,
    // whose data drains read-modify-write the counter store. An
    // energy-exhaustion fault loses the tail of the *global* drain
    // order, which computeDrainKeeps has already translated into the
    // per-channel keep prefixes of @p cut. A cut never keeps more
    // than the queued entries; dropVolatileState() counts the rest as
    // dropped.
    cnvm_assert(cut.dataKeep <= dataQ.size()
                && cut.ctrKeep <= ctrQ.size());
    for (unsigned i = 0; i < cut.dataKeep; ++i)
        persistDataEntryTo(img, dataQ[i]);
    for (unsigned i = 0; i < cut.ctrKeep; ++i)
        img.drainCounters(ctrQ[i].addr, ctrQ[i].values);
}

void
MemController::completeDataDrain(std::uint64_t seq)
{
    auto it = std::find_if(dataQ.begin(), dataQ.end(),
                           [seq](const DataEntry &e) { return e.seq == seq; });
    if (it != dataQ.end()) {
        persistDataEntry(*it);
        dataQ.erase(it);
    }
    cnvm_assert(inflightWrites > 0);
    --inflightWrites;
    emitEvent(CtlEvent::DataDrain);
    drainPendingCcEvictions();
    processLandings();
    notifyRetries();
    // Defer the next issue to the end of the tick (MaxPriority) so the
    // retries notified above — same tick, DefaultPriority — run first.
    // Kicking synchronously here would let a steady supply of ready
    // counter writes re-issue the hot counter line before any blocked
    // writer gets its re-attempt in, starving pair-blocked writes
    // indefinitely under high core counts.
    scheduleDrainKick();
}

void
MemController::completeCtrDrain(std::uint64_t seq)
{
    auto it = std::find_if(ctrQ.begin(), ctrQ.end(),
                           [seq](const CtrEntry &e) { return e.seq == seq; });
    if (it != ctrQ.end()) {
        nvm.persistedState().drainCounters(it->addr, it->values);
        noteCounterPersist(it->addr);
        ctrQ.erase(it);
    }
    cnvm_assert(inflightWrites > 0);
    --inflightWrites;
    emitEvent(CtlEvent::CtrDrain);
    drainPendingCcEvictions();
    processLandings();
    notifyRetries();
    // Same ordering contract as completeDataDrain: retries first, then
    // the end-of-tick drain kick, so a completed counter-line write
    // opens a real admission window for pair-blocked writers.
    scheduleDrainKick();
}

void
MemController::initLines(const Addr line_addrs[],
                         const LineData *const plaintexts[],
                         std::size_t n)
{
    constexpr unsigned lanes = crypto::CtrEngine::macLanes;
    const bool encrypted = cfg.design != DesignPoint::NoEncryption;
    PersistImage &img = nvm.persistedState();
    for (std::size_t first = 0; first < n; first += lanes) {
        const std::size_t k = std::min<std::size_t>(lanes, n - first);
        const Addr *addrs = line_addrs + first;

        // Counters in call order, then the batch's ciphertexts and
        // MACs; unencrypted lines persist their plaintext at counter 0.
        std::uint64_t counters[lanes] = {};
        LineData ciphers[lanes] = {};
        const LineData *cipher_ptrs[lanes] = {};
        for (std::size_t i = 0; i < k; ++i) {
            cnvm_assert(isLineAligned(addrs[i]));
            const LineData &plain = *plaintexts[first + i];
            if (encrypted) {
                counters[i] = ++globalCounter;
                ciphers[i] = ctrEngine.encrypt(addrs[i], counters[i],
                                               plain);
                cipher_ptrs[i] = &ciphers[i];
            } else {
                cipher_ptrs[i] = &plain;
            }
        }
        std::uint64_t macs[lanes] = {};
        if (cfg.integrityMac)
            ctrEngine.lineMacs(addrs, counters, cipher_ptrs, macs, k);

        for (std::size_t i = 0; i < k; ++i) {
            img.drainData(addrs[i], *cipher_ptrs[i], counters[i]);
            if (cfg.integrityMac)
                img.drainMac(addrs[i], macs[i]);
            if (!encrypted)
                continue;
            Addr ctr_addr = counterLineAddr(addrs[i]);
            CounterLine values = img.persistedCounters(ctr_addr);
            values[counterSlot(addrs[i])] = counters[i];
            img.drainCounters(ctr_addr, values);
        }
    }
}

void
MemController::warmCounterLine(Addr data_line_addr)
{
    if (counterCache == nullptr)
        return;
    Addr ctr_addr = counterLineAddr(data_line_addr);
    if (counterCache->peek(ctr_addr) != nullptr)
        return;
    auto victim =
        counterCache->install(ctr_addr, memoryViewCounters(ctr_addr), 0);
    // Warming installs clean lines only; victims are clean too.
    cnvm_assert(!victim.has_value());
}

// ----------------------------------------------------------------------
// Crash
// ----------------------------------------------------------------------

void
MemController::crash(unsigned adr_drop_tail)
{
    cnvm_assert(!cfg.integrityTree);
    const AdrCut cut = computeDrainKeeps({ready()}, adr_drop_tail).front();
    drainCut(nvm.persistedState(), cut);
    dropVolatileState(cut);
}

void
MemController::dropVolatileState(const AdrCut &cut)
{
    // ADR drained exactly the kept entries (section 5.2.2, steps 4-5);
    // every queued entry outside the cut counts as dropped.
    crashDroppedData += dataQ.size() - cut.dataKeep;
    crashDroppedCtr += ctrQ.size() - cut.ctrKeep;

    // In the ideal design every counter is persisted alongside its data
    // at drain time, so nothing in the counter cache can be lost; no
    // extra work is needed here.

    ++pipelineEpoch; // in-flight pipeline events become no-ops
    pipelineWrites = 0;
    landingQ.clear();
    dataQ.clear();
    ctrQ.clear();
    pendingLineWrites.clear();
    inflightWrites = 0;
    outstandingReads = 0;
    pendingCcEvictions.clear();
    retryCallbacks.clear();
    dirtyTreeLeaves.clear(); // the System flushed the tree; the mirror dies

    // The encryption engine's counter registers are volatile and die
    // with the power failure; what survives is the persisted counter
    // region. Model the recovery-time counter scan here (shared with
    // the resume-after-recovery path, which re-seeds a fresh system
    // from a recovered image the same way).
    reseedFromPersistedImage();

    cnvm_assert(writesIdle());
    cnvm_assert(outstandingReads == 0);
}

void
MemController::reseedFromPersistedImage()
{
    // Restart the global counter strictly above every persisted
    // value, so a post-crash (or post-resume) write can never re-pair
    // a persisted counter with new ciphertext (see DESIGN.md,
    // "Counter state across a power failure").
    globalCounter = 0;
    nvm.persistedState().forEachCounterLine(
        [this](Addr ctr_addr, const CounterLine &values) {
            // The image is shared across channels; this channel's
            // engine only scans the counter lines it owns.
            if (ctrLineChannel(ctr_addr) != cfg.channelId)
                return;
            for (std::uint64_t value : values)
                globalCounter = std::max(globalCounter, value);
        });
    // Pending kick events from before the failure are epoch-guarded
    // no-ops, so they will never clear these flags themselves; left
    // set, they would wedge the drain engine of the post-crash state.
    kickScheduled = false;
    drainKickPending = false;
    if (counterCache != nullptr)
        counterCache->reset();
}

} // namespace cnvm
