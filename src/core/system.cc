#include "core/system.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "integrity/integrity_tree.hh"

namespace cnvm
{

namespace
{

/** Per-core bank-stagger step (see build(): 33 lines, coprime to the
 *  bank-interleave period). */
constexpr Addr bankStaggerStep = Addr(33) * lineBytes;

/**
 * Stride between per-core regions, rounded for clean bank mapping and
 * padded so that every core's staggered region still fits inside its
 * own slot: core i's region starts bankStaggerStep * i past its slot
 * base, so the slot must absorb the largest stagger or the last cores
 * would bleed into their neighbours' slots.
 */
Addr
regionStride(const WorkloadParams &wl, unsigned num_cores)
{
    Addr max_stagger = Addr(num_cores - 1) * bankStaggerStep;
    return roundUp(wl.regionBytes + max_stagger, 1ull << 20);
}

/** Validated interleave map for the configured channel count. */
ChannelMap
makeChannelMap(const SystemConfig &cfg)
{
    if (!isPowerOf2(cfg.numChannels))
        cnvm_fatal("numChannels must be a nonzero power of two, got %u",
                   cfg.numChannels);
    return ChannelMap(cfg.numChannels, cfg.memctl.counterRegionBase);
}

} // anonymous namespace

System::System(const SystemConfig &cfg_in)
    : cfg(cfg_in),
      nvmDev(cfg_in.nvm, &registry, makeChannelMap(cfg_in))
{
    cnvm_assert(cfg.numCores >= 1);
    build(nullptr);
}

System::System(const SystemConfig &cfg_in, ResumeState resume)
    : cfg(cfg_in),
      nvmDev(cfg_in.nvm, &registry, makeChannelMap(cfg_in))
{
    cnvm_assert(cfg.numCores >= 1);
    cnvm_assert(resume.committedTxns.size() == cfg.numCores);
    cnvm_assert(resume.quarantined.size() == cfg.numCores);
    build(&resume);
}

System::~System() = default;

void
System::build(ResumeState *resume)
{
    MemCtlConfig mc = cfg.memctl;
    mc.design = cfg.design;
    mc.numChannels = cfg.numChannels;
    // The configured counter-cache capacity is the explicit system
    // total; each channel owns an equal slice of it.
    if (!MemController::counterCacheSplits(cfg.memctl.counterCacheBytes,
                                           cfg.numChannels)) {
        cnvm_fatal("counter cache (%llu B) does not split evenly over "
                   "%u channels into a power-of-two number of 1 KB sets",
                   static_cast<unsigned long long>(
                       cfg.memctl.counterCacheBytes),
                   cfg.numChannels);
    }
    mc.counterCacheBytes = cfg.memctl.counterCacheBytes / cfg.numChannels;
    for (unsigned ch = 0; ch < cfg.numChannels; ++ch) {
        mc.channelId = ch;
        memCtls.push_back(std::make_unique<MemController>(
            eventq, nvmDev, mc, &registry, &sequencer));
    }

    MemBackend *backend = memCtls.front().get();
    if (cfg.numChannels > 1) {
        std::vector<MemBackend *> chans;
        chans.reserve(memCtls.size());
        for (auto &ctl : memCtls)
            chans.push_back(ctl.get());
        router = std::make_unique<ChannelRouter>(std::move(chans),
                                                 nvmDev.channelMap());
        backend = router.get();
    }

    ClockDomain cpu_clock(static_cast<Tick>(1000.0 / cpuGHz));

    // Each path keeps a reference to its view: size the vector first.
    liveViews.resize(cfg.numCores);
    Addr prev_region_end = 0;
    for (unsigned i = 0; i < cfg.numCores; ++i) {
        WorkloadParams wl = cfg.wl;
        // The stagger keeps different cores' hot lines (log headers,
        // metadata) off the same NVM banks: a plain power-of-two
        // stride is a multiple of the bank-interleave period, which
        // would pile every core's log area onto one bank.
        Addr bank_stagger = Addr(i) * bankStaggerStep;
        wl.regionBase = cfg.dataRegionBase
                      + i * regionStride(cfg.wl, cfg.numCores)
                      + bank_stagger;
        // Layout guards: a region that reaches into its neighbour (or
        // past the data half of the address space into the counter
        // store) would silently corrupt another core's state long
        // before any crash machinery could notice.
        if (wl.regionBase < prev_region_end) {
            cnvm_fatal("core %u region [%#llx, %#llx) overlaps core %u "
                       "(stride too small for the bank stagger)",
                       i,
                       static_cast<unsigned long long>(wl.regionBase),
                       static_cast<unsigned long long>(wl.regionBase
                                                       + wl.regionBytes),
                       i - 1);
        }
        prev_region_end = wl.regionBase + wl.regionBytes;
        if (prev_region_end > cfg.memctl.counterRegionBase) {
            cnvm_fatal("core %u region [%#llx, %#llx) overflows into "
                       "the counter region at %#llx",
                       i,
                       static_cast<unsigned long long>(wl.regionBase),
                       static_cast<unsigned long long>(prev_region_end),
                       static_cast<unsigned long long>(
                           cfg.memctl.counterRegionBase));
        }
        wl.seed = cfg.coreSeed(i);
        workloads.push_back(makeWorkload(cfg.workload, wl));

        memPaths.push_back(std::make_unique<CoreMemPath>(
            eventq, cpu_clock, *backend, liveViews[i], cfg.cache, i,
            &registry));
        cores.push_back(std::make_unique<Core>(
            eventq, cpu_clock, *memPaths.back(), *workloads.back(), i,
            &registry));
        cores.back()->setOnFinished([this]() {
            ++finishedCores;
            if (finishedCores == cfg.numCores) {
                if (injector)
                    injector->disarm();
                eventq.requestStop();
            }
        });
    }

    const ChannelMap &map = nvmDev.channelMap();
    if (resume == nullptr) {
        // Install each workload's initial state consistently: live
        // view, encrypted image and counters, as a freshly booted
        // system.
        for (unsigned i = 0; i < cfg.numCores; ++i)
            installFresh(i);
    } else {
        // Resume-after-recovery: the recovered image is the persisted
        // truth — nothing is re-initialized on media. Each workload
        // replays its deterministic history host-side (setup with a
        // no-op writer, then fast-forward to the committed count),
        // which regenerates its shadow, RNG, allocator state and
        // digest log byte-identically to the pre-crash run's — the
        // digest log in particular must cover [0, K] so the *next*
        // recovery can match any prefix. Only the device's image is
        // replaced: its banks and bus start cold at tick 0, as in a
        // freshly built system.
        nvmDev.persistedState() = std::move(resume->image);
        // Channel counter state rebuilds from the persisted store
        // first, exactly as a crash leaves it — the re-seed
        // equivalence argument of DESIGN.md section 4i. Order matters:
        // a fresh-incarnation core below allocates new counters
        // through initLines(), which must continue above every
        // persisted value so no (address, counter) pair is reused.
        for (auto &ctl : memCtls)
            ctl->reseedFromPersistedImage();
        for (unsigned i = 0; i < cfg.numCores; ++i) {
            Workload &wl = *workloads[i];
            if (i < resume->fresh.size() && resume->fresh[i]) {
                // Unrecoverable core: restart its workload from
                // scratch over the surviving media, as a first boot
                // would. The old incarnation's untouched lines stay
                // verifiable free space; its quarantined lines keep
                // their tombstones until setup or the new run drains
                // fresh triples over them.
                installFresh(i);
                continue;
            }
            wl.setup([](Addr, const void *, unsigned) {});
            if (resume->committedTxns[i] >= cfg.wl.txnTarget) {
                cnvm_fatal("resume: core %u committed %llu txns but "
                           "txnTarget is %u — nothing left to run",
                           i,
                           static_cast<unsigned long long>(
                               resume->committedTxns[i]),
                           cfg.wl.txnTarget);
            }
            std::vector<Op> discard;
            for (std::uint64_t k = 0; k < resume->committedTxns[i];
                 ++k) {
                discard.clear();
                bool more = wl.next(discard);
                cnvm_assert(more);
            }
            // Quarantined lines read as zeros everywhere the resumed
            // machine can see them: shadow first (it is the
            // program-order truth the digest log and validation walk),
            // then the live view below inherits the zeros. The media
            // keeps the tombstoned triple until a legitimate rewrite
            // drains fresh (cipher, counter, MAC) over it.
            LineData zeros{};
            for (Addr qa : resume->quarantined[i])
                wl.shadowMem().write(qa, zeros.data(), lineBytes);
            // Live plaintext view := the fast-forwarded shadow, sharing
            // its pages. The shadow, not the decrypted image, is
            // authoritative here: a writeback snapshots the whole line
            // from the live view, bytes the resumed run never stores
            // included, so the live view must equal the program-order
            // content the shadow carries.
            liveViews[i] = LiveView(wl.shadowMem().table());
        }
    }
    if (cfg.warmCounterCache) {
        // Separate pass: warming during installation would capture
        // counter lines whose neighbouring slots are not yet
        // initialized, and a later flush of that stale (clean) copy
        // would regress the persisted counters. The warm walks each
        // core's shadow in ascending address order, core by core; when
        // the footprint's counter lines outnumber the cache, that
        // order decides which of them are resident when the run starts.
        for (auto &wl : workloads) {
            wl->shadowMem().table().forEach(
                [this, &map](Addr addr, const LineData &) {
                    memCtls[map.channelOf(addr)]->warmCounterLine(addr);
                });
        }
    }
}

void
System::installFresh(unsigned core)
{
    // Setup writes only the shadow (Workload::initWrite): the live view
    // and the image are both built from it afterwards.
    Workload &wl = *workloads[core];
    wl.setup([](Addr, const void *, unsigned) {});
    const ShadowMem &shadow = wl.shadowMem();
    liveViews[core] = LiveView(shadow.table());

    // Route each line to its owning channel so the per-channel counter
    // engines see exactly their shard. Each channel receives its lines
    // in ascending address order, so it assigns every line the counter
    // a line-by-line install would; the lines are staged per channel
    // and handed over one MAC batch at a time.
    constexpr unsigned lanes = crypto::CtrEngine::macLanes;
    struct Staged
    {
        Addr addrs[lanes] = {};
        const LineData *plains[lanes] = {};
        std::size_t n = 0;
    };
    std::vector<Staged> staged(memCtls.size());
    auto flush = [this, &staged](std::size_t c) {
        memCtls[c]->initLines(staged[c].addrs, staged[c].plains,
                              staged[c].n);
        staged[c].n = 0;
    };
    const ChannelMap &map = nvmDev.channelMap();
    shadow.table().forEach([&](Addr addr, const LineData &data) {
        const std::size_t c = map.channelOf(addr);
        Staged &st = staged[c];
        st.addrs[st.n] = addr;
        st.plains[st.n] = &data;
        if (++st.n == lanes)
            flush(c);
    });
    for (std::size_t c = 0; c < staged.size(); ++c)
        if (staged[c].n > 0)
            flush(c);
}

RunResult
System::runInternal()
{
    for (auto &core : cores)
        core->start();
    eventq.run();

    RunResult result;
    result.crashed = lastResult.crashed;
    if (result.crashed) {
        result.endTick = lastResult.endTick;
    } else {
        Tick latest = 0;
        for (auto &core : cores)
            latest = std::max(latest, core->finishedAt());
        result.endTick = latest;
        // Let outstanding queue drains settle for accurate traffic
        // accounting.
        eventq.run();
    }
    for (auto &wl : workloads)
        result.txnsIssued += wl->txnsIssued();
    lastResult = result;
    return result;
}

void
System::setCtlEventHook(std::function<void(CtlEvent)> hook)
{
    for (auto &ctl : memCtls)
        ctl->setEventHook(hook);
}

RunResult
System::run()
{
    return runInternal();
}

std::vector<AdrCut>
System::crashDrain(PersistImage &img, const FaultSpec &faults) const
{
    // The energy loss is drawn over every channel's queued entries and
    // lost off the tail of the shared sequence order: computeDrainKeeps
    // turns it into per-channel keep prefixes.
    std::vector<ChannelReady> ready;
    unsigned queued = 0;
    for (const auto &ctl : memCtls) {
        ready.push_back(ctl->ready());
        queued += ready.back().dataSeqs.size() + ready.back().ctrSeqs.size();
    }
    const Addr ctr_base = controller().config().counterRegionBase;
    FaultModel fm(faults, ctr_base);
    std::vector<AdrCut> cuts =
        computeDrainKeeps(ready, fm.adrDropCount(queued));
    for (std::size_t c = 0; c < memCtls.size(); ++c)
        memCtls[c]->drainCut(img, cuts[c]);

    // The ADR budget's last act: flush the integrity tree once over
    // the merged image, so the root persists last *globally*, after
    // every channel's counters. The controllers' volatile mirror is
    // (by their noteCounterPersist hooks) the tree of the persisted
    // counter store, so the flush is modeled as a rebuild from the
    // image's own store — before the media faults land, which is why
    // a replayed counter word can never agree with the persisted tree.
    if (controller().config().integrityTree)
        rebuildTree(img, ctr_base, 0, ~Addr(0));
    fm.applyMediaFaults(img);
    return cuts;
}

void
System::crashChannels(const FaultSpec &faults)
{
    std::vector<AdrCut> cuts = crashDrain(nvmDev.persistedState(), faults);
    for (std::size_t c = 0; c < memCtls.size(); ++c)
        memCtls[c]->dropVolatileState(cuts[c]);
    for (LiveView &view : liveViews)
        view = LiveView{};
}

CrashSnapshot
System::snapshotNow() const
{
    CrashSnapshot snap;
    snap.valid = true;
    snap.tick = eventq.curTick();
    for (const auto &ctl : memCtls) {
        snap.dataQueue += ctl->dataQueueOccupancy();
        snap.ctrQueue += ctl->ctrQueueOccupancy();
        snap.landing += ctl->landingDepth();
        snap.pipeline += ctl->pipelineDepth();
        snap.inflight += ctl->inflightDepth();
        snap.outstandingReads += ctl->outstandingReadCount();
    }
    return snap;
}

void
System::doCrash()
{
    lastResult.crashed = true;
    lastResult.endTick = eventq.curTick();
    snapshot = snapshotNow();

    for (auto &core : cores)
        core->halt();
    for (auto &path : memPaths)
        path->dropAll();
    crashChannels(activeSpec.faults);
    eventq.requestStop();
}

RunResult
System::runWithCrashAt(Tick crash_tick)
{
    return runWithCrash(CrashSpec::atTick(crash_tick));
}

RunResult
System::runWithCrash(const CrashSpec &spec)
{
    activeSpec = spec;
    injector = std::make_unique<CrashInjector>(
        eventq, std::vector<CrashSpec>{spec},
        [this](std::size_t) { doCrash(); });
    if (ctlEventFor(spec.kind)) {
        setCtlEventHook(
            [this](CtlEvent ev) { injector->onCtlEvent(ev); });
    }
    injector->start();
    return runInternal();
}

PersistFork
System::captureFork(const CrashSpec &spec) const
{
    PersistFork fork;
    fork.snapshot = snapshotNow();

    // Persisted state as a crash here would leave it: a copy of the
    // device's image, drained and dosed exactly as crashChannels()
    // drains and doses the device's own. The copy shares the trunk's
    // pages until the drain writes them, so the trunk's image stays
    // untouched.
    fork.image = nvmDev.persistedState();
    crashDrain(fork.image, spec.faults);

    // Digest logs snapshot: the trunk keeps committing after the
    // capture, and the committed-prefix search must not see the fork's
    // future.
    fork.coreDigests.reserve(workloads.size());
    for (const auto &wl : workloads)
        fork.coreDigests.push_back(wl->digests());
    return fork;
}

RunResult
System::runWithForkCapture(const std::vector<CrashSpec> &specs,
                           ForkSink sink)
{
    bool semantic = false;
    for (const CrashSpec &spec : specs)
        semantic = semantic || ctlEventFor(spec.kind).has_value();

    injector = std::make_unique<CrashInjector>(
        eventq, specs,
        [this, specs, sink = std::move(sink)](std::size_t i) {
            PersistFork fork = captureFork(specs[i]);
            fork.planIndex = i;
            sink(i, std::move(fork));
        });
    if (semantic) {
        setCtlEventHook(
            [this](CtlEvent ev) { injector->onCtlEvent(ev); });
    }
    injector->start();
    return runInternal();
}

std::vector<RecoveryReport>
System::recoverAll()
{
    RecoveryEngine engine(nvmDev.persistedState(), controller());
    std::vector<RecoveryReport> reports;
    reports.reserve(workloads.size());
    for (auto &wl : workloads)
        reports.push_back(engine.recover(*wl));
    return reports;
}

std::vector<OracleReport>
System::examineAll()
{
    CrashOracle oracle(nvmDev.persistedState(), controller());
    std::vector<OracleReport> reports;
    reports.reserve(workloads.size());
    for (auto &wl : workloads)
        reports.push_back(oracle.examine(*wl));
    return reports;
}

bool
System::recoveredConsistently(std::string *first_failure)
{
    for (const RecoveryReport &report : recoverAll()) {
        if (!report.consistent) {
            if (first_failure != nullptr)
                *first_failure = report.detail;
            return false;
        }
    }
    return true;
}

double
System::throughputTxnPerSec() const
{
    if (lastResult.endTick == 0)
        return 0.0;
    double seconds = static_cast<double>(lastResult.endTick) * 1e-12;
    return static_cast<double>(lastResult.txnsIssued) / seconds;
}

double
System::counterCacheMissRate() const
{
    double hit_count = 0.0;
    double miss_count = 0.0;
    bool found = false;
    for (unsigned c = 0; c < cfg.numChannels; ++c) {
        std::string prefix = "ctrcache.ch" + std::to_string(c) + ".";
        const stats::Stat *hits = registry.find(prefix + "read_hits");
        const stats::Stat *misses = registry.find(prefix + "read_misses");
        if (hits == nullptr || misses == nullptr)
            continue;
        found = true;
        hit_count += hits->value();
        miss_count += misses->value();
    }
    if (!found)
        return 0.0;
    double total = hit_count + miss_count;
    return total == 0.0 ? 0.0 : miss_count / total;
}

std::string
System::describe() const
{
    std::ostringstream os;
    os << designName(cfg.design) << ", " << cfg.numCores << " core(s), "
       << cfg.numChannels << " channel(s), "
       << workloadKindName(cfg.workload) << ", "
       << (cfg.memctl.counterCacheBytes >> 10)
       << "KB counter cache total, "
       << cfg.memctl.dataWqEntries << "/" << cfg.memctl.ctrWqEntries
       << " data/counter WQ entries";
    return os.str();
}

} // namespace cnvm
