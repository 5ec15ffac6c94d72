/**
 * @file
 * Encrypted persistent key-value store: a small application built
 * directly on the library's transaction layer, showing how a user (not
 * one of the built-in workloads) programs against the selective
 * counter-atomicity interface.
 *
 * The store is a persistent hash table with update-in-place semantics.
 * Every put() runs as an undo-logging transaction whose staged op
 * stream (paper Figure 9) executes on the simulated encrypted NVMM.
 * At the end, the demo pulls the power mid-put, recovers the image,
 * and verifies that every committed put survived.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "common/hash.hh"
#include "core/system.hh"
#include "workloads/mem_io.hh"

using namespace cnvm;

namespace
{

/**
 * A fixed-bucket persistent KV store that doubles as a Workload so it
 * can run on the simulated system. Keys and values are 64-bit.
 */
class KvStoreWorkload : public Workload
{
  public:
    explicit KvStoreWorkload(const WorkloadParams &params)
        : Workload(params)
    {}

    const char *name() const override { return "KVStore"; }

    /** Host-visible model of the committed store, kept in lockstep. */
    const std::map<std::uint64_t, std::uint64_t> &model() const
    { return committed; }

    std::uint64_t
    digest(const ByteReader &reader) const override
    {
        std::uint64_t state = fnv1aU64(reader.readU64(cursorAddr()));
        for (std::uint64_t b = 0; b < kBuckets; ++b) {
            Addr node = reader.readU64(bucketAddr(b));
            unsigned hops = 0;
            while (node != 0 && hops++ < 10000
                   && inRegion(node) && isLineAligned(node)) {
                state = fnv1aU64(reader.readU64(node), state);
                state = fnv1aU64(reader.readU64(node + 8), state);
                node = reader.readU64(node + 16);
            }
        }
        return state;
    }

    ValidationResult
    validate(const ByteReader &reader) const override
    {
        for (std::uint64_t b = 0; b < kBuckets; ++b) {
            Addr node = reader.readU64(bucketAddr(b));
            unsigned hops = 0;
            while (node != 0) {
                if (!inRegion(node) || !isLineAligned(node))
                    return ValidationResult::fail("bad chain pointer");
                if (++hops > 100000)
                    return ValidationResult::fail("chain cycle");
                node = reader.readU64(node + 16);
            }
        }
        return ValidationResult::pass();
    }

    /** Reads the committed value of @p key from a recovered image. */
    bool
    lookup(const ByteReader &reader, std::uint64_t key,
           std::uint64_t &value) const
    {
        Addr node = reader.readU64(bucketAddr(bucketOf(key)));
        unsigned hops = 0;
        while (node != 0 && inRegion(node) && hops++ < 100000) {
            if (reader.readU64(node) == key) {
                value = reader.readU64(node + 8);
                return true;
            }
            node = reader.readU64(node + 16);
        }
        return false;
    }

    /** Puts committed so far (for prefix verification). */
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> &
    history() const
    {
        return puts;
    }

  protected:
    void
    doSetup() override
    {
        metaAddr = allocStatic(lineBytes);
        bucketsBase = allocStatic(kBuckets * 8);
        Addr pool = allocStatic(0);
        alloc = std::make_unique<PersistentAllocator>(cursorAddr(), pool,
                                                      regionEnd());
        alloc->initialize([this](Addr a, const void *d, unsigned s) {
            initWrite(a, d, s);
        });
        for (std::uint64_t b = 0; b < kBuckets; ++b)
            initWriteU64(bucketAddr(b), 0);
    }

    void
    buildTxn(UndoTx &tx) override
    {
        // One put() per transaction: insert-or-update.
        std::uint64_t key = rng.below(200); // small key space: updates!
        std::uint64_t value = rng.next();
        puts.emplace_back(key, value);

        Addr bucket = bucketAddr(bucketOf(key));
        Addr node = tx.readU64(bucket);
        while (node != 0) {
            if (tx.readU64(node) == key) {
                tx.writeU64(node + 8, value); // update in place
                committed[key] = value;
                return;
            }
            node = tx.readU64(node + 16);
        }
        TxIo io(tx, *alloc);
        Addr fresh = io.allocNode(lineBytes, lineBytes);
        if (fresh == 0)
            return;
        tx.writeU64(fresh, key);
        tx.writeU64(fresh + 8, value);
        tx.writeU64(fresh + 16, tx.readU64(bucket));
        tx.writeU64(bucket, fresh);
        committed[key] = value;
    }

  private:
    static constexpr std::uint64_t kBuckets = 256;

    Addr metaAddr = 0;
    Addr bucketsBase = 0;
    std::unique_ptr<PersistentAllocator> alloc;
    std::map<std::uint64_t, std::uint64_t> committed;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> puts;

    Addr cursorAddr() const { return metaAddr; }
    Addr bucketAddr(std::uint64_t b) const { return bucketsBase + b * 8; }
    std::uint64_t bucketOf(std::uint64_t key) const
    { return fnv1aU64(key) & (kBuckets - 1); }
};

} // anonymous namespace

int
main()
{
    std::printf("Encrypted persistent KV store on SCA hardware\n\n");

    // The System owns workload construction; plug the custom workload
    // in by running it directly on a System built around it. For a
    // custom OpSource, the simplest route is the components API:
    // EventQueue + NvmDevice + MemController + LiveView + CoreMemPath
    // + Core.
    SystemConfig cfg;
    cfg.design = DesignPoint::SCA;
    cfg.wl.regionBytes = 1 << 20;
    cfg.wl.txnTarget = 120;
    cfg.wl.recordDigests = true;

    EventQueue eq;
    stats::StatRegistry registry;
    NvmDevice nvm(cfg.nvm, &registry);
    MemCtlConfig mc = cfg.memctl;
    mc.design = cfg.design;
    MemController ctl(eq, nvm, mc, &registry);

    WorkloadParams wl = cfg.wl;
    wl.regionBase = cfg.dataRegionBase;
    KvStoreWorkload store(wl);
    // Setup fills the workload's shadow; the live view starts as a copy
    // of it that shares its pages, and the image is installed from it.
    store.setup();
    LiveView live(store.shadowMem().table());
    store.shadowMem().table().forEach(
        [&](Addr a, const LineData &data) { ctl.initLine(a, data); });
    // Warm in a second pass: warming while neighbours are still being
    // installed would capture stale counter lines.
    store.shadowMem().table().forEach(
        [&](Addr a, const LineData &) { ctl.warmCounterLine(a); });

    CoreMemPath path(eq, ClockDomain(250), ctl, live, cfg.cache, 0,
                     &registry);
    Core core(eq, ClockDomain(250), path, store, 0, &registry);
    core.start();

    // Pull the power roughly mid-run.
    bool crashed = false;
    scheduleAt(eq, nsToTicks(60000), [&]() {
        crashed = true;
        core.halt();
        path.dropAll();
        ctl.crash();
        eq.requestStop();
    });
    eq.run();

    std::printf("power failed after %llu of %u puts\n",
                static_cast<unsigned long long>(store.txnsIssued()),
                wl.txnTarget);

    // Recover: decrypt the image, roll back the undo log, verify.
    RecoveryEngine engine(nvm.persistedState(), ctl);
    RecoveryReport report = engine.recover(store);
    if (!report.consistent) {
        std::printf("RECOVERY FAILED: %s\n", report.detail.c_str());
        return 1;
    }
    std::printf("recovered consistently to %llu committed puts%s\n",
                static_cast<unsigned long long>(report.committedTxns),
                report.rolledBack ? " (rolled one back)" : "");

    // Every put in the committed prefix must be readable with the
    // value it had at that point in history.
    RecoveredImage image(nvm.persistedState(), ctl);
    std::map<std::uint64_t, std::uint64_t> expect;
    for (std::size_t i = 0; i < report.committedTxns; ++i)
        expect[store.history()[i].first] = store.history()[i].second;
    unsigned verified = 0;
    for (const auto &[key, value] : expect) {
        std::uint64_t got = 0;
        if (!store.lookup(image, key, got) || got != value) {
            std::printf("MISSING/WRONG key %llu after recovery\n",
                        static_cast<unsigned long long>(key));
            return 1;
        }
        ++verified;
    }
    std::printf("verified %u distinct keys against the committed "
                "history\n", verified);
    return 0;
}
