/**
 * @file
 * Base class for the five evaluated workloads (paper section 6.2).
 *
 * A workload owns a per-thread persistent region laid out as
 * [undo log | meta | structure...], generates one undo-logging
 * transaction per next() batch, and knows how to digest and validate its
 * structure through any ByteReader — both the live shadow (at commit
 * points, for later comparison) and the decrypted post-crash image.
 */

#ifndef CNVM_WORKLOADS_WORKLOAD_HH
#define CNVM_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "cpu/op.hh"
#include "txn/palloc.hh"
#include "txn/shadow_mem.hh"
#include "txn/undo_log.hh"

namespace cnvm
{

/** Parameters shared by all workloads. */
struct WorkloadParams
{
    /** Base of this thread's persistent region (set by the System). */
    Addr regionBase = Addr(64) * 1024 * 1024;

    /** Region size; bounds the structure footprint. */
    std::uint64_t regionBytes = 8ull * 1024 * 1024;

    /** Number of transactions to execute. */
    unsigned txnTarget = 500;

    /** Basic mutations (swaps / inserts / queue ops) per transaction. */
    unsigned batch = 1;

    /** Item size in cache lines (array and queue workloads). */
    unsigned itemLines = 1;

    /** Application compute time charged per transaction. */
    Cycles computePerTxn = 1000;

    std::uint64_t seed = 1;

    /** Undo-log capacity in lines (max lines one txn may touch). */
    unsigned logLines = 128;

    /**
     * Fraction of the structure's pool to pre-populate during setup,
     * so that transactions traverse a realistically deep structure
     * from the first operation (trees and the hash table).
     */
    double setupFill = 0.5;

    /**
     * Record a digest of the shadow after every commit, enabling
     * post-crash committed-prefix verification. Off for benches (the
     * digest walk is host-side work proportional to the footprint).
     */
    bool recordDigests = false;
};

/**
 * Which functional part of a workload's region an address belongs to.
 * The parts fail differently: a garbage log header loses the whole
 * region, a garbage structure line is recoverable as long as the log
 * still holds its backup.
 */
enum class RegionPart
{
    LogHeader,  //!< the undo log's header line (magic/valid/checksum)
    LogDesc,    //!< undo log descriptor area
    LogBackup,  //!< undo log backup lines
    Structure,  //!< metadata and structure storage
    Outside,    //!< not in this workload's region
};

/** Outcome of validating a recovered (or live) structure. */
struct ValidationResult
{
    bool ok = false;
    std::string why;

    static ValidationResult pass() { return {true, ""}; }
    static ValidationResult
    fail(std::string reason)
    {
        return {false, std::move(reason)};
    }
};

/**
 * Uniform persistent-memory I/O used by structure algorithms so the
 * same insertion code runs both transactionally (during the measured
 * run) and on a copy of the region that setup flushes into the shadow
 * (during pre-population).
 */
class MemIo
{
  public:
    virtual ~MemIo() = default;
    virtual std::uint64_t readU64(Addr addr) = 0;
    virtual void writeU64(Addr addr, std::uint64_t v) = 0;

    /** Allocates from the structure's pool; 0 when exhausted. */
    virtual Addr allocNode(std::uint64_t bytes, std::uint64_t align) = 0;
};

class Workload : public OpSource
{
  public:
    using InitWriter =
        std::function<void(Addr, const void *, unsigned)>;

    explicit Workload(const WorkloadParams &params);
    ~Workload() override = default;

    virtual const char *name() const = 0;

    /**
     * Builds the initial persistent state into the shadow. System
     * installs the finished shadow afterwards — its lines into the
     * persisted image, its table as the core's live view — as a
     * freshly booted system would find them. The InitWriter parameter
     * is unused; it stays only so that perfbench/, which passes a
     * no-op writer, compiles unchanged until a benchmark change drops
     * it.
     */
    void setup(InitWriter = {});

    /** OpSource: emits one transaction per call. */
    bool next(std::vector<Op> &out) final;

    /** Folds the structure's logical content into one 64-bit digest. */
    virtual std::uint64_t digest(const ByteReader &reader) const = 0;

    /** Checks every structural invariant, defensively (a corrupted
     *  image must produce a failure, never a hang or a crash). */
    virtual ValidationResult validate(const ByteReader &reader) const = 0;

    const LogLayout &log() const { return logLayout; }
    ShadowMem &shadowMem() { return shadow; }
    const ShadowMem &shadowMem() const { return shadow; }

    /** digests()[k] is the digest after k committed transactions. */
    const std::vector<std::uint64_t> &digests() const { return digestLog; }

    std::uint64_t txnsIssued() const { return issued; }

    /** Total lines logged (= mutated) across all issued transactions. */
    std::uint64_t totalLinesLogged() const { return linesLogged; }
    unsigned txnTarget() const { return params.txnTarget; }
    Addr regionBase() const { return params.regionBase; }
    Addr regionEnd() const
    { return params.regionBase + params.regionBytes; }

    /** True if @p addr lies inside this workload's region. */
    bool
    inRegion(Addr addr) const
    {
        return addr >= regionBase() && addr < regionEnd();
    }

    /** Functional part of the region @p addr falls into. */
    RegionPart classifyAddr(Addr addr) const;

  protected:
    /** Subclass hook: lay out and initialize the structure. */
    virtual void doSetup() = 0;

    /** Subclass hook: issue the reads/writes of one transaction. */
    virtual void buildTxn(UndoTx &tx) = 0;

    /** Setup-time write into the shadow. */
    void initWrite(Addr addr, const void *data, unsigned size);
    void initWriteU64(Addr addr, std::uint64_t v);

    /** Claims @p bytes of region space during setup. */
    Addr allocStatic(std::uint64_t bytes,
                     std::uint64_t align = lineBytes);

    WorkloadParams params;
    ShadowMem shadow;
    LogLayout logLayout;
    Random rng;

  private:
    Addr staticCursor = 0;
    std::uint64_t issued = 0;
    std::uint64_t linesLogged = 0;
    std::vector<std::uint64_t> digestLog;
};

} // namespace cnvm

#endif // CNVM_WORKLOADS_WORKLOAD_HH
