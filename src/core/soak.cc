/**
 * @file
 * Crash-chain soak harness implementation (see soak.hh).
 */

#include "core/soak.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/crash_sweep.hh"
#include "core/recovery_crash.hh"
#include "runner/runner.hh"

namespace cnvm
{

namespace
{

/** Every faultPeriod-th cycle of a chain gets the fault dose (cycles
 *  faultPeriod - 1, 2 * faultPeriod - 1, ...). */
constexpr unsigned faultPeriod = 2;

/** fnv1a over a quarantined line's persisted (cipher, counter, MAC)
 *  triple — the identity a line must shed before it may legitimately
 *  leave quarantine. A never-drained line folds cipher-absence
 *  instead of bytes. */
std::uint64_t
tripleHash(const PersistImage &img, const MemController &ctl, Addr qa)
{
    std::uint64_t h = fnvOffsetBasis;
    const LineData *cipher = img.persistedLine(qa);
    if (cipher != nullptr)
        h = fnv1a(cipher->data(), cipher->size(), h);
    else
        h = fnv1aU64(0x4e4f4e45ull, h); // "NONE"
    std::uint64_t counter =
        img.persistedCounters(ctl.counterLineAddr(qa))[ctl.counterSlot(qa)];
    h = fnv1aU64(counter, h);
    const std::uint64_t *mac = img.persistedMac(qa);
    h = fnv1aU64(mac != nullptr ? *mac : 0, h);
    return h;
}

/** Severity rank for the per-cycle worst classification. */
unsigned
classRank(CrashClass cls)
{
    switch (cls) {
      case CrashClass::Consistent:          return 0;
      case CrashClass::ReplayDetected:      return 1;
      case CrashClass::DetectedCorruption:  return 2;
      case CrashClass::TornData:            return 3;
      case CrashClass::TornCounter:         return 3;
      case CrashClass::CounterDataMismatch: return 3;
      case CrashClass::Inconsistent:        return 3;
      case CrashClass::SilentCorruption:    return 4;
      case CrashClass::SilentReplay:        return 5;
    }
    return 0;
}

/**
 * Draws one cycle's crash point from the chain RNG: an absolute tick
 * in [25%, 75%] of the probe's end tick, or the Nth occurrence of a
 * semantic trigger kind the probe actually observed. Ordinals are
 * drawn from the probe's per-cycle census, so some specs land beyond
 * what a shorter resumed cycle reaches — those cycles simply complete
 * and shut down cleanly, which is itself a lifecycle worth soaking.
 */
CrashSpec
planCycleSpec(const SweepProbe &probe, Random &rng)
{
    std::vector<CrashTriggerKind> kinds{CrashTriggerKind::AtTick};
    for (CrashTriggerKind k : {CrashTriggerKind::DataDrain,
                               CrashTriggerKind::CtrDrain,
                               CrashTriggerKind::PipelineEnter,
                               CrashTriggerKind::PairAction,
                               CrashTriggerKind::DirtyEviction}) {
        if (probe.countOf(*ctlEventFor(k)) > 0)
            kinds.push_back(k);
    }
    CrashTriggerKind kind =
        kinds[static_cast<std::size_t>(rng.below(kinds.size()))];
    if (kind == CrashTriggerKind::AtTick) {
        Tick t = 1
            + probe.endTick * (25 + rng.below(51)) / 100;
        return CrashSpec::atTick(t);
    }
    std::uint64_t n = probe.countOf(*ctlEventFor(kind));
    return CrashSpec::atEvent(kind, 1 + rng.below(std::max<std::uint64_t>(
                                          std::uint64_t{1}, n)));
}

std::string
u64str(std::uint64_t v)
{
    return std::to_string(static_cast<unsigned long long>(v));
}

} // namespace

// ----------------------------------------------------------------------
// SoakCycle
// ----------------------------------------------------------------------

std::string
SoakCycle::describe() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : committed)
        total += c;
    std::string s = std::string("c") + std::to_string(cycle) + ":"
        + spec.describe() + (crashed ? "!" : ".")
        + " cls=" + crashClassName(worst)
        + " q" + u64str(quarantined)
        + " r" + std::to_string(resets)
        + " t" + u64str(total);
    if (degraded)
        s += " deg";
    if (recoveryInterrupts > 0)
        s += " ri" + std::to_string(recoveryInterrupts);
    return s;
}

// ----------------------------------------------------------------------
// SoakOracle
// ----------------------------------------------------------------------

SoakOracle::SoakOracle(unsigned num_cores) : coreState(num_cores) {}

std::string
SoakOracle::observe(const std::vector<OracleReport> &reports,
                    const PersistImage &img, const MemController &ctl,
                    std::vector<std::uint8_t> &fresh_out)
{
    cnvm_assert(reports.size() == coreState.size());
    fresh_out.assign(coreState.size(), 0);

    // Invariant 1: no cycle ever classifies silently. Everything else
    // is downstream of this — a silent verdict means ground-truth
    // damage was consumed as if it were data.
    for (std::size_t i = 0; i < reports.size(); ++i) {
        CrashClass cls = reports[i].cls;
        if (cls == CrashClass::SilentCorruption
            || cls == CrashClass::SilentReplay) {
            return "core " + std::to_string(i) + " classified "
                + crashClassName(cls);
        }
    }

    // Invariant 2: within an incarnation, the committed-transaction
    // count is monotone. A core whose recovery failed even in
    // degraded mode restarts as a fresh incarnation — loud and
    // counted, never a silent rollback of history.
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const RecoveryReport &r = reports[i].recovery;
        if (r.consistent) {
            if (r.committedTxns < coreState[i].committed) {
                return "core " + std::to_string(i)
                    + " committed count shrank: "
                    + u64str(r.committedTxns) + " < "
                    + u64str(coreState[i].committed);
            }
            coreState[i].committed = r.committedTxns;
        } else {
            fresh_out[i] = 1;
            ++resetCount;
            ++coreState[i].incarnation;
            coreState[i].committed = 0;
        }
    }

    // Invariant 3: the quarantine never silently shrinks. A tracked
    // line may leave only when its persisted triple changed — i.e.
    // something legitimately drained fresh (cipher, counter, MAC)
    // over the tombstone.
    std::unordered_set<Addr> now;
    for (const OracleReport &rep : reports)
        for (Addr qa : rep.recovery.quarantinedLines)
            now.insert(qa);

    std::vector<Addr> tracked;
    tracked.reserve(quarantineHash.size());
    for (const auto &[qa, hash] : quarantineHash)
        tracked.push_back(qa);
    std::sort(tracked.begin(), tracked.end());
    for (Addr qa : tracked) {
        if (now.count(qa) != 0)
            continue;
        if (tripleHash(img, ctl, qa) == quarantineHash.at(qa)) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "0x%llx",
                          static_cast<unsigned long long>(qa));
            return std::string("line ") + buf
                + " left quarantine with its stored triple unchanged";
        }
        quarantineHash.erase(qa);
    }
    for (Addr qa : now)
        quarantineHash[qa] = tripleHash(img, ctl, qa);

    return "";
}

// ----------------------------------------------------------------------
// SoakChainResult / SoakResult
// ----------------------------------------------------------------------

std::string
SoakChainResult::fingerprint() const
{
    std::string fp = "soak[" + std::to_string(chainIndex) + "]";
    for (const SoakCycle &c : cycles) {
        fp += ';';
        fp += c.describe();
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(finalDigest));
    fp += "|d" + std::string(buf) + " q" + u64str(finalQuarantined)
        + (ok ? " ok" : " FAIL");
    return fp;
}

std::string
SoakResult::firstFailure() const
{
    for (const SoakChainResult &c : chains)
        if (!c.ok)
            return "chain " + std::to_string(c.chainIndex) + ": "
                + (c.failure.empty() ? "no cycles" : c.failure);
    return "";
}

std::string
SoakResult::fingerprint() const
{
    std::string fp;
    for (const SoakChainResult &c : chains) {
        if (!fp.empty())
            fp += "\n";
        fp += c.fingerprint();
    }
    return fp;
}

// ----------------------------------------------------------------------
// Chain driver
// ----------------------------------------------------------------------

namespace
{

/** Captures the per-cycle stat snapshot before the System dies. */
CycleStats
snapshotStats(System &sys, const RunResult &r)
{
    CycleStats st;
    st.txnsIssued = r.txnsIssued;
    st.nvmBytesWritten = sys.nvmBytesWritten();
    st.nvmBytesRead = sys.nvmBytesRead();
    for (unsigned ch = 0; ch < sys.numChannels(); ++ch) {
        const stats::Stat *s = sys.statsRegistry().find(
            "memctl.ch" + std::to_string(ch) + ".data_inserts");
        if (s != nullptr)
            st.dataInserts += static_cast<std::uint64_t>(s->value());
    }
    return st;
}

/**
 * Crash-during-recovery idempotence, probed inside the chain: on
 * @p img, the crashed image as it was before the chain's write-back
 * (a copy sharing its pages), run `attempts` interrupted write-back
 * attempts per core followed by one completing attempt, and require
 * the convergent fields to match the committing pass the chain
 * actually resumes from. Returns a violation string, or empty.
 */
std::string
probeRecoveryIdempotence(System &sys, PersistImage img,
                         const std::vector<OracleReport> &ref,
                         const SoakOptions &opt, Random &rng,
                         unsigned *interrupts)
{
    RecoveryOptions ropt;
    ropt.degraded = true;
    ropt.commitTo = &img;

    constexpr RecoveryEvent kinds[] = {
        RecoveryEvent::PreScanLine,
        RecoveryEvent::RollbackWrite,
        RecoveryEvent::BeforeValidClear,
        RecoveryEvent::TreeRebuildLeaf,
    };

    for (unsigned i = 0; i < sys.numCores(); ++i) {
        for (unsigned a = 0; a < opt.recoveryCrashes; ++a) {
            RecoveryCrashSpec rcs;
            rcs.kind = kinds[rng.below(4)];
            rcs.nth = rcs.kind == RecoveryEvent::PreScanLine
                ? 1 + rng.below(64)
                : 1 + rng.below(4);
            RecoveryCrashInjector inj(rcs);
            RecoveryOptions iopt = ropt;
            iopt.crash = &inj;
            RecoveryEngine eng(img, sys.controller());
            try {
                eng.recover(sys.workload(i), nullptr, iopt);
            } catch (const RecoveryInterrupted &) {
                ++*interrupts;
            }
        }
        RecoveryEngine eng(img, sys.controller());
        RecoveryReport fin = eng.recover(sys.workload(i), nullptr, ropt);
        if (convergenceOf(fin) != convergenceOf(ref[i].recovery)) {
            return "core " + std::to_string(i)
                + " recovery not idempotent after interruption: "
                + convergenceOf(fin).describe() + " vs "
                + convergenceOf(ref[i].recovery).describe();
        }
    }
    return "";
}

} // namespace

SoakChainResult
runSoakChain(const SystemConfig &base, const SoakOptions &opt)
{
    SystemConfig cfg = base;
    cfg.wl.recordDigests = true;

    // One probe run per chain teaches the planner what a cycle's
    // worth of work looks like: its end tick and semantic-event
    // census. Resumed cycles do a similar amount of fresh work
    // (txnsPerCycle transactions past the committed point), so probe
    // ordinals mostly land — and the ones that do not yield clean
    // completion cycles by design.
    SystemConfig pcfg = cfg;
    pcfg.wl.txnTarget = opt.txnsPerCycle;
    SweepProbe probe = probeRun(pcfg);

    Random rng(fnv1aU64(opt.seed, fnv1aU64(0x534f414bull))); // "SOAK"
    SoakOracle oracle(cfg.numCores);
    SoakChainResult res;

    ResumeState state;
    bool haveState = false;
    unsigned target = opt.txnsPerCycle;

    for (unsigned c = 0; c < opt.cycles; ++c) {
        cfg.wl.txnTarget = target;

        SoakCycle cyc;
        cyc.cycle = c;
        cyc.spec = planCycleSpec(probe, rng);
        cyc.dosed = opt.faults.any() && c % faultPeriod == faultPeriod - 1;
        if (cyc.dosed)
            cyc.spec.faults = opt.faults.forPoint(c);

        auto sys = haveState
            ? std::make_unique<System>(cfg, std::move(state))
            : std::make_unique<System>(cfg);
        RunResult r = sys->runWithCrash(cyc.spec);
        cyc.crashed = r.crashed;
        cyc.endTick = r.endTick;
        if (!r.crashed) {
            // Target reached before the spec fired: model a clean
            // shutdown (the queues have drained, so nothing is left to
            // lose) and land the cycle's media dose on the shut-down
            // image — dosing pressure must not depend on whether the
            // spec was reachable.
            sys->crashChannels(cyc.spec.faults);
        }

        // The idempotence probe replays recovery from the crashed
        // image as the write-back below found it, so it keeps a copy
        // sharing the image's pages; the write-back copies only the
        // pages it writes.
        PersistImage crashed;
        if (opt.recoveryCrashes > 0)
            crashed = sys->nvm().persistedState();

        // One pass classifies and write-back-recovers: the oracle
        // reads the image it also commits restorations to (reads cache
        // before writes land, so the view is coherent). The image
        // leaves the device, which nothing reads again.
        PersistImage img = std::move(sys->nvm().persistedState());
        RecoveryOptions ropt;
        ropt.degraded = true;
        ropt.commitTo = &img;
        CrashOracle ocl(img, sys->controller());

        std::vector<OracleReport> reports;
        reports.reserve(cfg.numCores);
        for (unsigned i = 0; i < cfg.numCores; ++i)
            reports.push_back(ocl.examine(sys->workload(i), nullptr, ropt));

        if (opt.recoveryCrashes > 0) {
            std::string viol = probeRecoveryIdempotence(
                *sys, std::move(crashed), reports, opt, rng,
                &cyc.recoveryInterrupts);
            if (!viol.empty()) {
                cyc.stats = snapshotStats(*sys, r);
                res.cycles.push_back(cyc);
                res.failure = "cycle " + std::to_string(c) + ": " + viol;
                return res;
            }
        }

        std::vector<std::uint8_t> fresh;
        std::string viol =
            oracle.observe(reports, img, sys->controller(), fresh);

        for (unsigned i = 0; i < cfg.numCores; ++i) {
            const OracleReport &rep = reports[i];
            if (classRank(rep.cls) > classRank(cyc.worst))
                cyc.worst = rep.cls;
            cyc.committed.push_back(fresh[i] != 0
                                        ? 0
                                        : rep.recovery.committedTxns);
            cyc.quarantined += rep.recovery.quarantinedLines.size();
            cyc.detectedCorruptions += rep.recovery.detectedCorruptions;
            cyc.replaysDetected += rep.recovery.replaysDetected;
            cyc.repairedLines += rep.recovery.repairedLines;
            cyc.degraded = cyc.degraded || rep.recovery.degradedConsistent;
            cyc.resets += fresh[i] != 0;
        }
        cyc.stats = snapshotStats(*sys, r);
        res.cycles.push_back(cyc);

        if (!viol.empty()) {
            res.failure = "cycle " + std::to_string(c) + ": " + viol;
            return res;
        }

        // The recovered image becomes the next cycle's starting
        // state. Its fault ground truth is cleared — the next verdict
        // must attribute only the next dose — while the stale-triple
        // attack surface is deliberately kept alive across cycles.
        img.clearFaultGroundTruth();
        state = ResumeState{};
        state.image = std::move(img);
        std::uint64_t max_committed = 0;
        for (unsigned i = 0; i < cfg.numCores; ++i) {
            state.committedTxns.push_back(cyc.committed[i]);
            state.quarantined.push_back(
                reports[i].recovery.quarantinedLines);
            max_committed = std::max(max_committed, cyc.committed[i]);
        }
        state.fresh = fresh;
        haveState = true;
        target = static_cast<unsigned>(max_committed) + opt.txnsPerCycle;
    }

    // Final examination: one last resume, a run all the way to the
    // target, a clean shutdown, and a full-integrity look at the
    // image. Every region must come back consistent at exactly the
    // target — the chain's cumulative end state equals a committed,
    // verifiable history.
    cfg.wl.txnTarget = target;
    res.finalTxnTarget = target;
    {
        SoakCycle fin;
        fin.cycle = opt.cycles;

        auto sys = haveState
            ? std::make_unique<System>(cfg, std::move(state))
            : std::make_unique<System>(cfg);
        RunResult r = sys->run();
        fin.endTick = r.endTick;
        sys->crashChannels();

        PersistImage img = std::move(sys->nvm().persistedState());
        RecoveryOptions ropt;
        ropt.degraded = true;
        ropt.commitTo = &img;
        CrashOracle ocl(img, sys->controller());

        std::vector<OracleReport> reports;
        reports.reserve(cfg.numCores);
        for (unsigned i = 0; i < cfg.numCores; ++i)
            reports.push_back(ocl.examine(sys->workload(i), nullptr, ropt));

        std::vector<std::uint8_t> fresh;
        std::string viol =
            oracle.observe(reports, img, sys->controller(), fresh);

        for (unsigned i = 0; i < cfg.numCores; ++i) {
            const OracleReport &rep = reports[i];
            if (classRank(rep.cls) > classRank(fin.worst))
                fin.worst = rep.cls;
            fin.committed.push_back(rep.recovery.committedTxns);
            fin.quarantined += rep.recovery.quarantinedLines.size();
            fin.degraded = fin.degraded || rep.recovery.degradedConsistent;
            fin.resets += fresh[i] != 0;
            res.finalCommitted.push_back(rep.recovery.committedTxns);
            res.finalDigest =
                fnv1aU64(rep.recovery.recoveredDigest,
                         i == 0 ? fnvOffsetBasis : res.finalDigest);
            res.finalQuarantined += rep.recovery.quarantinedLines.size();
        }
        fin.stats = snapshotStats(*sys, r);
        res.cycles.push_back(fin);

        if (!viol.empty()) {
            res.failure = "final examination: " + viol;
            return res;
        }
        for (unsigned i = 0; i < cfg.numCores; ++i) {
            const RecoveryReport &rr = reports[i].recovery;
            if (!rr.consistent || reports[i].cls != CrashClass::Consistent) {
                res.failure = "final examination: core "
                    + std::to_string(i) + " "
                    + crashClassName(reports[i].cls)
                    + (rr.detail.empty() ? "" : " (" + rr.detail + ")");
                return res;
            }
            if (rr.committedTxns != target) {
                res.failure = "final examination: core "
                    + std::to_string(i) + " committed "
                    + u64str(rr.committedTxns) + " != target "
                    + std::to_string(target);
                return res;
            }
            if (fresh[i] != 0) {
                res.failure = "final examination: core "
                    + std::to_string(i) + " reset on a clean run";
                return res;
            }
        }
    }

    res.ok = true;
    return res;
}

SoakResult
runSoak(const SystemConfig &cfg, const SoakOptions &opt)
{
    WorkPool pool(opt.jobs);
    SoakResult res;
    res.chains = pool.map<SoakChainResult>(
        opt.chains, [&](std::size_t i) {
            SoakOptions copt = opt;
            copt.seed = opt.seed * 0x9e3779b97f4a7c15ull + i + 1;
            SoakChainResult r = runSoakChain(cfg, copt);
            r.chainIndex = static_cast<unsigned>(i);
            return r;
        });
    return res;
}

} // namespace cnvm
