/**
 * @file
 * cnvm_crash_sweep — crash-point sweep and recoverability matrix.
 *
 * Sweeps K power-failure points (absolute ticks plus semantic
 * controller-event triggers) across one design or all of them, runs
 * recovery at every point, and classifies each post-crash image with
 * the crash oracle:
 *
 *   cnvm_crash_sweep --design SCA --points 50
 *   cnvm_crash_sweep --design Unsafe --points 50 --verbose
 *   cnvm_crash_sweep --points 20            # matrix over every design
 *   cnvm_crash_sweep --points 50 --faults --integrity
 *
 * The sweep is deterministic for a fixed --seed: same points, same
 * classifications, same fingerprint. With --faults the same holds for
 * a fixed --fault-seed: every point receives the same media-fault dose
 * with a per-point RNG stream, identical across Execute modes and job
 * counts.
 *
 * Exit status: 0 when every design behaved as designed, 1 otherwise,
 * 2 on usage errors. "As designed" means:
 *
 *   - clean sweep: crash-consistent designs recovered at every reached
 *     point; Unsafe (the negative control, when swept) exhibited at
 *     least one counter/data mismatch;
 *   - --faults --integrity: NO point anywhere classified as
 *     silent-corruption (the headline integrity invariant), and every
 *     recovery failure of a crash-consistent design is a detected one;
 *   - --faults without --integrity: the matrix as a whole must
 *     demonstrate at least one silent-corruption point — this is the
 *     negative control proving the faults bite and that, without the
 *     integrity metadata, they bite silently.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/crash_sweep.hh"
#include "core/recovery_crash.hh"
#include "core/soak.hh"
#include "runner/runner.hh"
#include "tool_args.hh"

using namespace cnvm;

namespace
{

struct Options
{
    SystemConfig cfg;
    std::vector<DesignPoint> designs;
    unsigned points = 20;
    unsigned jobs = 0; //!< 0 = hardware concurrency
    unsigned recoveryJobs = 1;     //!< per-point recovery concurrency
    unsigned recoveryCrashes = 0;  //!< >0: crash-during-recovery sweep
    unsigned soakCycles = 0;       //!< >0: crash-chain soak instead
    SweepMode mode = SweepMode::Replay;
    bool semanticTriggers = true;
    bool verbose = false;
    bool printFingerprint = false;
    bool faults = false;
    bool replays = false;
    bool integrity = false;
    bool integrityTree = false;
    bool faultSeedSet = false;
    std::uint64_t faultSeed = 1;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(code == 0 ? stdout : stderr,
                 R"(cnvm_crash_sweep — crash-point sweep over the design space

options:
  --design NAME     sweep one design (default: all of them)
  --points K        crash points per design (default 20)
  --jobs N          worker threads for the Execute phase (default:
                    hardware concurrency; 1 = the serial reference
                    loop; results are identical at any N)
  --mode M          Execute strategy: replay (one crashed simulation
                    per point, the reference; default) or fork (one
                    trunk run, capture persistent-state forks and
                    classify them off-trunk — same fingerprint, K
                    recoveries instead of K simulations)
  --recovery-jobs N worker threads *inside* each point's recovery: the
                    integrity pre-scan shards over them (default 1 =
                    the serial reference; recovery output is
                    byte-identical at any N)
  --recovery-crashes R
                    run the crash-during-recovery sweep instead: per
                    design, capture --points crashed images, then
                    interrupt write-back recovery at R planned steps
                    (mid-pre-scan, mid-rollback, around the log
                    invalidation), re-run it, and gate on idempotence —
                    every interrupted-then-completed recovery must
                    converge to the single-shot digest and report
  --soak N          run the crash-chain soak instead: per design, one
                    chain of N crash→recover→resume cycles (faults
                    dosed per the flags below, recovered image resumed
                    as the next cycle's state) plus a final
                    resume-and-complete integrity examination, gated on
                    the cumulative SoakOracle invariants (max 4096; see
                    cnvm_soak for the full-featured harness)
  --workload NAME   array | queue | hash | btree | rbtree (default array)
  --cores N         number of cores (default 1)
  --channels N      memory channels sharding the address space
                    (power of two; default 1)
  --txns N          transactions per core (default 40)
  --footprint-kb N  per-core region size (default 256)
  --cc-kb N         total counter cache KB, split evenly across the
                    channels (default 16; small, so dirty evictions
                    are reachable crash states)
  --seed N          workload seed (default 1)
  --ticks-only      plan only absolute-tick points (no semantic triggers)
  --faults          dose every crash point with media faults (torn line
                    writes, bit flips, counter corruption/rollback, ADR
                    energy loss); deterministic per --fault-seed
  --fault-seed N    base seed of the per-point fault RNG streams
                    (default 1; requires --faults)
  --replays         add a replay dose to every faulted point: whole
                    stale (ciphertext, counter, MAC) triples are
                    re-installed — internally consistent, so per-line
                    MACs verify (requires --faults)
  --integrity       arm the per-line integrity MACs: recovery verifies
                    every line, repairs counters by bounded trial
                    re-decryption, and quarantines what it cannot fix.
                    With --faults the sweep gates on the headline
                    invariant — zero silent-corruption points
  --integrity-tree  arm the counter integrity tree on top of the MACs
                    (implies --integrity): recovery verifies the tree
                    root first and catches replayed counters per line.
                    With --faults --replays the gate extends to zero
                    silent-replay points
  --verbose         print every crash point, not just the matrix row
  --fingerprint     print the deterministic sweep fingerprint
  --help            this text
)");
    std::exit(code);
}

const char *
shortDesignName(DesignPoint d)
{
    switch (d) {
      case DesignPoint::Colocated: return "Colocated";
      case DesignPoint::ColocatedCC: return "ColocatedCC";
      default: return designName(d);
    }
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.cfg.wl.regionBytes = 256u << 10;
    opt.cfg.wl.txnTarget = 40;
    opt.cfg.wl.computePerTxn = 100;
    opt.cfg.wl.recordDigests = true;
    opt.cfg.wl.setupFill = 0.3;
    opt.cfg.memctl.counterCacheBytes = 16u << 10;

    auto need_value = [&](int &i) -> const char * {
        return toolargs::needValue(argc, argv, i, usage);
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--design") {
            std::string name = need_value(i);
            auto d = designFromName(name);
            if (!d) {
                std::fprintf(stderr, "unknown design '%s'\n", name.c_str());
                usage(2);
            }
            opt.designs.push_back(*d);
        } else if (arg == "--points") {
            opt.points =
                toolargs::parsePositive("--points", need_value(i), usage);
        } else if (arg == "--jobs") {
            opt.jobs =
                toolargs::parsePositive("--jobs", need_value(i), usage);
        } else if (arg == "--recovery-jobs") {
            opt.recoveryJobs = toolargs::parsePositive("--recovery-jobs",
                                                       need_value(i),
                                                       usage);
        } else if (arg == "--recovery-crashes") {
            opt.recoveryCrashes = toolargs::parsePositive(
                "--recovery-crashes", need_value(i), usage);
        } else if (arg == "--soak") {
            opt.soakCycles = toolargs::parseBounded(
                "--soak", need_value(i), 4096, usage);
        } else if (arg == "--mode") {
            std::string name = need_value(i);
            if (name == "replay") {
                opt.mode = SweepMode::Replay;
            } else if (name == "fork") {
                opt.mode = SweepMode::Fork;
            } else {
                std::fprintf(stderr, "unknown mode '%s'\n", name.c_str());
                usage(2);
            }
        } else if (arg == "--workload") {
            opt.cfg.workload = workloadKindFromName(need_value(i));
        } else if (arg == "--cores") {
            opt.cfg.numCores =
                static_cast<unsigned>(std::atoi(need_value(i)));
        } else if (arg == "--channels") {
            opt.cfg.numChannels = toolargs::parsePowerOfTwo(
                "--channels", need_value(i), usage);
        } else if (arg == "--txns") {
            opt.cfg.wl.txnTarget =
                static_cast<unsigned>(std::atoi(need_value(i)));
        } else if (arg == "--footprint-kb") {
            opt.cfg.wl.regionBytes =
                std::strtoull(need_value(i), nullptr, 10) << 10;
        } else if (arg == "--cc-kb") {
            opt.cfg.memctl.counterCacheBytes =
                std::strtoull(need_value(i), nullptr, 10) << 10;
        } else if (arg == "--seed") {
            opt.cfg.wl.seed =
                toolargs::parseU64("--seed", need_value(i), usage);
        } else if (arg == "--ticks-only") {
            opt.semanticTriggers = false;
        } else if (arg == "--faults") {
            opt.faults = true;
        } else if (arg == "--fault-seed") {
            opt.faultSeed =
                toolargs::parseU64("--fault-seed", need_value(i), usage);
            opt.faultSeedSet = true;
        } else if (arg == "--replays") {
            opt.replays = true;
        } else if (arg == "--integrity") {
            opt.integrity = true;
        } else if (arg == "--integrity-tree") {
            opt.integrityTree = true;
            opt.integrity = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--fingerprint") {
            opt.printFingerprint = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(2);
        }
    }

    toolargs::enforceFlagRules(
        {{opt.faultSeedSet, opt.faults, "--fault-seed", "--faults"},
         {opt.replays, opt.faults, "--replays", "--faults"}},
        usage);
    if (opt.designs.empty()) {
        for (DesignPoint d : allDesignPoints())
            opt.designs.push_back(d);
    }
    return opt;
}

/** Matrix-level tallies the per-design sweeps accumulate into. */
struct MatrixTotals
{
    unsigned silent = 0;       //!< silent-corruption points
    unsigned silentReplay = 0; //!< silent-replay points
    std::uint64_t replaysCaught = 0; //!< replayed lines recovery caught
};

/** Sweeps one design; returns whether it behaved as designed and adds
 *  its silent/replay points into @p totals. */
bool
sweepDesign(const Options &opt, DesignPoint design, WorkPool &pool,
            MatrixTotals &totals)
{
    SystemConfig cfg = opt.cfg;
    cfg.design = design;
    cfg.memctl.integrityMac = opt.integrity;
    cfg.memctl.integrityTree = opt.integrityTree;

    SweepOptions sweep_opt;
    sweep_opt.points = opt.points;
    sweep_opt.semanticTriggers = opt.semanticTriggers;
    sweep_opt.mode = opt.mode;
    sweep_opt.recoveryJobs = opt.recoveryJobs;
    if (opt.faults)
        sweep_opt.faults = opt.replays
            ? FaultSpec::allKindsWithReplays(opt.faultSeed)
            : FaultSpec::allKinds(opt.faultSeed);
    SweepResult result = runSweep(cfg, sweep_opt, &pool);

    if (opt.verbose) {
        for (const SweepPoint &p : result.points) {
            if (!p.crashed) {
                std::printf("  %-20s unreached (run completed first)\n",
                            p.spec.describe().c_str());
                continue;
            }
            std::printf("  %-20s %-22s tick=%llu q=%u/%u pipe=%u "
                        "mismatched=%llu committed=%llu",
                        p.spec.describe().c_str(), crashClassName(p.cls),
                        static_cast<unsigned long long>(p.snapshot.tick),
                        p.snapshot.dataQueue, p.snapshot.ctrQueue,
                        p.snapshot.pipeline,
                        static_cast<unsigned long long>(p.mismatchedLines),
                        static_cast<unsigned long long>(p.committedTxns));
            if (opt.faults)
                std::printf(" faulted=%llu det=%llu rep=%llu unrec=%llu",
                            static_cast<unsigned long long>(p.faultedLines),
                            static_cast<unsigned long long>(
                                p.detectedCorruptions),
                            static_cast<unsigned long long>(p.repairedLines),
                            static_cast<unsigned long long>(
                                p.unrecoverableLines));
            if (opt.replays)
                std::printf(" replayed=%llu caught=%llu",
                            static_cast<unsigned long long>(
                                p.replayedLines),
                            static_cast<unsigned long long>(
                                p.replaysDetected));
            std::printf("%s%s\n", p.detail.empty() ? "" : " : ",
                        p.detail.c_str());
        }
    }

    unsigned reached =
        static_cast<unsigned>(result.points.size()) -
        result.unreachedPoints();
    std::printf("%-13s %7u %8u %11u %10u %9u %9u %9u %9u %7u %7u %7u\n",
                shortDesignName(design),
                static_cast<unsigned>(result.points.size()), reached,
                result.countOf(CrashClass::Consistent),
                result.countOf(CrashClass::TornData),
                result.countOf(CrashClass::TornCounter) +
                    result.countOf(CrashClass::CounterDataMismatch),
                result.countOf(CrashClass::Inconsistent),
                result.inconsistentPoints(),
                result.countOf(CrashClass::DetectedCorruption),
                result.silentPoints(),
                result.replayDetectedPoints(),
                result.silentReplayPoints());

    if (opt.printFingerprint)
        std::printf("  fingerprint(%s): %s\n", shortDesignName(design),
                    result.fingerprint().c_str());

    totals.silent += result.silentPoints();
    totals.silentReplay += result.silentReplayPoints();
    totals.replaysCaught += result.totalOf(&SweepPoint::replaysDetected);

    if (opt.faults && opt.integrity) {
        // The headline invariant: with integrity metadata armed, no
        // injected fault is ever silent — and with the tree on top,
        // no replay is either. Crash-consistent designs may fail
        // recovery under media faults, but only detectably; the
        // negative control must still demonstrate *some* failure.
        if (result.silentPoints() != 0)
            return false;
        if (opt.integrityTree && result.silentReplayPoints() != 0)
            return false;
        // MAC-only replays are *expected* to slip: the stale triple
        // verifies. They count as accounted-for failures here and the
        // matrix-level gate in main() requires they actually occur.
        unsigned accounted =
            result.countOf(CrashClass::DetectedCorruption)
            + result.replayDetectedPoints();
        if (!opt.integrityTree)
            accounted += result.silentReplayPoints();
        if (designCrashConsistent(design))
            return result.inconsistentPoints() == accounted;
        return result.mismatchPoints() + accounted >= 1;
    }
    if (opt.faults) {
        // Integrity off: nothing to assert per design — recovery may
        // fail any which way. The matrix-level negative gate in main()
        // requires at least one silent point across the sweep.
        return true;
    }

    if (designCrashConsistent(design))
        return result.inconsistentPoints() == 0;
    // The negative control must demonstrate the Figure-4 failure:
    // at least one reached point with a counter/data mismatch.
    return result.mismatchPoints() >= 1;
}

/**
 * Crash-chain soak of one design (--soak): one chain of
 * crash→recover→resume cycles with the configured dose, gated on the
 * cumulative SoakOracle invariants. Positive rows must complete ok;
 * negative-control combinations (see soakChainExpectedOk) must fail —
 * loudly when undosed. cnvm_soak is the full-featured harness; this
 * mode keeps the soak reachable from the sweep tool's flag set.
 */
bool
soakDesign(const Options &opt, DesignPoint design)
{
    SystemConfig cfg = opt.cfg;
    cfg.design = design;
    cfg.memctl.integrityMac = opt.integrity;
    cfg.memctl.integrityTree = opt.integrityTree;

    SoakOptions soak;
    soak.cycles = opt.soakCycles;
    soak.recoveryJobs = opt.recoveryJobs;
    soak.semanticTriggers = opt.semanticTriggers;
    soak.seed = opt.cfg.wl.seed;
    if (opt.faults)
        soak.faults = opt.replays
            ? FaultSpec::allKindsWithReplays(opt.faultSeed)
            : FaultSpec::allKinds(opt.faultSeed);

    SoakChainResult chain = runSoakChain(cfg, soak);

    if (opt.verbose) {
        for (const SoakCycle &c : chain.cycles)
            std::printf("  %s\n", c.describe().c_str());
        if (!chain.ok)
            std::printf("  FAILED: %s\n", chain.failure.c_str());
    }

    std::printf("%-13s %7u %8u %8u %7u %7u %8llu  %s\n",
                shortDesignName(design),
                static_cast<unsigned>(chain.cycles.size()),
                chain.crashedCycles(), chain.dosedCycles(),
                chain.totalResets(), chain.silentCycles(),
                static_cast<unsigned long long>(chain.finalQuarantined),
                chain.ok ? "ok" : "failed");

    if (opt.printFingerprint)
        std::printf("  fingerprint(%s): %s\n", shortDesignName(design),
                    chain.fingerprint().c_str());

    bool expected_ok = soakChainExpectedOk(design, opt.integrity,
                                           opt.integrityTree, opt.faults,
                                           opt.replays);
    if (expected_ok)
        return chain.ok;
    if (!opt.faults)
        return !chain.ok && chain.silentCycles() == 0;
    return !chain.ok;
}

/** Crash-during-recovery sweep of one design; true iff idempotent. */
bool
recrashDesign(const Options &opt, DesignPoint design, WorkPool &pool)
{
    SystemConfig cfg = opt.cfg;
    cfg.design = design;
    cfg.memctl.integrityMac = opt.integrity;
    cfg.memctl.integrityTree = opt.integrityTree;

    RecoveryCrashOptions rc_opt;
    rc_opt.points = opt.recoveryCrashes;
    rc_opt.images = opt.points;
    rc_opt.recoveryJobs = opt.recoveryJobs;
    rc_opt.semanticTriggers = opt.semanticTriggers;
    if (opt.faults)
        rc_opt.faults = opt.replays
            ? FaultSpec::allKindsWithReplays(opt.faultSeed)
            : FaultSpec::allKinds(opt.faultSeed);

    RecoveryCrashResult result = runRecoveryCrashSweep(cfg, rc_opt,
                                                       &pool);

    if (opt.verbose) {
        for (const RecoveryCrashPoint &p : result.points) {
            std::printf("  img%-3zu %-18s %s%s%s\n", p.imageIndex,
                        p.spec.describe().c_str(),
                        p.fired ? "fired " : "unfired ",
                        p.divergent ? "DIVERGENT" : "converged",
                        p.detail.empty() ? "" : (" : "
                            + p.detail).c_str());
        }
    }

    std::printf("%-13s %7u %8u %11zu %10u %9u\n",
                shortDesignName(design), opt.points, result.images,
                result.points.size(), result.firedPoints(),
                result.divergentPoints());

    if (opt.printFingerprint)
        std::printf("  fingerprint(%s): %s\n", shortDesignName(design),
                    result.fingerprint().c_str());

    // The gate: interruptions actually happened, and every
    // interrupted-then-completed recovery converged.
    return !result.points.empty() && result.firedPoints() > 0
        && result.divergentPoints() == 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    // One pool, reused across every design's Execute phase.
    WorkPool pool(opt.jobs);

    if (opt.soakCycles > 0) {
        std::printf("crash-chain soak: %u cycle(s)/design + final exam, "
                    "workload %s, %u core(s), seed %llu, "
                    "%u recovery job(s)%s%s%s\n",
                    opt.soakCycles, workloadKindName(opt.cfg.workload),
                    opt.cfg.numCores,
                    static_cast<unsigned long long>(opt.cfg.wl.seed),
                    opt.recoveryJobs,
                    opt.faults ? ", media faults" : "",
                    opt.replays ? " + replays" : "",
                    opt.integrityTree ? ", integrity tree"
                        : opt.integrity ? ", integrity MACs" : "");
        std::printf("%-13s %7s %8s %8s %7s %7s %8s\n", "design",
                    "cycles", "crashed", "dosed", "resets", "silent",
                    "final-q");
        bool all_ok = true;
        for (DesignPoint d : opt.designs) {
            if (!soakDesign(opt, d)) {
                all_ok = false;
                std::printf("  ^^ %s did not behave as designed\n",
                            shortDesignName(d));
            }
        }
        return all_ok ? 0 : 1;
    }

    if (opt.recoveryCrashes > 0) {
        std::printf("crash-during-recovery sweep: %u images/design, "
                    "%u interruption points/design, workload %s, "
                    "%u core(s), %u txns, seed %llu, %u job(s), "
                    "%u recovery job(s)%s%s\n",
                    opt.points, opt.recoveryCrashes,
                    workloadKindName(opt.cfg.workload), opt.cfg.numCores,
                    opt.cfg.wl.txnTarget,
                    static_cast<unsigned long long>(opt.cfg.wl.seed),
                    pool.jobs(), opt.recoveryJobs,
                    opt.faults ? ", media faults" : "",
                    opt.integrityTree ? ", integrity tree"
                        : opt.integrity ? ", integrity MACs" : "");
        std::printf("%-13s %7s %8s %11s %10s %9s\n", "design", "images",
                    "captured", "points", "fired", "divergent");
        bool all_ok = true;
        for (DesignPoint d : opt.designs) {
            if (!recrashDesign(opt, d, pool)) {
                all_ok = false;
                std::printf("  ^^ %s: interrupted recovery diverged "
                            "from the single-shot result\n",
                            shortDesignName(d));
            }
        }
        return all_ok ? 0 : 1;
    }

    std::printf("crash-point sweep: %u points/design, workload %s, "
                "%u core(s), %u txns, seed %llu, %u job(s), %s mode"
                "%s%s%s%s\n",
                opt.points, workloadKindName(opt.cfg.workload),
                opt.cfg.numCores, opt.cfg.wl.txnTarget,
                static_cast<unsigned long long>(opt.cfg.wl.seed),
                pool.jobs(), sweepModeName(opt.mode),
                opt.semanticTriggers ? "" : ", ticks only",
                opt.faults ? ", media faults" : "",
                opt.replays ? " + replays" : "",
                opt.integrityTree ? ", integrity tree"
                    : opt.integrity ? ", integrity MACs" : "");
    std::printf("%-13s %7s %8s %11s %10s %9s %9s %9s %9s %7s %7s %7s\n",
                "design", "points", "reached", "consistent", "torn-data",
                "torn-ctr", "other", "inconsist", "detected", "silent",
                "rp-det", "rp-sil");

    bool all_ok = true;
    MatrixTotals totals;
    for (DesignPoint d : opt.designs) {
        if (!sweepDesign(opt, d, pool, totals)) {
            all_ok = false;
            std::printf("  ^^ %s did not behave as designed\n",
                        shortDesignName(d));
        }
    }
    unsigned total_silent = totals.silent;

    if (opt.replays) {
        if (opt.integrityTree) {
            // The replay dose must bite *and* be caught: across the
            // matrix, recovery caught at least one replayed line.
            // (A dose nothing detects would make the zero-silent gate
            // above vacuous.)
            if (totals.replaysCaught == 0) {
                all_ok = false;
                std::printf("^^ no replay caught anywhere: the replay "
                            "dose did not bite\n");
            } else {
                std::printf("replay control: %llu replayed line(s) "
                            "caught by the integrity tree\n",
                            static_cast<unsigned long long>(
                                totals.replaysCaught));
            }
        } else {
            // Negative control: without the tree, replayed triples
            // verify per line and at least one point must consume one
            // silently — proving the attack works against MACs alone.
            if (totals.silentReplay == 0) {
                all_ok = false;
                std::printf("^^ no silent replay anywhere: the replay "
                            "dose did not demonstrate the MAC-only "
                            "failure mode\n");
            } else {
                std::printf("negative control: %u silent-replay "
                            "point(s) without the integrity tree\n",
                            totals.silentReplay);
            }
        }
    }

    if (opt.faults && !opt.integrity) {
        // Negative control: without integrity metadata, the injected
        // faults must produce at least one silent corruption somewhere
        // in the matrix — otherwise the fault model is toothless and
        // the zero-silent gate above proves nothing.
        if (total_silent == 0) {
            all_ok = false;
            std::printf("^^ no silent corruption anywhere: the fault "
                        "dose did not demonstrate the unprotected "
                        "failure mode\n");
        } else {
            std::printf("negative control: %u silent-corruption "
                        "point(s) without integrity metadata\n",
                        total_silent);
        }
    }
    return all_ok ? 0 : 1;
}
