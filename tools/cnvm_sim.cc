/**
 * @file
 * cnvm_sim — command-line driver for the simulator.
 *
 * Runs one configuration end to end, optionally injects a power
 * failure and recovers, and dumps metrics or the full stat registry.
 *
 *   cnvm_sim --design SCA --workload btree --cores 4 --txns 500
 *   cnvm_sim --design Unsafe --crash-at-frac 0.5 --verify
 *   cnvm_sim --list
 *   cnvm_sim --stats --read-mult 5 --write-mult 5
 *
 * Exit status: 0 on success (and consistent recovery when --verify),
 * 1 on inconsistent recovery, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/crash_sweep.hh"
#include "core/recovery_crash.hh"
#include "core/system.hh"
#include "runner/runner.hh"
#include "tool_args.hh"

using namespace cnvm;

namespace
{

struct Options
{
    SystemConfig cfg;
    double crashFrac = -1.0;  //!< <0: no crash
    unsigned sweepPoints = 0; //!< 0: no sweep
    unsigned jobs = 0;        //!< sweep concurrency; 0 = hardware
    unsigned recoveryJobs = 1;    //!< recovery pre-scan concurrency
    unsigned recoveryCrashes = 0; //!< >0: crash-during-recovery sweep
    SweepMode sweepMode = SweepMode::Replay;
    bool faults = false;
    bool replays = false;
    bool integrity = false;
    bool integrityTree = false;
    bool faultSeedSet = false;
    std::uint64_t faultSeed = 1;
    bool verify = false;
    bool dumpStats = false;
    bool quiet = false;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(code == 0 ? stdout : stderr, R"(cnvm_sim — encrypted crash-consistent NVMM simulator

options:
  --design NAME        NoEncryption | Ideal | Colocated | ColocatedCC |
                       FCA | SCA (default) | Unsafe
  --workload NAME      array | queue | hash | btree | rbtree
  --cores N            number of cores (default 1)
  --channels N         memory channels sharding the address space
                       (power of two; default 1)
  --txns N             transactions per core (default 300)
  --batch N            mutations per transaction (default 1)
  --footprint-mb N     per-core region size (default 6)
  --cc-kb N            total counter cache KB, split evenly across the
                       channels (default 1024)
  --compute N          compute cycles per transaction (default 1000)
  --seed N             workload seed (default 1)
  --read-mult X        scale NVM read latency (default 1.0)
  --write-mult X       scale NVM write latency (default 1.0)
  --cold-cc            do not pre-warm the counter cache
  --crash-at-frac F    inject a power failure at F of the expected
                       runtime (two runs: probe, then crash)
  --crash-sweep K      sweep K crash points (ticks plus semantic
                       controller-event triggers), recover and classify
                       each; generalizes --crash-at-frac from one
                       runtime fraction to the whole controller state
                       space (see cnvm_crash_sweep for the full matrix)
  --jobs N             worker threads for --crash-sweep (default:
                       hardware concurrency; 1 = serial; results are
                       identical at any N)
  --sweep-mode M       --crash-sweep Execute strategy: replay (one
                       crashed simulation per point; default) or fork
                       (one trunk run, classify captured forks —
                       same fingerprint, much faster at large K)
  --recovery-jobs N    worker threads inside each recovery: the
                       integrity pre-scan shards over them (used by
                       --verify and the sweeps; default 1 = serial;
                       recovery output is byte-identical at any N)
  --recovery-crashes R run the crash-during-recovery sweep: capture
                       --crash-sweep K crashed images, interrupt
                       write-back recovery at R planned steps, re-run
                       it, and gate on idempotence (requires
                       --crash-sweep)
  --faults             dose every --crash-sweep point with media faults
                       (torn writes, bit flips, counter corruption, ADR
                       energy loss; requires --crash-sweep)
  --fault-seed N       base seed of the per-point fault RNG streams
                       (default 1; requires --faults)
  --replays            add a replay dose to every faulted point: whole
                       stale (ciphertext, counter, MAC) triples are
                       re-installed (requires --faults)
  --integrity          arm per-line integrity MACs: recovery verifies,
                       repairs counters by trial re-decryption, and
                       quarantines unrepairable lines
  --integrity-tree     arm the counter integrity tree on top of the
                       MACs (implies --integrity): recovery verifies
                       the tree root first and catches replayed
                       counters per line
  --verify             recover after the crash and verify consistency
  --stats              dump the full stat registry
  --quiet              suppress the metric summary
  --list               list designs and workloads, then exit
  --help               this text
)");
    std::exit(code);
}

DesignPoint
parseDesign(const std::string &name)
{
    for (DesignPoint d : {DesignPoint::NoEncryption, DesignPoint::Ideal,
                          DesignPoint::Colocated, DesignPoint::ColocatedCC,
                          DesignPoint::FCA, DesignPoint::SCA,
                          DesignPoint::Unsafe}) {
        if (name == designName(d))
            return d;
    }
    if (name == "Colocated" || name == "colocated")
        return DesignPoint::Colocated;
    if (name == "ColocatedCC" || name == "colocatedcc")
        return DesignPoint::ColocatedCC;
    if (name == "NoEnc" || name == "noenc")
        return DesignPoint::NoEncryption;
    if (name == "ideal")
        return DesignPoint::Ideal;
    if (name == "sca")
        return DesignPoint::SCA;
    if (name == "fca")
        return DesignPoint::FCA;
    if (name == "unsafe")
        return DesignPoint::Unsafe;
    std::fprintf(stderr, "unknown design '%s'\n", name.c_str());
    usage(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    double read_mult = 1.0, write_mult = 1.0;

    auto need_value = [&](int &i) -> const char * {
        return toolargs::needValue(argc, argv, i, usage);
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--list") {
            std::printf("designs:");
            for (DesignPoint d :
                 {DesignPoint::NoEncryption, DesignPoint::Ideal,
                  DesignPoint::Colocated, DesignPoint::ColocatedCC,
                  DesignPoint::FCA, DesignPoint::SCA,
                  DesignPoint::Unsafe})
                std::printf(" %s", designName(d));
            std::printf("\nworkloads:");
            for (WorkloadKind w : allWorkloadKinds())
                std::printf(" %s", workloadKindName(w));
            std::printf("\n");
            std::exit(0);
        } else if (arg == "--design") {
            opt.cfg.design = parseDesign(need_value(i));
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
        } else if (arg == "--batch") {
            opt.cfg.wl.batch =
                static_cast<unsigned>(std::atoi(need_value(i)));
        } else if (arg == "--footprint-mb") {
            opt.cfg.wl.regionBytes =
                std::strtoull(need_value(i), nullptr, 10) << 20;
        } else if (arg == "--cc-kb") {
            opt.cfg.memctl.counterCacheBytes =
                std::strtoull(need_value(i), nullptr, 10) << 10;
        } else if (arg == "--compute") {
            opt.cfg.wl.computePerTxn =
                std::strtoull(need_value(i), nullptr, 10);
        } else if (arg == "--seed") {
            opt.cfg.wl.seed = std::strtoull(need_value(i), nullptr, 10);
        } else if (arg == "--read-mult") {
            read_mult = std::atof(need_value(i));
        } else if (arg == "--write-mult") {
            write_mult = std::atof(need_value(i));
        } else if (arg == "--cold-cc") {
            opt.cfg.warmCounterCache = false;
        } else if (arg == "--crash-at-frac") {
            opt.crashFrac = std::atof(need_value(i));
        } else if (arg == "--crash-sweep") {
            opt.sweepPoints = toolargs::parsePositive("--crash-sweep",
                                                      need_value(i),
                                                      usage);
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
        } else if (arg == "--sweep-mode") {
            std::string name = need_value(i);
            if (name == "replay") {
                opt.sweepMode = SweepMode::Replay;
            } else if (name == "fork") {
                opt.sweepMode = SweepMode::Fork;
            } else {
                std::fprintf(stderr, "unknown sweep mode '%s'\n",
                             name.c_str());
                usage(2);
            }
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
        } else if (arg == "--verify") {
            opt.verify = true;
        } else if (arg == "--stats") {
            opt.dumpStats = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(2);
        }
    }

    if (read_mult != 1.0 || write_mult != 1.0)
        opt.cfg.nvm = NvmTiming::pcm().scaled(read_mult, write_mult);
    if (opt.verify || opt.crashFrac >= 0 || opt.sweepPoints > 0)
        opt.cfg.wl.recordDigests = true;
    opt.cfg.memctl.integrityMac = opt.integrity;
    opt.cfg.memctl.integrityTree = opt.integrityTree;
    toolargs::enforceFlagRules(
        {{opt.faults, opt.sweepPoints > 0, "--faults", "--crash-sweep"},
         {opt.recoveryCrashes > 0, opt.sweepPoints > 0,
          "--recovery-crashes", "--crash-sweep"},
         {opt.faultSeedSet, opt.faults, "--fault-seed", "--faults"},
         {opt.replays, opt.faults, "--replays", "--faults"}},
        usage);
    return opt;
}

/** --recovery-crashes: crash-during-recovery idempotence sweep. */
int
runRecoveryCrashes(const Options &opt)
{
    RecoveryCrashOptions rc_opt;
    rc_opt.points = opt.recoveryCrashes;
    rc_opt.images = opt.sweepPoints;
    rc_opt.recoveryJobs = opt.recoveryJobs;
    rc_opt.jobs = opt.jobs == 0 ? WorkPool::hardwareJobs() : opt.jobs;
    if (opt.faults)
        rc_opt.faults = opt.replays
            ? FaultSpec::allKindsWithReplays(opt.faultSeed)
            : FaultSpec::allKinds(opt.faultSeed);

    if (!opt.quiet)
        std::printf("crash-during-recovery sweep: %u images, %u "
                    "interruption points (%u jobs, %u recovery "
                    "jobs%s%s): %s\n",
                    rc_opt.images, rc_opt.points, rc_opt.jobs,
                    rc_opt.recoveryJobs,
                    opt.faults ? ", media faults" : "",
                    opt.integrity ? ", integrity MACs" : "",
                    System(opt.cfg).describe().c_str());

    RecoveryCrashResult result = runRecoveryCrashSweep(opt.cfg, rc_opt);
    if (!opt.quiet) {
        for (const RecoveryCrashPoint &p : result.points)
            std::printf("  img%-3zu %-18s %s%s%s%s\n", p.imageIndex,
                        p.spec.describe().c_str(),
                        p.fired ? "fired " : "unfired ",
                        p.divergent ? "DIVERGENT" : "converged",
                        p.detail.empty() ? "" : " : ",
                        p.detail.c_str());
    }
    std::printf("%u captured image(s), %zu interruption point(s): "
                "%u fired, %u divergent\n",
                result.images, result.points.size(),
                result.firedPoints(), result.divergentPoints());
    return !result.points.empty() && result.divergentPoints() == 0
        ? 0 : 1;
}

/** --crash-sweep: K-point sweep of this one configuration. */
int
runCrashSweep(const Options &opt)
{
    SweepOptions sweep_opt;
    sweep_opt.points = opt.sweepPoints;
    sweep_opt.jobs = opt.jobs == 0 ? WorkPool::hardwareJobs() : opt.jobs;
    sweep_opt.mode = opt.sweepMode;
    sweep_opt.recoveryJobs = opt.recoveryJobs;
    if (opt.faults)
        sweep_opt.faults = opt.replays
            ? FaultSpec::allKindsWithReplays(opt.faultSeed)
            : FaultSpec::allKinds(opt.faultSeed);

    if (!opt.quiet)
        std::printf("sweeping %u crash points (%u jobs, %s mode%s%s): %s\n",
                    opt.sweepPoints, sweep_opt.jobs,
                    sweepModeName(sweep_opt.mode),
                    opt.faults ? ", media faults" : "",
                    opt.integrity ? ", integrity MACs" : "",
                    System(opt.cfg).describe().c_str());

    SweepResult result = runSweep(opt.cfg, sweep_opt);
    for (const SweepPoint &p : result.points) {
        if (!opt.quiet) {
            std::printf("  %-20s %s\n", p.spec.describe().c_str(),
                        p.crashed ? crashClassName(p.cls) : "unreached");
        }
    }
    std::printf("%u points: %u reached, %u consistent, %u inconsistent "
                "(%u counter-data mismatches)\n",
                static_cast<unsigned>(result.points.size()),
                static_cast<unsigned>(result.points.size()) -
                    result.unreachedPoints(),
                result.countOf(CrashClass::Consistent),
                result.inconsistentPoints(), result.mismatchPoints());
    if (opt.faults) {
        std::printf("faults: %llu faulted lines, %llu detected, "
                    "%llu repaired, %llu unrecoverable; %u detected "
                    "point(s), %u silent point(s)\n",
                    static_cast<unsigned long long>(
                        result.totalOf(&SweepPoint::faultedLines)),
                    static_cast<unsigned long long>(
                        result.totalOf(&SweepPoint::detectedCorruptions)),
                    static_cast<unsigned long long>(
                        result.totalOf(&SweepPoint::repairedLines)),
                    static_cast<unsigned long long>(
                        result.totalOf(&SweepPoint::unrecoverableLines)),
                    result.detectedPoints(), result.silentPoints());
        if (opt.replays)
            std::printf("replays: %llu replayed lines, %llu caught; "
                        "%u replay-detected point(s), %u silent-replay "
                        "point(s)\n",
                        static_cast<unsigned long long>(
                            result.totalOf(&SweepPoint::replayedLines)),
                        static_cast<unsigned long long>(
                            result.totalOf(&SweepPoint::replaysDetected)),
                        result.replayDetectedPoints(),
                        result.silentReplayPoints());
        // With integrity armed the invariant is zero silent points —
        // extended to zero silent replays when the tree is on too;
        // without integrity the sweep is informational (the failures
        // are the expected behavior of unprotected media).
        if (!opt.integrity)
            return 0;
        if (result.silentPoints() != 0)
            return 1;
        if (opt.integrityTree && result.silentReplayPoints() != 0)
            return 1;
        return 0;
    }
    return result.inconsistentPoints() == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    if (opt.recoveryCrashes > 0)
        return runRecoveryCrashes(opt);
    if (opt.sweepPoints > 0)
        return runCrashSweep(opt);

    Tick crash_tick = 0;
    if (opt.crashFrac >= 0) {
        // Probe run to learn the total runtime.
        System probe(opt.cfg);
        Tick total = probe.run().endTick;
        crash_tick = static_cast<Tick>(
            static_cast<double>(total) * opt.crashFrac);
    }

    System sys(opt.cfg);
    if (!opt.quiet)
        std::printf("running: %s\n", sys.describe().c_str());

    RunResult result = opt.crashFrac >= 0
        ? sys.runWithCrashAt(crash_tick)
        : sys.run();

    if (!opt.quiet) {
        std::printf("%s after %.1f us, %llu txns, %.0f txn/s\n",
                    result.crashed ? "power failed" : "completed",
                    sys.runtimeNs() / 1000.0,
                    static_cast<unsigned long long>(result.txnsIssued),
                    sys.throughputTxnPerSec());
        std::printf("NVM: %.1f KB written, %.1f KB read, "
                    "counter-cache miss %.1f%%\n",
                    sys.nvmBytesWritten() / 1024.0,
                    sys.nvmBytesRead() / 1024.0,
                    sys.counterCacheMissRate() * 100.0);
    }

    int status = 0;
    if (opt.verify) {
        if (!result.crashed && opt.crashFrac >= 0) {
            std::printf("run completed before the crash point; "
                        "nothing to verify\n");
        } else {
            if (result.crashed == false)
                sys.crashChannels(); // clean-shutdown image check
            auto reports = sys.recoverAll(opt.recoveryJobs);
            for (unsigned c = 0; c < reports.size(); ++c) {
                const RecoveryReport &r = reports[c];
                if (r.consistent) {
                    std::printf("core %u: consistent (committed %llu"
                                "%s)\n", c,
                                static_cast<unsigned long long>(
                                    r.committedTxns),
                                r.rolledBack ? ", rolled back" : "");
                } else {
                    std::printf("core %u: INCONSISTENT: %s\n", c,
                                r.detail.c_str());
                    status = 1;
                }
            }
        }
    }

    if (opt.dumpStats)
        sys.statsRegistry().dump(std::cout);
    return status;
}
