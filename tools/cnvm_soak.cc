/**
 * @file
 * cnvm_soak — crash-chain soak: the crash→recover→resume lifecycle,
 * cycled with cumulative fault dosing.
 *
 * Where cnvm_crash_sweep asks "is every single crash point
 * recoverable?", cnvm_soak asks the operational question: does the
 * machine stay consistent across a *chain* of lifecycles, where each
 * recovered image is resumed as the next run's starting state and
 * faults accumulate dose after dose?
 *
 *   cnvm_soak --design SCA --cycles 50
 *   cnvm_soak --cycles 25 --faults --replays --integrity-tree
 *   cnvm_soak --design SCA --cycles 10 --chains 4 --jobs 4 --fingerprint
 *
 * Every chain is a pure function of (config, options): same crash
 * points, same doses, same per-cycle classifications, byte-identical
 * fingerprint at any --jobs value.
 *
 * Exit status: 0 when every design behaved as designed, 1 otherwise,
 * 2 on usage errors. "As designed" splits on the protection/dose
 * combination (soakChainExpectedOk):
 *
 *   - positive rows (crash-consistent designs, or any design with the
 *     matching integrity metadata armed for the dose): the chain must
 *     complete ok — every cycle loud, cumulative invariants held, the
 *     final examination fully consistent at target;
 *   - Unsafe without --integrity is the Figure-4 negative control: its
 *     chain must fail, and fail loudly (zero silent cycles — the torn
 *     counter is *detected*);
 *   - --faults without --integrity must demonstrate at least one
 *     silent cycle somewhere in the matrix (the dose bites, and bites
 *     silently when unprotected);
 *   - --replays without --integrity-tree must demonstrate at least one
 *     silent-replay cycle somewhere (stale triples verify per line).
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/soak.hh"
#include "stats/stats.hh"
#include "tool_args.hh"

using namespace cnvm;
using toolargs::shortDesignName;

namespace
{

struct Options : toolargs::CommonArgs
{
    SoakOptions soak;
    bool printStats = false;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(code == 0 ? stdout : stderr,
                 R"(cnvm_soak — crash-chain soak over the design space

options:
  --design NAME     soak one design (default: all of them)
  --cycles K        crash→recover→resume cycles per chain, before the
                    final resume-and-complete examination (default 20,
                    max 4096)
  --txns-per-cycle N
                    committed-target growth per cycle (default 12)
  --chains N        independent chains per design, seeds derived from
                    --seed (default 1)
  --jobs N          worker threads fanning the chains (default 1; the
                    fingerprint is identical at any N)
  --recovery-crashes R
                    per cycle, run R interrupted write-back recovery
                    attempts on a throwaway image copy and gate on
                    convergence with the committing pass (default 0)
  --workload NAME   array | queue | hash | btree | rbtree (default array)
  --cores N         number of cores (default 1)
  --channels N      memory channels sharding the address space
                    (power of two; default 1)
  --footprint-kb N  per-core region size (default 256)
  --cc-kb N         total counter cache KB, split evenly across the
                    channels (power of two, at least --channels;
                    default 16)
  --seed N          chain planning seed (default 1)
  --faults          dose every second cycle with media faults (torn
                    lines, bit flips, counter corruption/rollback, ADR
                    loss); per-cycle spec derived with
                    FaultSpec::forPoint
  --fault-seed N    base seed of the fault dose (default 1; requires
                    --faults)
  --replays         add a replay dose: whole stale (ciphertext,
                    counter, MAC) triples re-installed (requires
                    --faults)
  --integrity       arm the per-line integrity MACs (quarantine +
                    window repair; also what lets the Unsafe design
                    survive its own clean shutdowns)
  --integrity-tree  arm the counter integrity tree on top of the MACs
                    (implies --integrity)
  --stats           print the per-cycle stat snapshots (the reset
                    view) with accumulated totals, and the soak.*
                    registry
  --verbose         print every cycle of every chain
  --fingerprint     print each design's deterministic chain fingerprint
  --help            this text
)");
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.cfg.wl.regionBytes = 256u << 10;
    opt.cfg.wl.computePerTxn = 100;
    opt.cfg.wl.recordDigests = true;
    opt.cfg.wl.setupFill = 0.3;
    opt.cfg.memctl.counterCacheBytes = 16u << 10;
    opt.jobs = opt.soak.jobs;

    toolargs::parseArgs(
        argc, argv, opt, toolargs::FlagSet::CrashRuns, usage,
        [&](toolargs::ArgReader &a) {
            if (a.is("--cycles"))
                opt.soak.cycles = a.bounded(4096);
            else if (a.is("--txns-per-cycle"))
                opt.soak.txnsPerCycle = a.positive();
            else if (a.is("--chains"))
                opt.soak.chains = a.positive();
            else if (a.is("--stats"))
                opt.printStats = true;
            else
                return false;
            return true;
        });
    opt.soak.seed = opt.seed;
    opt.soak.jobs = opt.jobs;
    opt.soak.recoveryCrashes = opt.recoveryCrashes;
    opt.soak.faults = opt.dose();
    if (opt.designs.empty()) {
        for (DesignPoint d : allDesignPoints())
            opt.designs.push_back(d);
    }
    return opt;
}

/** Matrix-level tallies the negative-control gates read. */
struct MatrixTotals
{
    unsigned silentCycles = 0;       //!< SilentCorruption cycles
    unsigned silentReplayCycles = 0; //!< SilentReplay cycles
};

/** Per-cycle stat snapshot table of one chain: the reset view, with
 *  the accumulated totals (the sum over snapshots) as the last row. */
void
printCycleStats(DesignPoint d, const SoakChainResult &chain)
{
    std::printf("  per-cycle stats (%s, chain %u): each cycle runs on "
                "a freshly built System, so every snapshot is a reset "
                "view; accumulate = sum\n",
                shortDesignName(d), chain.chainIndex);
    std::printf("  %5s %8s %12s %12s %12s\n", "cycle", "txns",
                "nvm-wr-KB", "nvm-rd-KB", "data-inserts");
    CycleStats total;
    for (const SoakCycle &c : chain.cycles) {
        std::printf("  %5u %8llu %12.1f %12.1f %12llu\n", c.cycle,
                    static_cast<unsigned long long>(c.stats.txnsIssued),
                    c.stats.nvmBytesWritten / 1024.0,
                    c.stats.nvmBytesRead / 1024.0,
                    static_cast<unsigned long long>(c.stats.dataInserts));
        total.txnsIssued += c.stats.txnsIssued;
        total.nvmBytesWritten += c.stats.nvmBytesWritten;
        total.nvmBytesRead += c.stats.nvmBytesRead;
        total.dataInserts += c.stats.dataInserts;
    }
    std::printf("  %5s %8llu %12.1f %12.1f %12llu\n", "accum",
                static_cast<unsigned long long>(total.txnsIssued),
                total.nvmBytesWritten / 1024.0,
                total.nvmBytesRead / 1024.0,
                static_cast<unsigned long long>(total.dataInserts));
}

/** Soaks one design; returns whether it behaved as designed and adds
 *  its silent-cycle tallies into @p totals. */
bool
soakDesign(const Options &opt, DesignPoint design, MatrixTotals &totals,
           stats::Scalar &cycles_stat)
{
    SystemConfig cfg = opt.cfg;
    cfg.design = design;

    SoakResult result = runSoak(cfg, opt.soak);

    unsigned silent = 0, silent_replay = 0, detected = 0, rp_det = 0;
    unsigned crashed = 0, dosed = 0, resets = 0, interrupts = 0;
    std::uint64_t final_q = 0;
    bool final_at_target = true;
    for (const SoakChainResult &chain : result.chains) {
        cycles_stat += chain.cycles.size();
        crashed += chain.crashedCycles();
        dosed += chain.dosedCycles();
        resets += chain.totalResets();
        final_q += chain.finalQuarantined;
        for (const SoakCycle &c : chain.cycles) {
            silent += c.worst == CrashClass::SilentCorruption;
            silent_replay += c.worst == CrashClass::SilentReplay;
            detected += c.detectedCorruptions > 0;
            rp_det += c.replaysDetected > 0;
            interrupts += c.recoveryInterrupts;
        }
        for (std::uint64_t committed : chain.finalCommitted)
            final_at_target =
                final_at_target && committed == chain.finalTxnTarget;
        if (opt.verbose) {
            for (const SoakCycle &c : chain.cycles)
                std::printf("  chain%u %s\n", chain.chainIndex,
                            c.describe().c_str());
            if (!chain.ok)
                std::printf("  chain%u FAILED: %s\n", chain.chainIndex,
                            chain.failure.c_str());
        }
    }
    totals.silentCycles += silent;
    totals.silentReplayCycles += silent_replay;

    bool expected_ok = soakChainExpectedOk(design, opt.integrity(),
                                           opt.integrityTree(), opt.faults,
                                           opt.replays);
    std::printf("%-13s %7u %8u %8u %7u %7u %7u %8u %7u %8llu  %s\n",
                shortDesignName(design),
                static_cast<unsigned>(result.chains.size()),
                result.totalCycles(), crashed, dosed, resets,
                silent + silent_replay, detected, rp_det,
                static_cast<unsigned long long>(final_q),
                result.allOk()            ? "ok"
                    : expected_ok         ? "FAILED"
                                          : "failed (negative control)");
    if (!result.allOk() && (opt.verbose || expected_ok))
        std::printf("  ^^ %s\n", result.firstFailure().c_str());

    if (opt.fingerprint)
        std::printf("  fingerprint(%s):\n%s\n", shortDesignName(design),
                    result.fingerprint().c_str());
    if (opt.printStats && !result.chains.empty())
        printCycleStats(design, result.chains.front());

    if (expected_ok)
        return result.allOk() && final_at_target
            && (opt.soak.recoveryCrashes == 0 || interrupts > 0);
    // Negative-control rows must fail — and fail loudly when the
    // failure is the design's own (the Unsafe clean-chain control:
    // the torn counter is detected, never consumed). Dosed negative
    // controls are allowed to fail silently; that is their point, and
    // the matrix-level gates in main() require that they actually do.
    if (!result.allOk() && !opt.faults)
        return silent + silent_replay == 0;
    return !result.allOk();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    stats::StatRegistry registry;
    stats::Scalar cycles_stat("soak.cycles",
                              "crash→recover→resume cycles executed "
                              "(including each chain's final "
                              "examination)");
    registry.registerStat(cycles_stat);

    std::printf("crash-chain soak: %u cycle(s)/chain + final exam, "
                "%u chain(s)/design, +%u txns/cycle, workload %s, "
                "%u core(s), seed %llu, %u job(s)%s%s%s%s\n",
                opt.soak.cycles, opt.soak.chains, opt.soak.txnsPerCycle,
                workloadKindName(opt.cfg.workload), opt.cfg.numCores,
                static_cast<unsigned long long>(opt.soak.seed),
                opt.soak.jobs,
                opt.faults ? ", media faults" : "",
                opt.replays ? " + replays" : "",
                opt.soak.recoveryCrashes > 0 ? ", recovery-crash probe"
                                             : "",
                opt.integrityTree() ? ", integrity tree"
                    : opt.integrity() ? ", integrity MACs" : "");
    std::printf("%-13s %7s %8s %8s %7s %7s %7s %8s %7s %8s\n", "design",
                "chains", "cycles", "crashed", "dosed", "resets",
                "silent", "detected", "rp-det", "final-q");

    bool all_ok = true;
    MatrixTotals totals;
    for (DesignPoint d : opt.designs) {
        if (!soakDesign(opt, d, totals, cycles_stat)) {
            all_ok = false;
            std::printf("  ^^ %s did not behave as designed\n",
                        shortDesignName(d));
        }
    }

    if (opt.faults && !opt.integrity()) {
        // Negative control: without integrity metadata the dose must
        // demonstrate at least one silent cycle somewhere — otherwise
        // the zero-silent gate of the armed runs proves nothing.
        // (If this trips on a short run, raise --cycles.)
        if (totals.silentCycles + totals.silentReplayCycles == 0) {
            all_ok = false;
            std::printf("^^ no silent cycle anywhere: the fault dose "
                        "did not demonstrate the unprotected failure "
                        "mode\n");
        } else {
            std::printf("negative control: %u silent cycle(s) without "
                        "integrity metadata\n",
                        totals.silentCycles + totals.silentReplayCycles);
        }
    }
    if (opt.replays && opt.integrity() && !opt.integrityTree()) {
        // Negative control: MAC-only, at least one replayed triple
        // must be consumed silently somewhere in the matrix.
        if (totals.silentReplayCycles == 0) {
            all_ok = false;
            std::printf("^^ no silent replay anywhere: the replay dose "
                        "did not demonstrate the MAC-only failure "
                        "mode\n");
        } else {
            std::printf("negative control: %u silent-replay cycle(s) "
                        "without the integrity tree\n",
                        totals.silentReplayCycles);
        }
    }

    if (opt.printStats) {
        std::ostringstream os;
        registry.dump(os);
        std::printf("%s", os.str().c_str());
    }
    return all_ok ? 0 : 1;
}
