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
#include <iostream>

#include "core/system.hh"
#include "tool_args.hh"

using namespace cnvm;

namespace
{

struct Options : toolargs::CommonArgs
{
    double crashFrac = -1.0; //!< <0: no crash
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
  --txns N             transactions per core (default 500)
  --batch N            mutations per transaction (default 1)
  --footprint-kb N     per-core region size (default 8192)
  --cc-kb N            total counter cache KB, split evenly across the
                       channels (power of two, at least --channels;
                       default 1024)
  --compute N          compute cycles per transaction (default 1000)
  --seed N             workload seed (default 1)
  --read-mult X        scale NVM read latency (default 1.0)
  --write-mult X       scale NVM write latency (default 1.0)
  --cold-cc            do not pre-warm the counter cache
  --crash-at-frac F    inject a power failure at F of the expected
                       runtime (two runs: probe, then crash)
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

Crash-point sweeps are cnvm_crash_sweep's job; crash chains, cnvm_soak's.
)");
    std::exit(code);
}

[[noreturn]] void
listAndExit()
{
    std::printf("designs:");
    for (DesignPoint d : allDesignPoints())
        std::printf(" %s", designName(d));
    std::printf("\nworkloads:");
    for (WorkloadKind w : allWorkloadKinds())
        std::printf(" %s", workloadKindName(w));
    std::printf("\n");
    std::exit(0);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    double read_mult = 1.0, write_mult = 1.0;
    toolargs::parseArgs(
        argc, argv, opt, toolargs::FlagSet::Config, usage,
        [&](toolargs::ArgReader &a) {
            if (a.is("--list"))
                listAndExit();
            else if (a.is("--txns"))
                opt.cfg.wl.txnTarget = a.positive();
            else if (a.is("--batch"))
                opt.cfg.wl.batch = a.positive();
            else if (a.is("--compute"))
                opt.cfg.wl.computePerTxn = a.u64();
            else if (a.is("--read-mult"))
                read_mult = a.real(/*allow_zero=*/false);
            else if (a.is("--write-mult"))
                write_mult = a.real(/*allow_zero=*/false);
            else if (a.is("--cold-cc"))
                opt.cfg.warmCounterCache = false;
            else if (a.is("--crash-at-frac"))
                opt.crashFrac = a.real(/*allow_zero=*/true);
            else if (a.is("--verify"))
                opt.verify = true;
            else if (a.is("--stats"))
                opt.dumpStats = true;
            else if (a.is("--quiet"))
                opt.quiet = true;
            else
                return false;
            return true;
        });

    opt.cfg.wl.seed = opt.seed;
    if (read_mult != 1.0 || write_mult != 1.0)
        opt.cfg.nvm = NvmTiming::pcm().scaled(read_mult, write_mult);
    if (opt.verify || opt.crashFrac >= 0)
        opt.cfg.wl.recordDigests = true;
    return opt;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

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
            auto reports = sys.recoverAll();
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
