/**
 * @file
 * Quickstart: build an encrypted, crash-consistent NVMM system with
 * selective counter-atomicity, run a workload, and read the metrics.
 *
 *   ./quickstart [design] [workload] [txns]
 *
 * e.g. ./quickstart SCA btree 500
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/system.hh"

using namespace cnvm;

namespace
{

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
    if (name == "Colocated")
        return DesignPoint::Colocated;
    if (name == "ColocatedCC")
        return DesignPoint::ColocatedCC;
    std::fprintf(stderr,
                 "unknown design '%s' (try SCA, FCA, Ideal, "
                 "NoEncryption, Colocated, ColocatedCC, Unsafe)\n",
                 name.c_str());
    std::exit(1);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // 1. Configure the system. Everything defaults to the paper's
    //    Table 2: 4 GHz cores, 64 KB L1 + 2 MB L2, a 1 MB counter
    //    cache, 64/16-entry data/counter write queues, and PCM timing.
    SystemConfig cfg;
    cfg.design = argc > 1 ? parseDesign(argv[1]) : DesignPoint::SCA;
    cfg.workload = argc > 2 ? workloadKindFromName(argv[2])
                            : WorkloadKind::BTree;
    cfg.wl.txnTarget = argc > 3 ? std::atoi(argv[3]) : 300;
    cfg.wl.regionBytes = 6ull << 20;

    // 2. Build and run. The workload executes undo-logging
    //    transactions using the paper's primitives: CounterAtomic
    //    stores for the log's valid flag and counter_cache_writeback()
    //    before each persist barrier.
    System sys(cfg);
    std::printf("running: %s\n", sys.describe().c_str());
    RunResult result = sys.run();

    // 3. Read the metrics.
    std::printf("\ntransactions: %llu\n",
                static_cast<unsigned long long>(result.txnsIssued));
    std::printf("simulated time: %.1f us\n", sys.runtimeNs() / 1000.0);
    std::printf("throughput: %.0f txn/s\n", sys.throughputTxnPerSec());
    std::printf("NVM traffic: %.1f KB written, %.1f KB read\n",
                sys.nvmBytesWritten() / 1024.0,
                sys.nvmBytesRead() / 1024.0);
    std::printf("counter cache miss rate: %.1f%%\n",
                sys.counterCacheMissRate() * 100.0);

    // 4. Dump the full stat registry for anything else.
    std::printf("\nselected stats:\n");
    for (const char *name :
         {"memctl.ch0.atomic_pairs", "memctl.ch0.ctr_inserts",
          "memctl.ch0.data_inserts", "memctl.ch0.data_coalesces",
          "core0.fences", "core0.fence_stall_ticks"}) {
        const stats::Stat *stat = sys.statsRegistry().find(name);
        if (stat != nullptr)
            std::printf("  %-28s %.0f\n", name, stat->value());
    }
    return 0;
}
