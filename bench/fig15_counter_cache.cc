/**
 * @file
 * Figure 15 — sensitivity to counter cache size.
 *
 * SCA speedup over the smallest counter cache (a) and counter cache
 * read miss rate (b), for several workload footprints. The paper
 * sweeps 128 KB - 8 MB caches against 100 - 1000 MB footprints; this
 * harness preserves the footprint : cache-coverage ratios at laptop
 * scale (each 64 B counter line covers 512 B of data, so a cache of
 * size S covers 8*S of footprint).
 */

#include "bench/bench_util.hh"

using namespace cnvm;
using namespace cnvm::bench;

namespace
{

/** A footprint's row label in MB: "1.5MB" for 1536 KB, "3MB" for 3 MB. */
std::string
footprintLabel(std::uint64_t bytes)
{
    char label[32];
    std::snprintf(label, sizeof(label), "%gMB",
                  static_cast<double>(bytes) / (1 << 20));
    return label;
}

} // anonymous namespace

int
main()
{
    // Scaled sweep. Coverage ratios footprint/(8*cc) span ~24 down to
    // ~0.4, bracketing the paper's 100MB/1MB-cache .. 100MB/8MB-cache
    // span of 12.5 .. 1.56. The counter cache is warmed (steady state),
    // so the sweep isolates capacity misses as the paper's does.
    const std::vector<std::uint64_t> cc_bytes = {
        32ull << 10, 64ull << 10, 128ull << 10, 256ull << 10,
        512ull << 10,
    };
    const std::vector<std::uint64_t> footprints = {
        1536ull << 10, 3ull << 20, 6ull << 20,
    };
    const std::vector<WorkloadKind> workloads = {
        WorkloadKind::ArraySwap, WorkloadKind::HashTable,
    };

    std::printf("Figure 15: SCA sensitivity to counter cache size\n");
    std::printf("(paper sweeps 128KB-8MB caches x 100-1000MB footprints;"
                " scaled here preserving footprint:coverage ratios)\n\n");

    std::vector<std::string> columns;
    for (std::uint64_t s : cc_bytes)
        columns.push_back(std::to_string(s >> 10) + "K");

    std::printf("(a) average speedup over the %lluK counter cache "
                "(higher is better)\n",
                static_cast<unsigned long long>(cc_bytes[0] >> 10));
    printHeader("Footprint", columns);
    printRule(cc_bytes.size());

    std::vector<std::vector<std::vector<double>>> missrates;
    for (std::uint64_t footprint : footprints) {
        std::vector<double> speedup(cc_bytes.size(), 0.0);
        std::vector<std::vector<double>> rates(cc_bytes.size());
        for (WorkloadKind w : workloads) {
            double base_runtime = 0;
            for (std::size_t i = 0; i < cc_bytes.size(); ++i) {
                SystemConfig cfg = paperConfig(w, DesignPoint::SCA, 1,
                                               400);
                cfg.wl.regionBytes = footprint;
                cfg.wl.batch = 4;
                cfg.memctl.counterCacheBytes = cc_bytes[i];
                RunMetrics m = runOnce(cfg);
                if (i == 0)
                    base_runtime = m.runtimeNs;
                speedup[i] += base_runtime / m.runtimeNs;
                rates[i].push_back(m.ccMissRate);
            }
        }
        std::vector<double> row;
        for (double s : speedup)
            row.push_back(s / workloads.size());
        printRow(footprintLabel(footprint), row);
        missrates.push_back(rates);
    }

    std::printf("\n(b) average counter cache miss rate "
                "(lower is better)\n");
    printHeader("Footprint", columns);
    printRule(cc_bytes.size());
    for (std::size_t f = 0; f < footprints.size(); ++f) {
        std::vector<double> row;
        for (std::size_t i = 0; i < cc_bytes.size(); ++i) {
            double sum = 0;
            for (double r : missrates[f][i])
                sum += r;
            row.push_back(sum / missrates[f][i].size());
        }
        printRow(footprintLabel(footprints[f]), row);
    }

    std::printf("\npaper shape: larger caches help; the benefit (and "
                "the miss-rate drop) shrinks as the footprint grows "
                "past the cache coverage.\n");
    return 0;
}
