/**
 * @file
 * cnvm_perfbench — the repository's benchmark program.
 *
 *   cnvm_perfbench --workload scale-16c8ch --seed 1 --seconds 30 --trace 0
 *
 * Runs one warm-up pass of the workload (its outputs become the
 * reference every later pass must reproduce exactly), then measured
 * passes until --seconds of wall time have gone by, and prints a
 * report followed by one JSON line:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end set; with --trace 1 the
 * run splits its time between untraced and traced passes and the
 * metrics are the per-layer set (see perfbench/README.md). Exit status
 * is 0 when every op passed its check, 1 when any failed, 2 on usage
 * errors. This program owns every input's range and default; run.py
 * builds it and passes its arguments through.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "report.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** --seconds accepts [1, maxSeconds]; a pass takes at most ~12 s, so
 *  a run ends well inside run.py's time limit. */
constexpr std::uint64_t maxSeconds = 60;

struct Args
{
    WorkloadId workload = WorkloadId::Scale16c8ch;
    bool workloadSet = false;
    std::uint64_t seed = 1;
    double seconds = 30;
    bool trace = false;
    std::string traceDir;
    bool injectFailure = false;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(code == 0 ? stdout : stderr,
                 R"(cnvm_perfbench — closed-loop benchmark of the cnvm library

options:
  --workload NAME   scale-16c8ch | crash-recovery (required)
  --seed N          derives every generated input (default 1)
  --seconds S       wall time of the measured passes, 1 to 60 (default 30)
  --trace 0|1       1: also run traced passes and print the per-layer
                    metrics instead of the end-to-end ones
  --trace-dir DIR   where the traced run writes its spans, as
                    DIR/<workload>-seed<N>.jsonl
  --inject-failure  swap each pass's first op for a negative control
                    its check must reject (the run then exits 1)
  --help            this text
)");
    std::exit(code);
}

std::uint64_t
parseU64(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-' || errno == ERANGE) {
        std::fprintf(stderr, "%s: not a non-negative integer: '%s'\n",
                     flag, text);
        usage(2);
    }
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", argv[i]);
            usage(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--workload") {
            std::string name = value(i);
            auto w = workloadFromName(name);
            if (!w) {
                std::fprintf(stderr, "unknown workload '%s'\n",
                             name.c_str());
                usage(2);
            }
            a.workload = *w;
            a.workloadSet = true;
        } else if (arg == "--seed") {
            a.seed = parseU64("--seed", value(i));
        } else if (arg == "--seconds") {
            std::uint64_t s = parseU64("--seconds", value(i));
            if (s < 1 || s > maxSeconds) {
                std::fprintf(stderr, "--seconds must be in [1, %llu]\n",
                             static_cast<unsigned long long>(maxSeconds));
                usage(2);
            }
            a.seconds = static_cast<double>(s);
        } else if (arg == "--trace") {
            std::uint64_t t = parseU64("--trace", value(i));
            if (t > 1) {
                std::fprintf(stderr, "--trace must be 0 or 1\n");
                usage(2);
            }
            a.trace = t == 1;
        } else if (arg == "--trace-dir") {
            a.traceDir = value(i);
        } else if (arg == "--inject-failure") {
            a.injectFailure = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(2);
        }
    }
    if (!a.workloadSet) {
        std::fprintf(stderr, "--workload is required\n");
        usage(2);
    }
    return a;
}

/** Runs passes until @p budget wall seconds have elapsed and at least
 *  @p min_passes ran, tallying every op against @p ref. */
std::vector<Pass>
measure(const Args &a, const Seeds &seeds, Tracer &tracer, double budget,
        std::size_t min_passes, const Pass &ref, OpTally &tally)
{
    std::vector<Pass> passes;
    const double start = wallSeconds();
    while (passes.size() < min_passes || wallSeconds() - start < budget) {
        passes.push_back(runPass(a.workload, seeds, tracer,
                                 a.injectFailure));
        tally.add(passes.back(), ref);
    }
    return passes;
}

/** Writes the spans to DIR/<workload>-seed<N>.jsonl. */
void
writeSpans(const Args &a, const Tracer &tracer)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(a.traceDir, ec);
    const fs::path path = fs::path(a.traceDir)
        / (std::string(workloadName(a.workload)) + "-seed"
           + std::to_string(a.seed) + ".jsonl");
    if (ec || !tracer.writeJsonLines(path.string()))
        std::fprintf(stderr, "could not write spans to %s\n",
                     path.string().c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const Seeds seeds = Seeds::derive(a.seed);
    std::printf("workload %s, seed %llu (workload seed %llu, fault seed "
                "%llu, soak seed %llu), %g s measured, trace %d\n",
                workloadName(a.workload),
                static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(seeds.workload),
                static_cast<unsigned long long>(seeds.fault),
                static_cast<unsigned long long>(seeds.soak), a.seconds,
                a.trace ? 1 : 0);

    // The warm-up pass: caches and the allocator settle, and its op
    // outputs become the reference the measured passes must repeat.
    Tracer untraced(false);
    OpTally tally;
    const Pass ref = runPass(a.workload, seeds, untraced, a.injectFailure);
    tally.add(ref, ref);

    const double budget = a.trace ? a.seconds / 2 : a.seconds;
    const std::vector<Pass> plain =
        measure(a, seeds, untraced, budget, 3, ref, tally);
    const std::vector<Metric> e2e =
        endToEndMetrics(a.workload, ref, plain, peakRssMb());

    std::vector<Metric> out = e2e;
    if (a.trace) {
        Tracer tracer(true);
        const std::vector<Pass> traced =
            measure(a, seeds, tracer, budget, 2, ref, tally);
        if (!a.traceDir.empty())
            writeSpans(a, tracer);
        printMetrics("layer shares of the traced passes (self CPU):",
                     layerShares(tracer));
        // The traced passes' own exact readings: they must equal the
        // untraced ones (every op was already checked against ref).
        printMetrics("traced end-to-end, isolated calls excluded:",
                     endToEndMetrics(a.workload, traced.front(), traced,
                                     peakRssMb()));
        out = perLayerMetrics(a.workload, plain, traced, tally);
        printMetrics("per-layer:", out);
    }
    printMetrics("end-to-end (untraced):", e2e);
    printMetrics("workload:", workloadMetrics(plain, tally));
    for (const std::string &why : tally.failures)
        std::printf("FAILED: %s\n", why.c_str());

    const bool correct = tally.failed == 0 && allPositive(e2e);
    std::printf("%s\n", jsonLine(correct, tally, out).c_str());
    return correct ? 0 : 1;
}
