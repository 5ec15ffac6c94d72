/**
 * @file
 * Tests of the benchmark itself: its statistics, its span accounting,
 * its op accounting, that the sweep it times is the library's sweep,
 * that one seed fixes every input, and that BENCHMARK.json names the
 * metrics the program prints.
 */

#include <fstream>
#include <regex>
#include <sstream>

#include <gtest/gtest.h>

#include "bench_stats.hh"
#include "counters.hh"
#include "report.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;
using namespace cnvm;

namespace
{

/** Burns roughly @p ms of CPU. */
void
spin(double ms)
{
    const double until = processCpuSeconds() + ms * 1e-3;
    volatile unsigned sink = 0;
    while (processCpuSeconds() < until)
        for (unsigned i = 0; i < 1000; ++i)
            sink = sink + i;
}

std::vector<double>
ramp(unsigned n)
{
    std::vector<double> v;
    for (unsigned i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

const Metric &
find(const std::vector<Metric> &metrics, const std::string &name)
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return m;
    throw std::runtime_error("no metric " + name);
}

/** Metric names listed under @p section of BENCHMARK.json. */
std::vector<std::string>
benchmarkJsonNames(const std::string &section)
{
    std::ifstream in(std::string(PERFBENCH_REPO_ROOT) + "/BENCHMARK.json");
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    std::size_t begin = text.find("\"" + section + "\"");
    if (begin == std::string::npos)
        return {};
    std::size_t end = text.find(']', begin);
    std::string body = text.substr(begin, end - begin);
    std::regex name_re("\"name\":\\s*\"([^\"]+)\"");
    std::vector<std::string> names;
    for (std::sregex_iterator it(body.begin(), body.end(), name_re), last;
         it != last; ++it)
        names.push_back((*it)[1]);
    return names;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

TEST(BenchStats, MedianOfOddAndEvenCounts)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
}

TEST(BenchStats, PercentileNeedsTenSamplesBeyondIt)
{
    // 99 samples: p90 sits at rank 90, leaving 9 beyond — not valid.
    Percentile p = percentileOf(ramp(99), 90);
    EXPECT_EQ(p.samples, 99u);
    EXPECT_EQ(p.beyond, 9u);
    EXPECT_FALSE(p.valid);

    p = percentileOf(ramp(100), 90);
    EXPECT_EQ(p.samples, 100u);
    EXPECT_EQ(p.beyond, 10u);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.value, 90);

    EXPECT_EQ(percentileOf(ramp(100), 50).value, 50);
}

TEST(BenchStats, TailIsTheHighestPercentileWithTenBeyond)
{
    EXPECT_EQ(tailPercentile(ramp(100)).pct, 90);
    EXPECT_EQ(tailPercentile(ramp(199)).pct, 90);
    EXPECT_EQ(tailPercentile(ramp(200)).pct, 95);
    Percentile p = tailPercentile(ramp(1000));
    EXPECT_EQ(p.pct, 99);
    EXPECT_EQ(p.value, 990);
    EXPECT_EQ(p.beyond, 10u);
    EXPECT_EQ(p.samples, 1000u);
    EXPECT_EQ(tailPercentile(ramp(10000)).pct, 99.9);
    // Too few samples for even the median: reported, flagged invalid.
    p = tailPercentile(ramp(15));
    EXPECT_EQ(p.pct, 50);
    EXPECT_FALSE(p.valid);
}

TEST(BenchStats, RatioKeepsItsBase)
{
    Ratio r{3, 4};
    EXPECT_DOUBLE_EQ(r.value(), 0.75);
    EXPECT_EQ(r.base(), "3 / 4");
    EXPECT_EQ((Ratio{5, 0}).value(), 0);
}

TEST(BenchStats, CpuTotalSumsSpans)
{
    CpuTotal t;
    t.add(0.010);
    t.add(0.030);
    EXPECT_DOUBLE_EQ(t.seconds, 0.040);
    EXPECT_EQ(t.spans, 2u);
    EXPECT_DOUBLE_EQ(t.meanMs(), 20);
    EXPECT_EQ(CpuTotal{}.meanMs(), 0);
}

TEST(BenchStats, ProcessCpuTimeAdvancesWithWork)
{
    double t0 = processCpuSeconds();
    spin(5);
    EXPECT_GE(processCpuSeconds() - t0, 0.005);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

TEST(Trace, SelfTimeIsDurationMinusDirectChildren)
{
    Tracer tracer(true);
    double outer_s = 0, inner_s = 0;
    {
        Span outer(tracer, "outer");
        spin(2);
        {
            Span inner(tracer, "inner");
            spin(3);
            inner_s = inner.stop();
        }
        {
            Span inner(tracer, "inner");
            spin(1);
            inner_s += inner.stop();
        }
        outer_s = outer.stop();
    }
    ASSERT_EQ(tracer.records().size(), 3u);
    EXPECT_EQ(tracer.records()[1].parent, 0);
    EXPECT_EQ(tracer.records()[2].parent, 0);
    EXPECT_EQ(tracer.records()[0].parent, -1);

    auto totals = tracer.totals();
    EXPECT_EQ(totals["inner"].count, 2u);
    EXPECT_DOUBLE_EQ(totals["inner"].self, inner_s);
    EXPECT_NEAR(totals["outer"].self, outer_s - inner_s, 1e-12);
    EXPECT_GE(inner_s, 0.004);
}

TEST(Trace, UntracedSpansStillTimeButRecordNothing)
{
    Tracer tracer(false);
    Span s(tracer, "work");
    spin(2);
    EXPECT_GE(s.stop(), 0.002);
    EXPECT_TRUE(tracer.records().empty());
}

// ---------------------------------------------------------------------
// Counts and op accounting
// ---------------------------------------------------------------------

TEST(Counters, FoldsCoreAndChannelIndices)
{
    EXPECT_EQ(foldStatName("core12.mem.l1_hits"), "core.mem.l1_hits");
    EXPECT_EQ(foldStatName("memctl.ch3.pair_blocks"), "memctl.pair_blocks");
    EXPECT_EQ(foldStatName("ctrcache.ch0.read_hits"), "ctrcache.read_hits");
    EXPECT_EQ(foldStatName("nvm.writes"), "nvm.writes");
    EXPECT_EQ(foldStatName("core.loads"), "core.loads");
    EXPECT_EQ(foldStatName("cache.chx"), "cache.chx");
}

TEST(OpTally, CountsCheckFailuresAndOutputDrift)
{
    Pass ref;
    ref.ops = {{"a", true, ""}, {"b", true, ""}, {"c", true, ""}};
    Pass pass = ref;
    pass.ops[1].ok = false;
    pass.ops[1].why = "b broke";
    pass.ops[2].id = "c'";

    OpTally tally;
    tally.add(ref, ref);
    EXPECT_EQ(tally.attempted, 3u);
    EXPECT_EQ(tally.failed, 0u);
    tally.add(pass, ref);
    EXPECT_EQ(tally.attempted, 6u);
    EXPECT_EQ(tally.failed, 2u);
    ASSERT_EQ(tally.failures.size(), 2u);
    EXPECT_EQ(tally.failures[0], "b broke");

    Pass shorter = ref;
    shorter.ops.pop_back();
    tally.add(shorter, ref);
    EXPECT_EQ(tally.attempted, 9u);
    EXPECT_EQ(tally.failed, 3u);

    const std::vector<Metric> metrics = workloadMetrics({}, tally);
    const Metric &ratio = find(metrics, "op_fail_ratio");
    EXPECT_DOUBLE_EQ(ratio.value, 3.0 / 9.0);
    EXPECT_NE(ratio.note.find("= 3 / 9"), std::string::npos);
}

TEST(Report, EveryRatioStatesItsBase)
{
    Pass ref;
    ref.counts.add("sim.txns", 200);
    ref.counts.add("sim.ns", 1e6);
    ref.counts.add("sim.nvm_bytes_written", 51200);
    ref.cpu["core.build"].add(0.5);
    ref.cpu["sim.run"].add(0.25);
    std::vector<Metric> e2e =
        endToEndMetrics(WorkloadId::Scale16c8ch, ref, {ref, ref, ref}, 64);
    EXPECT_DOUBLE_EQ(find(e2e, "sim_txn_per_s").value, 200 / 1e-3);
    EXPECT_NE(find(e2e, "sim_txn_per_s").note.find("200 / 0.001"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(find(e2e, "nvm_write_bytes_per_txn").value, 256);
    EXPECT_NE(find(e2e, "nvm_write_bytes_per_txn").note.find("51200 / 200"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(find(e2e, "setup_s").value, 0.5);
    EXPECT_DOUBLE_EQ(find(e2e, "run_s").value, 0.25);
    EXPECT_TRUE(allPositive(e2e));
    e2e[0].value = 0;
    EXPECT_FALSE(allPositive(e2e));

    Pass sweep;
    sweep.counts.add("sweep.points_planned", 240);
    sweep.cpu["sweep.capture"].add(1.0);
    sweep.cpu["oracle.classify"].add(1.0);
    sweep.pointSeconds.assign(100, 0.002);
    std::vector<Metric> wm = workloadMetrics({sweep}, OpTally{});
    EXPECT_DOUBLE_EQ(find(wm, "points_per_s").value, 120);
    EXPECT_NE(find(wm, "points_per_s").note.find("240 planned"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(find(wm, "point_p90_ms").value, 2);
    EXPECT_NE(find(wm, "point_p90_ms").note.find("100 samples, 10 beyond"),
              std::string::npos);
    EXPECT_EQ(find(wm, "point_samples").value, 100);
}

TEST(Report, JsonLineHasExactlyTheResultKeys)
{
    OpTally tally;
    tally.attempted = 7;
    std::string line = jsonLine(true, tally,
                                {{"setup_s", 0.8127, "s", ""},
                                 {"run_s", 1.5, "s", ""}});
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 7, \"failed\": 0, "
              "\"metrics\": {\"setup_s\": {\"value\": 0.81269999999999998, "
              "\"unit\": \"s\"}, \"run_s\": {\"value\": 1.5, "
              "\"unit\": \"s\"}}}");
}

TEST(Report, BenchmarkJsonNamesTheMetricsTheProgramPrints)
{
    std::vector<std::string> e2e;
    for (const Metric &m :
         endToEndMetrics(WorkloadId::Scale16c8ch, Pass{}, {Pass{}}, 1))
        e2e.push_back(m.name);
    EXPECT_EQ(benchmarkJsonNames("end_to_end"), e2e);
    std::vector<std::string> per_layer;
    for (const Metric &m :
         perLayerMetrics(WorkloadId::Scale16c8ch, {}, {}, OpTally{}))
        per_layer.push_back(m.name);
    EXPECT_EQ(benchmarkJsonNames("per_layer"), per_layer);
    EXPECT_EQ(benchmarkJsonNames("workloads"),
              (std::vector<std::string>{"scale-16c8ch", "crash-recovery"}));
}

// ---------------------------------------------------------------------
// The computation timed is the computation users run
// ---------------------------------------------------------------------

TEST(Sweep, AssembledSweepIsTheLibrarySweepForAllFourDesigns)
{
    const Seeds seeds = Seeds::derive(1);
    for (DesignPoint d : crashDesigns()) {
        SystemConfig cfg = sweepConfig(d, seeds);
        SweepOptions opt;
        opt.points = sweepPoints;
        opt.mode = SweepMode::Fork;
        opt.jobs = 1;
        opt.faults = sweepFaults(seeds);
        const std::string library = runSweep(cfg, opt).fingerprint();

        Tracer untraced(false);
        Pass pass;
        EXPECT_EQ(runForkSweep(cfg, sweepPoints, opt.faults, untraced, pass)
                      .fingerprint(),
                  library)
            << designName(d);
        EXPECT_EQ(pass.pointSeconds.size(), pass.counts.get("sweep.forks"));

        // The traced run's isolated calls work on copies only.
        Tracer traced(true);
        Pass tpass;
        EXPECT_EQ(runForkSweep(cfg, sweepPoints, opt.faults, traced, tpass)
                      .fingerprint(),
                  library)
            << designName(d);
        EXPECT_GT(tpass.cpuOf("recovery.recover"), 0);
    }
}

// ---------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------

TEST(Seeds, OneSeedDerivesDistinctStreams)
{
    Seeds a = Seeds::derive(1);
    EXPECT_NE(a.workload, a.fault);
    EXPECT_NE(a.workload, a.soak);
    EXPECT_NE(a.fault, a.soak);
    Seeds b = Seeds::derive(1);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.fault, b.fault);
    EXPECT_EQ(a.soak, b.soak);
    Seeds c = Seeds::derive(2);
    EXPECT_NE(a.workload, c.workload);
    EXPECT_NE(a.fault, c.fault);
    EXPECT_NE(a.soak, c.soak);

    EXPECT_EQ(scaleConfig(WorkloadKind::HashTable, a).wl.seed, a.workload);
    EXPECT_EQ(sweepConfig(DesignPoint::SCA, a).wl.seed, a.workload);
    EXPECT_EQ(sweepFaults(a).seed, a.fault);
    EXPECT_EQ(soakOptions(a).seed, a.soak);
    EXPECT_EQ(soakOptions(a).faults.seed, a.fault);
}

namespace
{

/** The exact readings one seed fixes, on reduced-size ops. */
struct SeedReadings
{
    double simTxnPerS = 0;
    double bytesPerTxn = 0;
    std::string sweep;
    std::string soak;
};

SeedReadings
readingsFor(std::uint64_t seed)
{
    const Seeds seeds = Seeds::derive(seed);
    Tracer untraced(false);
    Pass pass;
    SystemConfig cfg = scaleConfig(WorkloadKind::HashTable, seeds);
    cfg.wl.txnTarget = 30;
    cfg.wl.regionBytes = 256u << 10;
    EXPECT_TRUE(runSimOp(cfg, untraced, pass).ok);

    Pass ref;
    ref.counts = pass.counts;
    std::vector<Metric> e2e =
        endToEndMetrics(WorkloadId::Scale16c8ch, ref, {pass}, 1);

    SeedReadings r;
    r.simTxnPerS = find(e2e, "sim_txn_per_s").value;
    r.bytesPerTxn = find(e2e, "nvm_write_bytes_per_txn").value;
    r.sweep = runForkSweep(sweepConfig(DesignPoint::SCA, seeds),
                           sweepPoints, sweepFaults(seeds), untraced, pass)
                  .fingerprint();
    SystemConfig scfg = soakConfig(DesignPoint::SCA, seeds);
    scfg.wl.regionBytes = 256u << 10;
    SoakOptions sopt = soakOptions(seeds);
    sopt.cycles = 3;
    r.soak = runSoakOp(scfg, sopt, untraced, pass).fingerprint();
    return r;
}

} // anonymous namespace

TEST(Seeds, SameSeedRepeatsExactlyAndAnotherSeedDiffers)
{
    SeedReadings a = readingsFor(1);
    SeedReadings b = readingsFor(1);
    SeedReadings c = readingsFor(2);
    EXPECT_EQ(a.simTxnPerS, b.simTxnPerS);
    EXPECT_EQ(a.bytesPerTxn, b.bytesPerTxn);
    EXPECT_EQ(a.sweep, b.sweep);
    EXPECT_EQ(a.soak, b.soak);
    EXPECT_NE(a.simTxnPerS, c.simTxnPerS);
    EXPECT_NE(a.bytesPerTxn, c.bytesPerTxn);
    EXPECT_NE(a.sweep, c.sweep);
    EXPECT_NE(a.soak, c.soak);
}

// ---------------------------------------------------------------------
// Failure accounting: what --inject-failure swaps in fails its check
// ---------------------------------------------------------------------

TEST(Checks, InjectedScaleOpFailsTheCleanShutdownCheck)
{
    // The first scale-16c8ch op with the negative control applied, on
    // fewer transactions and a smaller region.
    SystemConfig cfg = scaleConfig(scaleKinds().front(), Seeds::derive(1));
    makeNegativeControl(cfg);
    cfg.wl.txnTarget = 100;
    cfg.wl.regionBytes = 256u << 10;
    EXPECT_EQ(cfg.design, DesignPoint::Unsafe);
    EXPECT_EQ(cfg.numCores, 16u);
    EXPECT_EQ(cfg.numChannels, 8u);
    Tracer untraced(false);
    Pass pass;
    OpOutcome op = runSimOp(cfg, untraced, pass);
    EXPECT_FALSE(op.ok);
    EXPECT_NE(op.why.find("inconsistent"), std::string::npos) << op.why;
}

TEST(Checks, InjectedCrashRecoveryPassFailsItsSweepPoints)
{
    // runPass swaps the first sweep design for the negative control;
    // its dosed points go silent and fail, everything else passes.
    const Seeds seeds = Seeds::derive(1);
    Tracer untraced(false);
    Pass pass = runPass(WorkloadId::CrashRecovery, seeds, untraced, true);
    OpTally tally;
    tally.add(pass, pass);
    EXPECT_GT(tally.failed, 0u);
    EXPECT_LE(tally.failed, sweepPoints); // only the first design's points
    ASSERT_FALSE(tally.failures.empty());
    EXPECT_EQ(tally.failures.front().rfind(
                  designName(crashDesigns().front()), 0),
              0u)
        << tally.failures.front();
    EXPECT_NE(tally.failures.front().find("silent"), std::string::npos)
        << tally.failures.front();

    Pass clean = runPass(WorkloadId::CrashRecovery, seeds, untraced, false);
    OpTally clean_tally;
    clean_tally.add(clean, clean);
    EXPECT_EQ(clean_tally.failed, 0u);
    EXPECT_EQ(clean_tally.attempted, tally.attempted);
}
