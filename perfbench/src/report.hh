/**
 * @file
 * From passes to metrics: op accounting, the end-to-end set, the
 * per-layer set of the traced run, the printed report and the final
 * JSON line.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench_stats.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

/** Failed ops against attempted ops, over every pass of a run. */
struct OpTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Details of the first few failures. */
    std::vector<std::string> failures;

    /** Counts @p pass's ops. An op fails when its own check failed or
     *  its output differs from the same op's in @p ref; ops missing
     *  from either side fail too. */
    void add(const Pass &pass, const Pass &ref);

    /** failed / attempted, with its base. */
    Ratio failRatio() const
    {
        return {static_cast<double>(failed),
                static_cast<double>(attempted)};
    }
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;

    /** Base or definition printed beside the value in the report. */
    std::string note;
};

/**
 * The end-to-end set, from the untraced passes: setup_s and run_s are
 * medians over @p passes of each pass's CPU, sim_txn_per_s and
 * nvm_write_bytes_per_txn are exact (taken from @p ref, which every
 * pass reproduced), peak_rss_mb is the process's peak.
 */
std::vector<Metric> endToEndMetrics(WorkloadId w, const Pass &ref,
                                    const std::vector<Pass> &passes,
                                    double peak_rss_mb);

/**
 * Crash-recovery's own end-to-end readings and the op accounting:
 * points_per_s, point_p50_ms, point_p90_ms, point_samples,
 * soak_cycles_per_s (0 on workloads without crash points or soak
 * chains) and op_fail_ratio.
 */
std::vector<Metric> workloadMetrics(const std::vector<Pass> &passes,
                                    const OpTally &tally);

/** Per-layer metrics of one traced pass (see README.md). */
std::vector<Metric> layerMetrics(const Pass &pass);

/**
 * The per-layer set a traced run prints: layerMetrics() as medians
 * over @p traced, then workloadMetrics() of the untraced passes, then
 * trace.overhead_ratio — traced over untraced set-up + run CPU, the
 * traced total without the isolated calls.
 */
std::vector<Metric> perLayerMetrics(WorkloadId w,
                                    const std::vector<Pass> &plain,
                                    const std::vector<Pass> &traced,
                                    const OpTally &tally);

/** Self CPU share of every span name, largest first. */
std::vector<Metric> layerShares(const Tracer &tracer);

/** Prints "  name  value unit  (note)" lines under @p title. */
void printMetrics(const char *title, const std::vector<Metric> &metrics);

/** The final line: {"correct", "attempted", "failed", "metrics"}. */
std::string jsonLine(bool correct, const OpTally &tally,
                     const std::vector<Metric> &metrics);

/** True when every value is finite and positive (end-to-end metrics
 *  are never 0 on a healthy run). */
bool allPositive(const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
