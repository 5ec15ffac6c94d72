/**
 * @file
 * The benchmark's own statistics: process CPU time, peak memory,
 * medians, the tail-percentile rule, and ratios that carry their
 * base.
 */

#ifndef PERFBENCH_BENCH_STATS_HH
#define PERFBENCH_BENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** CPU time of the whole process, in seconds (all threads). */
double processCpuSeconds();

/** Wall-clock seconds on a monotonic clock. */
double wallSeconds();

/** Peak resident set size of this process, in MB (2^20 bytes). */
double peakRssMb();

/** Median of @p values (mean of the middle two for an even count);
 *  0 for an empty input. */
double median(std::vector<double> values);

/** A tail percentile is reported only with at least this many samples
 *  beyond it. */
constexpr std::size_t minBeyond = 10;

/** A percentile reading with the evidence behind it. */
struct Percentile
{
    double pct = 0;           //!< e.g. 90
    double value = 0;
    std::size_t samples = 0;  //!< n
    std::size_t beyond = 0;   //!< samples above the percentile's rank
    bool valid = false;       //!< at least minBeyond samples beyond it
};

/** The @p pct percentile of @p values (nearest rank), valid only when
 *  at least minBeyond samples lie beyond it. */
Percentile percentileOf(const std::vector<double> &values, double pct);

/**
 * The highest percentile of the ladder 50, 90, 95, 99, 99.9 that still
 * has at least minBeyond samples beyond it — the tail a timing is
 * reported at. Invalid when even the median lacks the samples.
 */
Percentile tailPercentile(const std::vector<double> &values);

/** A ratio that keeps its numerator and denominator for reporting. */
struct Ratio
{
    double num = 0;
    double den = 0;

    /** num / den; 0 when the base is empty. */
    double value() const { return den != 0 ? num / den : 0; }

    /** "num / den" for the report's base column. */
    std::string base() const;
};

/**
 * Sums CPU seconds of one phase across the ops of a pass; the pass
 * reports the sum, the run reports the median over passes.
 */
struct CpuTotal
{
    double seconds = 0;
    std::uint64_t spans = 0;

    void
    add(double s)
    {
        seconds += s;
        ++spans;
    }

    double meanMs() const { return spans ? seconds * 1e3 / spans : 0; }
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_HH
