#include "bench_stats.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>
#include <time.h>

namespace perfbench
{

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
         + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
wallSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace
{

/** 1-based nearest rank of @p pct among @p n samples. The epsilon keeps
 *  an exact product (99.9% of 10000 = 9990) from rounding up a rank. */
std::size_t
rankOf(std::size_t n, double pct)
{
    double exact = pct * static_cast<double>(n) / 100.0;
    std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // anonymous namespace

Percentile
percentileOf(const std::vector<double> &values, double pct)
{
    Percentile p;
    p.pct = pct;
    p.samples = values.size();
    if (values.empty())
        return p;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t rank = rankOf(sorted.size(), pct);
    p.value = sorted[rank - 1];
    p.beyond = sorted.size() - rank;
    p.valid = p.beyond >= minBeyond;
    return p;
}

Percentile
tailPercentile(const std::vector<double> &values)
{
    constexpr double ladder[] = {99.9, 99, 95, 90, 50};
    for (double pct : ladder) {
        Percentile p = percentileOf(values, pct);
        if (p.valid)
            return p;
    }
    return percentileOf(values, 50);
}

std::string
Ratio::base() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g / %.17g", num, den);
    return buf;
}

} // namespace perfbench
