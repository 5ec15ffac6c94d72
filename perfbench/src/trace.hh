/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Every call the benchmark makes into the library sits inside a Span,
 * which measures its process CPU time. When the Tracer records, the
 * span is also kept as (name, start, end, parent) and written out when
 * the benchmark ends; a span's self time is its duration minus the
 * durations of its direct children. An untraced run uses the same
 * spans with recording off, so both runs time exactly the same code.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

class Tracer
{
  public:
    /** One recorded span; times are process CPU seconds. */
    struct Record
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1; //!< index of the enclosing span, -1 at top level
    };

    /** Per-name aggregate over every recorded span. */
    struct Totals
    {
        double self = 0; //!< Σ durations minus direct children
        std::uint64_t count = 0;
    };

    explicit Tracer(bool record) : recordSpans(record) {}

    bool recording() const { return recordSpans; }

    const std::vector<Record> &records() const { return spans; }

    /** Totals keyed by span name. */
    std::map<std::string, Totals> totals() const;

    /** Writes one JSON object per span, one per line. */
    bool writeJsonLines(const std::string &path) const;

  private:
    friend class Span;

    int open(const char *name, double start);
    void close(int index, double end);

    bool recordSpans;
    std::vector<Record> spans;
    std::vector<int> openStack;
};

/** A CPU-timed scope, recorded when its tracer records. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Ends the span (once) and returns its CPU seconds. */
    double stop();

  private:
    Tracer &tracer;
    double start;
    double elapsed = 0;
    int index = -1;
    bool running = true;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
