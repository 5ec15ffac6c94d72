#include "trace.hh"

#include <cstdio>

#include "bench_stats.hh"

namespace perfbench
{

int
Tracer::open(const char *name, double start)
{
    if (!recordSpans)
        return -1;
    Record r;
    r.name = name;
    r.start = start;
    r.parent = openStack.empty() ? -1 : openStack.back();
    spans.push_back(std::move(r));
    openStack.push_back(static_cast<int>(spans.size()) - 1);
    return openStack.back();
}

void
Tracer::close(int index, double end)
{
    if (index < 0)
        return;
    spans[index].end = end;
    // Spans are scopes on one thread, so they close innermost first.
    if (!openStack.empty() && openStack.back() == index)
        openStack.pop_back();
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::vector<double> childTime(spans.size(), 0);
    for (const Record &r : spans)
        if (r.parent >= 0)
            childTime[r.parent] += r.end - r.start;

    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Record &r = spans[i];
        Totals &t = out[r.name];
        t.self += r.end - r.start - childTime[i];
        ++t.count;
    }
    return out;
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Record &r = spans[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                     "\"end\": %.9f, \"parent\": %d}\n",
                     i, r.name.c_str(), r.start, r.end, r.parent);
    }
    return std::fclose(f) == 0;
}

Span::Span(Tracer &t, const char *name)
    : tracer(t), start(processCpuSeconds())
{
    index = tracer.open(name, start);
}

Span::~Span()
{
    stop();
}

double
Span::stop()
{
    if (running) {
        double end = processCpuSeconds();
        elapsed = end - start;
        tracer.close(index, end);
        running = false;
    }
    return elapsed;
}

} // namespace perfbench
