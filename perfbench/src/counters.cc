#include "counters.hh"

#include <cctype>

#include "stats/stats.hh"

namespace perfbench
{

namespace
{

/** True for "<prefix><digits>" with at least one digit. */
bool
isIndexed(const std::string &part, const char *prefix)
{
    std::string p = prefix;
    if (part.size() <= p.size() || part.compare(0, p.size(), p) != 0)
        return false;
    for (std::size_t i = p.size(); i < part.size(); ++i)
        if (!std::isdigit(static_cast<unsigned char>(part[i])))
            return false;
    return true;
}

} // anonymous namespace

std::string
foldStatName(const std::string &name)
{
    std::string out;
    std::size_t begin = 0;
    while (begin <= name.size()) {
        std::size_t end = name.find('.', begin);
        if (end == std::string::npos)
            end = name.size();
        std::string part = name.substr(begin, end - begin);
        if (isIndexed(part, "core"))
            part = "core";
        if (!isIndexed(part, "ch")) {
            if (!out.empty())
                out += '.';
            out += part;
        }
        begin = end + 1;
    }
    return out;
}

void
Counters::addSystem(cnvm::System &sys, const cnvm::RunResult &run)
{
    for (const cnvm::stats::Stat *stat : sys.statsRegistry().all()) {
        std::string key = foldStatName(stat->name());
        if (auto *h = dynamic_cast<const cnvm::stats::Histogram *>(stat)) {
            add(key + "::count", static_cast<double>(h->count()));
            add(key + "::sum", h->mean() * static_cast<double>(h->count()));
        } else {
            add(key, stat->value());
        }
    }
    add("sim.systems", 1);
    add("sim.txns", static_cast<double>(run.txnsIssued));
    add("sim.ns", sys.runtimeNs());
    add("sim.core_ticks",
        static_cast<double>(run.endTick) * sys.numCores());
    add("sim.events",
        static_cast<double>(sys.eventQueue().processedCount()));
    add("sim.nvm_bytes_written",
        static_cast<double>(sys.nvmBytesWritten()));
    for (unsigned c = 0; c < sys.numCores(); ++c)
        add("txn.lines_logged",
            static_cast<double>(sys.workload(c).totalLinesLogged()));
}

double
Counters::get(const std::string &key) const
{
    auto it = sums.find(key);
    return it == sums.end() ? 0 : it->second;
}

} // namespace perfbench
