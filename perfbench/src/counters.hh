/**
 * @file
 * Exact counts gathered from the systems a pass ran: each System's
 * StatRegistry with the per-core and per-channel indices folded away
 * (core3.loads -> core.loads, memctl.ch5.pair_blocks ->
 * memctl.pair_blocks), plus run-level totals the registry does not
 * hold (transactions, simulated time, processed events).
 */

#ifndef PERFBENCH_COUNTERS_HH
#define PERFBENCH_COUNTERS_HH

#include <map>
#include <string>

#include "core/system.hh"

namespace perfbench
{

class Counters
{
  public:
    /**
     * Folds one finished simulation into the sums: every registry
     * stat (histograms as ::count and ::sum), plus sim.systems,
     * sim.txns, sim.ns, sim.core_ticks, sim.events, sim.nvm_bytes_written
     * and txn.lines_logged.
     */
    void addSystem(cnvm::System &sys, const cnvm::RunResult &run);

    void add(const std::string &key, double v) { sums[key] += v; }

    /** The sum under @p key; 0 when nothing was added. */
    double get(const std::string &key) const;

  private:
    std::map<std::string, double> sums;
};

/** "core12.mem.l1_hits" -> "core.mem.l1_hits",
 *  "memctl.ch3.pair_blocks" -> "memctl.pair_blocks". */
std::string foldStatName(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_COUNTERS_HH
