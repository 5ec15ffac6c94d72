#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/types.hh"
#include "core/crash_oracle.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t maxFailureDetails = 8;

double
meanMs(const Pass &p, const std::string &phase)
{
    auto it = p.cpu.find(phase);
    return it == p.cpu.end() ? 0 : it->second.meanMs();
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

const cnvm::CrashClass allClasses[] = {
    cnvm::CrashClass::Consistent,
    cnvm::CrashClass::TornData,
    cnvm::CrashClass::TornCounter,
    cnvm::CrashClass::CounterDataMismatch,
    cnvm::CrashClass::Inconsistent,
    cnvm::CrashClass::DetectedCorruption,
    cnvm::CrashClass::SilentCorruption,
    cnvm::CrashClass::ReplayDetected,
    cnvm::CrashClass::SilentReplay,
};

} // anonymous namespace

void
OpTally::add(const Pass &pass, const Pass &ref)
{
    std::size_t n = std::max(pass.ops.size(), ref.ops.size());
    attempted += n;
    for (std::size_t i = 0; i < n; ++i) {
        std::string why;
        if (i >= pass.ops.size() || i >= ref.ops.size())
            why = "op " + std::to_string(i) + " missing from one pass";
        else if (!pass.ops[i].ok)
            why = pass.ops[i].why;
        else if (pass.ops[i].id != ref.ops[i].id)
            why = "output differs from the reference pass: "
                + pass.ops[i].id + " vs " + ref.ops[i].id;
        else
            continue;
        ++failed;
        if (failures.size() < maxFailureDetails)
            failures.push_back(why);
    }
}

std::vector<Metric>
endToEndMetrics(WorkloadId w, const Pass &ref,
                const std::vector<Pass> &passes, double peak_rss_mb)
{
    std::vector<double> setup, run;
    for (const Pass &p : passes) {
        setup.push_back(setupSeconds(w, p));
        run.push_back(runSeconds(w, p));
    }
    const std::string over =
        "median of " + std::to_string(passes.size()) + " passes";
    const double txns = ref.counts.get("sim.txns");
    Ratio tput{txns, ref.counts.get("sim.ns") * 1e-9};
    Ratio wbytes{ref.counts.get("sim.nvm_bytes_written"), txns};
    return {
        {"setup_s", median(setup), "s", over},
        {"run_s", median(run), "s", over},
        {"sim_txn_per_s", tput.value(), "txn/s",
         "txns / simulated s = " + tput.base()},
        {"nvm_write_bytes_per_txn", wbytes.value(), "B/txn",
         "NVM bytes written / txns = " + wbytes.base()},
        {"peak_rss_mb", peak_rss_mb, "MB", "getrusage ru_maxrss"},
    };
}

std::vector<Metric>
workloadMetrics(const std::vector<Pass> &passes, const OpTally &tally)
{
    std::vector<double> pps, cps, samples;
    double planned = 0, cycles = 0;
    for (const Pass &p : passes) {
        planned = p.counts.get("sweep.points_planned");
        cycles = p.counts.get("soak.cycles");
        const double sweep_cpu =
            p.cpuOf("sweep.capture") + p.cpuOf("oracle.classify");
        pps.push_back(Ratio{planned, sweep_cpu}.value());
        cps.push_back(Ratio{cycles, p.cpuOf("soak.chain")}.value());
        for (double s : p.pointSeconds)
            samples.push_back(s * 1e3);
    }
    Percentile p50 = percentileOf(samples, 50);
    Percentile p90 = percentileOf(samples, 90);
    Percentile tail = tailPercentile(samples);
    auto pctNote = [](const Percentile &p) {
        return std::to_string(p.samples) + " samples, "
             + std::to_string(p.beyond) + " beyond"
             + (p.valid ? "" : " (fewer than 10: not valid)");
    };
    Ratio fail = tally.failRatio();
    std::string over =
        "median of " + std::to_string(passes.size()) + " passes";
    return {
        {"points_per_s", median(pps), "points/s",
         fmt("%.0f", planned) + " planned points / CPU of trunk-with-"
         "capture + classification, " + over},
        {"point_p50_ms", p50.value, "ms", pctNote(p50)},
        {"point_p90_ms", p90.value, "ms",
         pctNote(p90) + "; highest valid tail: p"
             + fmt("%g", tail.pct) + " = " + fmt("%.4f", tail.value)
             + " ms"},
        {"point_samples", static_cast<double>(samples.size()), "count",
         "classifyFork calls timed"},
        {"soak_cycles_per_s", median(cps), "cycles/s",
         fmt("%.0f", cycles) + " cycles / CPU in runSoakChain, " + over},
        {"op_fail_ratio", fail.value(), "ratio",
         "failed / attempted ops = " + fail.base()},
    };
}

std::vector<Metric>
layerMetrics(const Pass &p)
{
    const Counters &c = p.counts;
    const double txns = c.get("sim.txns");
    auto perTxn = [&](const std::string &key) {
        return Ratio{c.get(key), txns}.value();
    };
    auto ratio = [&](const std::string &num, const std::string &den) {
        return Ratio{c.get(num), c.get(den)}.value();
    };
    auto hitRate = [&](const std::string &hits, const std::string &misses) {
        return Ratio{c.get(hits), c.get(hits) + c.get(misses)}.value();
    };
    const double cpu_ops = c.get("core.loads") + c.get("core.stores")
                         + c.get("core.clwbs") + c.get("core.ctrwbs")
                         + c.get("core.fences") + c.get("core.compute_ops");
    const double ctr_all = c.get("ctrcache.read_hits")
                         + c.get("ctrcache.read_misses")
                         + c.get("ctrcache.write_hits")
                         + c.get("ctrcache.write_misses");
    const double coalesced = c.get("memctl.data_coalesces")
                           + c.get("memctl.ctr_coalesces");
    const double inserted = c.get("memctl.data_inserts")
                          + c.get("memctl.ctr_inserts");

    std::vector<Metric> m = {
        {"core.build_s", p.cpuOf("core.build"), "s", ""},
        {"core.install_ns_per_line",
         Ratio{p.cpuOf("core.build") - p.cpuOf("workloads.setup"),
               c.get("workloads.lines_installed")}.value() * 1e9,
         "ns/line", ""},
        {"workloads.setup_s", p.cpuOf("workloads.setup"), "s", ""},
        {"workloads.lines_installed", c.get("workloads.lines_installed"),
         "count", ""},
        {"txn.log_lines_per_txn", perTxn("txn.lines_logged"), "lines/txn",
         ""},
        {"sim.events", c.get("sim.events"), "count", ""},
        {"sim.events_per_txn", perTxn("sim.events"), "events/txn", ""},
        {"sim.ns_per_event",
         Ratio{p.cpuOf("sim.run") + p.cpuOf("sweep.plain_run"),
               c.get("sim.events")}.value() * 1e9,
         "ns/event", ""},
        {"cpu.ops_per_txn", Ratio{cpu_ops, txns}.value(), "ops/txn", ""},
        {"cpu.fence_stall_share",
         ratio("core.fence_stall_ticks", "sim.core_ticks"), "ratio", ""},
        {"mem.l1_hit_rate", hitRate("core.mem.l1_hits", "core.mem.l1_misses"),
         "ratio", ""},
        {"mem.l2_hit_rate", hitRate("core.mem.l2_hits", "core.mem.l2_misses"),
         "ratio", ""},
        {"mem.load_ns_mean",
         ratio("core.mem.load_ticks::sum", "core.mem.load_ticks::count")
             / cnvm::ticksPerNs,
         "ns", ""},
        {"mem.writebacks_per_txn", perTxn("core.mem.writebacks"),
         "lines/txn", ""},
        {"memctl.data_inserts_per_txn", perTxn("memctl.data_inserts"),
         "inserts/txn", ""},
        {"memctl.ctr_inserts_per_txn", perTxn("memctl.ctr_inserts"),
         "inserts/txn", ""},
        {"memctl.coalesce_ratio",
         Ratio{coalesced, coalesced + inserted}.value(), "ratio", ""},
        {"memctl.pair_blocks_per_txn", perTxn("memctl.pair_blocks"),
         "blocks/txn", ""},
        {"memctl.write_rejects_per_txn", perTxn("memctl.write_rejects"),
         "retries/txn", ""},
        {"memctl.ctrcache_hit_rate",
         Ratio{c.get("ctrcache.read_hits") + c.get("ctrcache.write_hits"),
               ctr_all}.value(),
         "ratio", ""},
        {"memctl.cc_fill_reads_per_txn", perTxn("memctl.cc_fill_reads"),
         "reads/txn", ""},
        {"integrity.leaf_updates_per_txn",
         perTxn("memctl.tree_leaf_updates"), "updates/txn", ""},
        {"integrity.node_writes_per_txn", perTxn("memctl.tree_node_writes"),
         "writes/txn", ""},
        {"integrity.coalesce_ratio",
         ratio("memctl.tree_coalesces", "memctl.tree_leaf_updates"),
         "ratio", ""},
        {"integrity.root_verify_ms", meanMs(p, "integrity.root_verify"),
         "ms", ""},
        {"nvm.reads_per_txn", perTxn("nvm.reads"), "reads/txn", ""},
        {"nvm.writes_per_txn", perTxn("nvm.writes"), "writes/txn", ""},
        {"nvm.image_lines", ratio("nvm.image_lines", "nvm.images"),
         "lines", ""},
        {"nvm.image_copy_ms", meanMs(p, "nvm.image_copy"), "ms", ""},
        {"nvm.fault_dose_ms", meanMs(p, "nvm.fault_dose"), "ms", ""},
        {"sweep.probe_s", p.cpuOf("sweep.probe"), "s", ""},
        {"sweep.trunk_s", p.cpuOf("sweep.capture"), "s", ""},
        {"sweep.capture_ms_per_fork",
         Ratio{p.cpuOf("sweep.capture") - p.cpuOf("sweep.plain_run"),
               c.get("sweep.forks")}.value() * 1e3,
         "ms", ""},
        {"sweep.reached_ratio",
         ratio("sweep.forks", "sweep.points_planned"), "ratio", ""},
        {"recovery.prescan_ns_per_line",
         Ratio{p.cpuOf("recovery.prescan"),
               c.get("recovery.prescan_lines")}.value() * 1e9,
         "ns/line", ""},
        {"recovery.recover_ms", meanMs(p, "recovery.recover"), "ms", ""},
        {"oracle.examine_ms",
         p.cpu.count("recovery.recover")
             ? meanMs(p, "oracle.classify") - meanMs(p, "recovery.recover")
             : 0,
         "ms", ""},
        {"recovery.detected", c.get("recovery.detected"), "count", ""},
        {"recovery.repaired_ratio",
         ratio("recovery.repaired", "recovery.detected"), "ratio", ""},
        {"recovery.unrecoverable", c.get("recovery.unrecoverable"), "count",
         ""},
        {"recovery.replays_detected", c.get("recovery.replays_detected"),
         "count", ""},
    };
    for (cnvm::CrashClass cls : allClasses) {
        std::string key = std::string("oracle.points.")
                        + cnvm::crashClassName(cls);
        m.push_back({key, c.get(key), "count", ""});
    }
    m.push_back({"oracle.points.unreached",
                 c.get("oracle.points.unreached"), "count", ""});
    m.push_back({"soak.chain_s", p.cpuOf("soak.chain"), "s", ""});
    m.push_back({"soak.resume_ms", meanMs(p, "soak.resume"), "ms", ""});
    m.push_back({"soak.crashed_ratio",
                 ratio("soak.crashed_cycles", "soak.cycles"), "ratio",
                 ""});
    m.push_back({"soak.dosed_cycles", c.get("soak.dosed_cycles"), "count",
                 ""});
    m.push_back({"soak.resets", c.get("soak.resets"), "count", ""});
    m.push_back({"soak.final_quarantined", c.get("soak.final_quarantined"),
                 "count", ""});
    return m;
}

std::vector<Metric>
perLayerMetrics(WorkloadId w, const std::vector<Pass> &plain,
                const std::vector<Pass> &traced, const OpTally &tally)
{
    std::vector<std::vector<Metric>> per_pass;
    for (const Pass &p : traced)
        per_pass.push_back(layerMetrics(p));
    if (per_pass.empty())
        per_pass.push_back(layerMetrics(Pass{}));

    // Metric-by-metric median over the traced passes.
    std::vector<Metric> out = per_pass.front();
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> v;
        for (const std::vector<Metric> &pass : per_pass)
            v.push_back(pass[i].value);
        out[i].value = median(v);
        out[i].note = "median of " + std::to_string(traced.size())
                    + " traced passes";
    }
    for (const Metric &m : workloadMetrics(plain, tally))
        out.push_back(m);

    auto total = [w](const std::vector<Pass> &passes) {
        std::vector<double> v;
        for (const Pass &p : passes)
            v.push_back(setupSeconds(w, p) + runSeconds(w, p));
        return median(v);
    };
    Ratio overhead{total(traced), total(plain)};
    out.push_back({"trace.overhead_ratio", overhead.value(), "ratio",
                   "traced / untraced set-up + run CPU = "
                       + overhead.base()});
    return out;
}

std::vector<Metric>
layerShares(const Tracer &tracer)
{
    std::vector<Metric> shares;
    double all = 0;
    for (const auto &[name, t] : tracer.totals()) {
        shares.push_back({name, t.self, "s",
                          std::to_string(t.count) + " spans"});
        all += t.self;
    }
    std::sort(shares.begin(), shares.end(),
              [](const Metric &a, const Metric &b) {
                  return a.value > b.value;
              });
    for (Metric &m : shares) {
        m.note = fmt("%.4f s self CPU, ", m.value) + m.note;
        m.value = Ratio{m.value, all}.value();
        m.unit = "share";
    }
    return shares;
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-32s %14.6g %-11s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
}

std::string
jsonLine(bool correct, const OpTally &tally,
         const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ")
                    + (correct ? "true" : "false")
                    + ", \"attempted\": " + std::to_string(tally.attempted)
                    + ", \"failed\": " + std::to_string(tally.failed)
                    + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0;
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": "
             + fmt("%.17g", v) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}}";
}

bool
allPositive(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        if (!std::isfinite(m.value) || m.value <= 0)
            return false;
    return true;
}

} // namespace perfbench
