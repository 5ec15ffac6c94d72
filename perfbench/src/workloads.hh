/**
 * @file
 * The benchmark's two workloads and the ops they issue against the
 * cnvm library's public API.
 *
 * Each workload is one closed-loop client: it issues the next op when
 * the previous one returns, on one thread (every WorkPool and recovery
 * pool runs at jobs 1), so CPU time measures the work itself. A pass
 * runs every op of the workload once and checks each op's output
 * outside its timed spans.
 *
 *  - scale-16c8ch: SCA at 16 cores and 8 channels, hash and B-tree;
 *  - crash-recovery: the 4-design x 60-point fault+replay fork sweep
 *    on the cnvm_crash_sweep machine, then one fault+replay-dosed soak
 *    chain per design over a multi-MB region.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/crash_sweep.hh"
#include "core/soak.hh"
#include "counters.hh"
#include "bench_stats.hh"
#include "trace.hh"

namespace perfbench
{

enum class WorkloadId
{
    Scale16c8ch,
    CrashRecovery,
};

const char *workloadName(WorkloadId w);
std::optional<WorkloadId> workloadFromName(const std::string &name);

/** Every generated input derives from the one benchmark seed. */
struct Seeds
{
    std::uint64_t workload = 0; //!< SystemConfig::wl.seed
    std::uint64_t fault = 0;    //!< base seed of every fault dose
    std::uint64_t soak = 0;     //!< SoakOptions::seed

    static Seeds derive(std::uint64_t seed);
};

// ---------------------------------------------------------------------
// Configurations
// ---------------------------------------------------------------------

/** Hash (write-heavy) and B-tree (read-heavy). */
std::vector<cnvm::WorkloadKind> scaleKinds();
cnvm::SystemConfig scaleConfig(cnvm::WorkloadKind kind, const Seeds &seeds);

/** ColocatedCC, FCA, SCA and Unsafe. */
std::vector<cnvm::DesignPoint> crashDesigns();

constexpr unsigned sweepPoints = 60;

/** The cnvm_crash_sweep machine with MAC + tree armed. */
cnvm::SystemConfig sweepConfig(cnvm::DesignPoint design,
                               const Seeds &seeds);

/** Media faults plus replays, seeded from seeds.fault. */
cnvm::FaultSpec sweepFaults(const Seeds &seeds);

/** The sweep machine over a multi-MB region. */
cnvm::SystemConfig soakConfig(cnvm::DesignPoint design, const Seeds &seeds);
cnvm::SoakOptions soakOptions(const Seeds &seeds);

/** The same configuration with every crash-consistency guard off (the
 *  Unsafe design, no MAC, no tree); --inject-failure swaps it in for
 *  the first op of a pass. Its checks must fail: Unsafe tears even a
 *  clean shutdown without the MAC, and dosed sweep points go silent. */
void makeNegativeControl(cnvm::SystemConfig &cfg);

// ---------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------

/** The checked outcome of one op. */
struct OpOutcome
{
    /** The op's exact result; every pass must reproduce it. */
    std::string id;

    /** The op's own check passed. */
    bool ok = true;

    std::string why;
};

/** Everything one pass measured and checked. */
struct Pass
{
    /** CPU per phase, keyed by span name. */
    std::map<std::string, CpuTotal> cpu;

    /** Exact counts (registry stats, sweep and soak accounting). */
    Counters counts;

    /** CPU of each classifyFork, in capture order. */
    std::vector<double> pointSeconds;

    std::vector<OpOutcome> ops;

    double cpuOf(const std::string &phase) const;
};

/**
 * Runs one pass of @p w. With @p tracer recording, the pass also makes
 * the isolated per-layer calls (their CPU lands in Pass::cpu under
 * their own names, never in the end-to-end phases). @p inject_failure
 * swaps the first op for a negative control its check must reject.
 */
Pass runPass(WorkloadId w, const Seeds &seeds, Tracer &tracer,
             bool inject_failure);

/** Set-up CPU of a pass, by the workload's definition of set-up. */
double setupSeconds(WorkloadId w, const Pass &pass);

/** Timed CPU of a pass, by the workload's definition of its run. */
double runSeconds(WorkloadId w, const Pass &pass);

// ---------------------------------------------------------------------
// Ops (exposed for the benchmark's tests)
// ---------------------------------------------------------------------

/** Build, run, and check one simulation. */
OpOutcome runSimOp(const cnvm::SystemConfig &cfg, Tracer &tracer,
                   Pass &pass);

/**
 * A fork-mode sweep assembled from the library's public stages —
 * probeRun, planSweep, System::runWithForkCapture and classifyFork,
 * classifying inline as the jobs-1 pool does — timed stage by stage.
 * Produces the SweepResult runSweep(cfg, {Fork, jobs 1}) produces.
 */
cnvm::SweepResult runForkSweep(const cnvm::SystemConfig &cfg,
                               unsigned points,
                               const cnvm::FaultSpec &faults,
                               Tracer &tracer, Pass &pass);

/** One soak chain, timed, with its accounting added to @p pass. */
cnvm::SoakChainResult runSoakOp(const cnvm::SystemConfig &cfg,
                                const cnvm::SoakOptions &opt,
                                Tracer &tracer, Pass &pass);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
