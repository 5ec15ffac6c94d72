#include "core/crash_oracle.hh"

namespace cnvm
{

const char *
crashClassName(CrashClass cls)
{
    switch (cls) {
      case CrashClass::Consistent: return "consistent";
      case CrashClass::TornData: return "torn-data";
      case CrashClass::TornCounter: return "torn-counter";
      case CrashClass::CounterDataMismatch: return "counter-data-mismatch";
      case CrashClass::Inconsistent: return "inconsistent";
      case CrashClass::DetectedCorruption: return "detected-corruption";
      case CrashClass::SilentCorruption: return "silent-corruption";
      case CrashClass::ReplayDetected: return "replay-detected";
      case CrashClass::SilentReplay: return "silent-replay";
    }
    return "?";
}

CrashOracle::CrashOracle(const PersistImage &src,
                         const MemController &ctl)
    : src(src), ctl(ctl)
{
}

OracleReport
CrashOracle::examine(const Workload &workload,
                     const std::vector<std::uint64_t> *digests,
                     const RecoveryOptions &ropt) const
{
    OracleReport report;

    RecoveryEngine engine(src, ctl);
    report.recovery = engine.recover(workload, digests, ropt);

    // Counter census. Unencrypted lines have no counter to diverge
    // from; the census trivially passes (cipher counters are recorded
    // as 0 and the counter store is never populated). The faulted-line
    // census runs for every design: bit flips corrupt plaintext lines
    // just as happily as ciphertext ones.
    for (Addr addr = workload.regionBase(); addr < workload.regionEnd();
         addr += lineBytes) {
        report.faultedLines += src.lineFaulted(addr);
        report.replayedLines += src.lineReplayed(addr);
        if (ctl.design() == DesignPoint::NoEncryption)
            continue;
        std::uint64_t cc = src.persistedCipherCounter(addr);
        std::uint64_t pc =
            src.persistedCounters(ctl.counterLineAddr(addr))
                [ctl.counterSlot(addr)];
        if (pc == cc)
            continue;
        if (pc > cc)
            ++report.tornDataLines;
        else
            ++report.tornCounterLines;
    }

    // Classification is recoverability-first: mismatched lines under a
    // consistent recovery are torn mutate-stage writes the undo log
    // rolled back, not a failure (common for SCA, which defers dirty
    // counter persistence to evictions) — and detected-then-handled
    // corruptions under a consistent recovery are likewise not a
    // failure. For inconsistent recoveries, detection trumps the
    // census: integrity metadata rejecting a line means recovery knew,
    // whatever tore it. An undetected inconsistency with injected
    // corruption in the region is the headline failure: silent.
    //
    // Replays are the one exception to recoverability-first: a
    // *consistent* verdict on a region holding an unnoticed replayed
    // line is the attack succeeding (the stale triple decrypts
    // cleanly and matches an older committed prefix), so ground truth
    // overrides the verdict and the point is SilentReplay.
    const bool silentReplay = report.replayedLines > 0
        && report.recovery.replaysDetected == 0;
    if (report.recovery.consistent) {
        report.cls = silentReplay ? CrashClass::SilentReplay
                                  : CrashClass::Consistent;
    } else if (silentReplay) {
        report.cls = CrashClass::SilentReplay;
    } else if (report.recovery.replaysDetected > 0) {
        report.cls = CrashClass::ReplayDetected;
    } else if (report.recovery.detectedCorruptions > 0) {
        report.cls = CrashClass::DetectedCorruption;
    } else if (report.faultedLines > 0) {
        report.cls = CrashClass::SilentCorruption;
    } else if (report.tornDataLines && report.tornCounterLines) {
        report.cls = CrashClass::CounterDataMismatch;
    } else if (report.tornCounterLines) {
        report.cls = CrashClass::TornCounter;
    } else if (report.tornDataLines) {
        report.cls = CrashClass::TornData;
    } else {
        report.cls = CrashClass::Inconsistent;
    }

    return report;
}

} // namespace cnvm
