#include "core/recovery_crash.hh"

#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "core/crash_sweep.hh"
#include "core/persist_fork.hh"
#include "runner/runner.hh"

namespace cnvm
{

const char *
recoveryEventName(RecoveryEvent ev)
{
    switch (ev) {
      case RecoveryEvent::PreScanLine: return "prescan";
      case RecoveryEvent::RollbackWrite: return "rollback";
      case RecoveryEvent::BeforeValidClear: return "pre-invalidate";
      case RecoveryEvent::AfterValidClear: return "post-invalidate";
      case RecoveryEvent::TreeRebuildLeaf: return "treeleaf";
    }
    return "?";
}

std::string
RecoveryCrashSpec::describe() const
{
    return std::string(recoveryEventName(kind)) + "#"
        + std::to_string(nth);
}

RecoveryConvergence
convergenceOf(const RecoveryReport &report)
{
    RecoveryConvergence c;
    c.consistent = report.consistent;
    c.reason = report.reason;
    c.committedTxns = report.committedTxns;
    c.unrecoverableLines = report.unrecoverableLines;
    c.digestComputed = report.digestComputed;
    c.recoveredDigest = report.recoveredDigest;
    return c;
}

std::string
RecoveryConvergence::describe() const
{
    std::ostringstream os;
    os << (consistent ? "ok" : recoveryFailureName(reason)) << "/c"
       << committedTxns << "/u" << unrecoverableLines;
    if (digestComputed)
        os << "/d" << std::hex << recoveredDigest << std::dec;
    return os.str();
}

namespace
{

/** Interrupted attempts per point before the completing one. An
 *  attempt whose trigger turns out unreachable on the partially
 *  recovered image simply completes — extra convergence data. */
constexpr unsigned interruptedAttempts = 2;

constexpr RecoveryEvent allRecoveryEvents[] = {
    RecoveryEvent::PreScanLine,
    RecoveryEvent::RollbackWrite,
    RecoveryEvent::BeforeValidClear,
    RecoveryEvent::AfterValidClear,
    RecoveryEvent::TreeRebuildLeaf,
};

/**
 * One write-back recovery pass over every core of the trunk's
 * configuration, against (and into) @p work. Returns false when the
 * injector interrupted the pass — the recovery process died there,
 * with whatever it had persisted so far left on the image.
 */
bool
recoveryAttempt(PersistImage &work, const System &trunk,
                const PersistFork &fork, RecoveryCrashInjector *inj,
                std::vector<RecoveryReport> *reports_out)
{
    RecoveryEngine engine(work, trunk.controller());
    RecoveryOptions opt;
    opt.commitTo = &work;
    opt.crash = inj;
    try {
        for (unsigned c = 0; c < trunk.numCores(); ++c) {
            RecoveryReport r = engine.recover(
                trunk.workload(c), &fork.coreDigests.at(c), opt);
            if (reports_out != nullptr)
                reports_out->push_back(std::move(r));
        }
    } catch (const RecoveryInterrupted &) {
        return false;
    }
    return true;
}

/** Reference pass outcome for one captured image. */
struct ImageReference
{
    std::vector<RecoveryConvergence> converged;

    /** How often each recovery step occurred — the planning domain. */
    std::array<std::uint64_t, numRecoveryEvents> eventCounts{};
};

struct PlannedPoint
{
    std::size_t imageIndex = 0;
    RecoveryCrashSpec spec;
};

/**
 * Distributes @p points interruption specs: round-robin over the
 * images that reach at least one step, within an image round-robin
 * over its reachable steps, with occurrences spread over each step's
 * observed total — the same shape planSweep() gives crash ticks.
 */
std::vector<PlannedPoint>
planPoints(const std::vector<ImageReference> &refs, unsigned points)
{
    std::vector<std::size_t> reachable;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        for (RecoveryEvent ev : allRecoveryEvents) {
            if (refs[i].eventCounts[static_cast<unsigned>(ev)] > 0) {
                reachable.push_back(i);
                break;
            }
        }
    }
    std::vector<PlannedPoint> plan;
    if (reachable.empty())
        return plan;

    std::vector<unsigned> share(reachable.size(), 0);
    for (unsigned p = 0; p < points; ++p)
        ++share[p % reachable.size()];

    for (std::size_t r = 0; r < reachable.size(); ++r) {
        const std::size_t img = reachable[r];
        const ImageReference &ref = refs[img];
        std::vector<RecoveryEvent> kinds;
        for (RecoveryEvent ev : allRecoveryEvents)
            if (ref.eventCounts[static_cast<unsigned>(ev)] > 0)
                kinds.push_back(ev);

        std::vector<unsigned> kshare(kinds.size(), 0);
        for (unsigned j = 0; j < share[r]; ++j)
            ++kshare[j % kinds.size()];

        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const std::uint64_t total =
                ref.eventCounts[static_cast<unsigned>(kinds[k])];
            for (unsigned j = 0; j < kshare[k]; ++j) {
                RecoveryCrashSpec spec;
                spec.kind = kinds[k];
                spec.nth = 1 + total * j / kshare[k];
                plan.push_back({img, spec});
            }
        }
    }
    return plan;
}

/** Executes one interruption point against a fresh image copy. */
RecoveryCrashPoint
runPoint(const System &trunk, const PersistFork &fork,
         const PlannedPoint &planned, const ImageReference &ref)
{
    RecoveryCrashPoint point;
    point.imageIndex = planned.imageIndex;
    point.spec = planned.spec;

    PersistImage work = fork.image;

    // Interrupted attempts: each dies at the planned step (or, once
    // earlier attempts persisted enough that the step is no longer
    // reached, simply completes — that completion is checked too).
    for (unsigned t = 0; t < interruptedAttempts; ++t) {
        RecoveryCrashInjector inj(planned.spec);
        recoveryAttempt(work, trunk, fork, &inj, nullptr);
        point.fired = point.fired || inj.fired();
    }

    // The completing attempt.
    std::vector<RecoveryReport> reports;
    bool completed = recoveryAttempt(work, trunk, fork, nullptr, &reports);
    cnvm_assert(completed); // no injector: nothing can interrupt it

    for (const RecoveryReport &r : reports)
        point.converged.push_back(convergenceOf(r));

    // The idempotence gate: the convergent fields must match the
    // uninterrupted reference, core for core.
    if (point.converged.size() != ref.converged.size()) {
        point.divergent = true;
        point.detail = "region count diverged from reference";
        return point;
    }
    for (std::size_t c = 0; c < ref.converged.size(); ++c) {
        if (point.converged[c] == ref.converged[c])
            continue;
        point.divergent = true;
        point.detail = "core " + std::to_string(c) + ": expected "
            + ref.converged[c].describe() + ", got "
            + point.converged[c].describe();
        return point;
    }
    return point;
}

} // anonymous namespace

RecoveryCrashResult
runRecoveryCrashSweep(const SystemConfig &cfg,
                      const RecoveryCrashOptions &opt)
{
    RecoveryCrashResult result;

    // Capture the crashed images: probe, plan, one fork-capture trunk
    // run — the same machinery (and the same per-point fault seeding)
    // as a fork-mode crash sweep.
    SweepProbe probe = probeRun(cfg);
    std::vector<CrashSpec> plan = planSweep(probe, opt.images);
    if (opt.faults.any())
        for (std::size_t i = 0; i < plan.size(); ++i)
            plan[i].faults = opt.faults.forPoint(i);

    std::vector<std::shared_ptr<PersistFork>> captured(plan.size());
    System trunk(cfg);
    trunk.runWithForkCapture(plan, [&](std::size_t i, PersistFork fork) {
        captured[i] =
            std::make_shared<PersistFork>(std::move(fork));
    });

    // Compact to the reached images, in plan order.
    std::vector<std::shared_ptr<PersistFork>> images;
    for (auto &fork : captured)
        if (fork != nullptr)
            images.push_back(std::move(fork));
    result.images = static_cast<unsigned>(images.size());
    if (images.empty())
        return result;

    // Phase A — reference: one uninterrupted write-back recovery per
    // image (on its own copy), with an observer recording how often
    // each recovery step occurs. Images are independent; map() keeps
    // the merge in plan order.
    WorkPool pool(opt.jobs);
    std::vector<ImageReference> refs = pool.map<ImageReference>(
        images.size(), [&](std::size_t i) {
            ImageReference ref;
            PersistImage work = images[i]->image;
            RecoveryCrashInjector observer;
            std::vector<RecoveryReport> reports;
            bool done = recoveryAttempt(work, trunk, *images[i],
                                        &observer, &reports);
            cnvm_assert(done); // observers never fire
            for (const RecoveryReport &r : reports)
                ref.converged.push_back(convergenceOf(r));
            for (RecoveryEvent ev : allRecoveryEvents)
                ref.eventCounts[static_cast<unsigned>(ev)] =
                    observer.countOf(ev);
            return ref;
        });
    for (ImageReference &ref : refs)
        result.reference.push_back(ref.converged);

    // Phase B — the interruption points.
    std::vector<PlannedPoint> pplan = planPoints(refs, opt.points);
    result.points = pool.map<RecoveryCrashPoint>(
        pplan.size(), [&](std::size_t i) {
            const PlannedPoint &pp = pplan[i];
            return runPoint(trunk, *images[pp.imageIndex], pp,
                            refs[pp.imageIndex]);
        });
    return result;
}

std::string
RecoveryCrashResult::fingerprint() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        os << "ref" << i << "=";
        for (const RecoveryConvergence &c : reference[i])
            os << c.describe() << "+";
        os << ";";
    }
    for (const RecoveryCrashPoint &p : points) {
        os << "img" << p.imageIndex << ":" << p.spec.describe() << "="
           << (p.fired ? "" : "unfired~");
        for (const RecoveryConvergence &c : p.converged)
            os << c.describe() << "+";
        if (p.divergent)
            os << "DIVERGENT";
        os << ";";
    }
    return os.str();
}

} // namespace cnvm
