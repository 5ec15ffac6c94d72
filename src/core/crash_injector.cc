#include "core/crash_injector.hh"

#include <sstream>

#include "common/logging.hh"

namespace cnvm
{

const char *
crashTriggerName(CrashTriggerKind kind)
{
    switch (kind) {
      case CrashTriggerKind::AtTick: return "tick";
      case CrashTriggerKind::PipelineEnter: return "pipeline-enter";
      case CrashTriggerKind::PairAction: return "pair-action";
      case CrashTriggerKind::DirtyEviction: return "dirty-eviction";
      case CrashTriggerKind::DataDrain: return "data-drain";
      case CrashTriggerKind::CtrDrain: return "ctr-drain";
    }
    return "?";
}

std::optional<CtlEvent>
ctlEventFor(CrashTriggerKind kind)
{
    switch (kind) {
      case CrashTriggerKind::AtTick: return std::nullopt;
      case CrashTriggerKind::PipelineEnter:
        return CtlEvent::PipelineEnter;
      case CrashTriggerKind::PairAction: return CtlEvent::PairAction;
      case CrashTriggerKind::DirtyEviction:
        return CtlEvent::DirtyEviction;
      case CrashTriggerKind::DataDrain: return CtlEvent::DataDrain;
      case CrashTriggerKind::CtrDrain: return CtlEvent::CtrDrain;
    }
    return std::nullopt;
}

std::string
CrashSpec::describe() const
{
    std::ostringstream os;
    if (kind == CrashTriggerKind::AtTick)
        os << "tick " << tick;
    else
        os << crashTriggerName(kind) << " #" << count;
    // Clean crash points keep their historical description (and hence
    // sweep fingerprints); fault doses annotate themselves.
    os << faults.describe();
    return os.str();
}

CrashInjector::CrashInjector(EventQueue &eq, std::vector<CrashSpec> specs_in,
                             FireFn fire_fn)
    : eventq(eq),
      fire(std::move(fire_fn)),
      specs(std::move(specs_in))
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto watched = ctlEventFor(specs[i].kind);
        if (watched) {
            cnvm_assert(specs[i].count >= 1);
            pendingByEvent[static_cast<std::size_t>(*watched)]
                .emplace(specs[i].count, i);
        }
    }
}

void
CrashInjector::start()
{
    for (std::size_t i = 0; i < specs.size(); ++i)
        if (specs[i].kind == CrashTriggerKind::AtTick)
            scheduleFailure(i, specs[i].tick);
}

void
CrashInjector::onCtlEvent(CtlEvent ev)
{
    auto &pending = pendingByEvent[static_cast<std::size_t>(ev)];
    std::uint64_t nth = ++seen[static_cast<std::size_t>(ev)];
    if (pending.empty() || disarmed)
        return;
    // All specs armed on this event's Nth occurrence fire now; the
    // multimap keeps later ordinals pending.
    auto range = pending.equal_range(nth);
    for (auto it = range.first; it != range.second; ++it)
        scheduleFailure(it->second, eventq.curTick());
    pending.erase(range.first, range.second);
}

void
CrashInjector::scheduleFailure(std::size_t i, Tick when)
{
    // MinPriority: the failure observes the triggering controller state
    // before any other model event pending for this tick runs.
    scheduleAt(eventq, when, [this, i]() {
        if (!disarmed)
            fire(i);
    }, EventQueue::MinPriority);
}

} // namespace cnvm
