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

CrashInjector::CrashInjector(EventQueue &eq, std::vector<CrashSpec> specs,
                             FireFn fire_fn)
    : eventq(eq),
      fire(std::move(fire_fn))
{
    armed.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Armed a;
        a.spec = specs[i];
        a.fireEvent = std::make_unique<EventFunctionWrapper>(
            [this, i]() {
                armed[i].didFire = true;
                ++firedCount;
                fire(i);
            },
            "power-failure", Event::MinPriority);
        armed.push_back(std::move(a));

        auto watched = ctlEventFor(specs[i].kind);
        if (watched) {
            cnvm_assert(specs[i].count >= 1);
            ++semanticSpecs;
            pendingByEvent[static_cast<std::size_t>(*watched)]
                .emplace(specs[i].count, i);
        }
    }
}

void
CrashInjector::start()
{
    for (Armed &a : armed)
        if (a.spec.kind == CrashTriggerKind::AtTick)
            eventq.schedule(*a.fireEvent, a.spec.tick);
}

void
CrashInjector::onCtlEvent(CtlEvent ev)
{
    auto &pending = pendingByEvent[static_cast<std::size_t>(ev)];
    std::uint64_t nth = ++seen[static_cast<std::size_t>(ev)];
    if (pending.empty())
        return;
    // All specs armed on this event's Nth occurrence fire now; the
    // multimap keeps later ordinals pending.
    auto range = pending.equal_range(nth);
    for (auto it = range.first; it != range.second; ++it)
        fireSoon(it->second);
    pending.erase(range.first, range.second);
}

void
CrashInjector::fireSoon(std::size_t i)
{
    Armed &a = armed[i];
    if (disarmed || a.didFire || a.fireEvent->scheduled())
        return;
    // MinPriority: the failure observes the triggering controller state
    // before any other model event pending for this tick runs.
    eventq.schedule(*a.fireEvent, eventq.curTick());
}

void
CrashInjector::disarm()
{
    disarmed = true;
    for (auto &pending : pendingByEvent)
        pending.clear();
    for (Armed &a : armed)
        if (a.fireEvent->scheduled())
            eventq.deschedule(*a.fireEvent);
}

} // namespace cnvm
