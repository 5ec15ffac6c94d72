/**
 * @file
 * Fire-and-forget event scheduling.
 */

#ifndef CNVM_SIM_ONE_SHOT_HH
#define CNVM_SIM_ONE_SHOT_HH

#include <utility>

#include "sim/eventq.hh"

namespace cnvm
{

/**
 * Schedules @p fn to run at absolute tick @p when. The closure is built
 * in place in a one-shot node pooled by @p eq, so a callback chain
 * allocates nothing per step; a closure larger than
 * EventQueue::oneShotBytes does not compile.
 */
template <typename F>
void
scheduleAt(EventQueue &eq, Tick when, F &&fn,
           int priority = Event::DefaultPriority)
{
    eq.scheduleOneShot(when, std::forward<F>(fn), priority);
}

/** Schedules @p fn @p delta ticks from now. */
template <typename F>
void
scheduleAfter(EventQueue &eq, Tick delta, F &&fn,
              int priority = Event::DefaultPriority)
{
    eq.scheduleOneShot(eq.curTick() + delta, std::forward<F>(fn), priority);
}

} // namespace cnvm

#endif // CNVM_SIM_ONE_SHOT_HH
