/**
 * @file
 * Helper mixin that binds a model to a clock domain.
 */

#ifndef CNVM_SIM_CLOCKED_HH
#define CNVM_SIM_CLOCKED_HH

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/eventq.hh"

namespace cnvm
{

/** A clock frequency expressed as a tick period. */
class ClockDomain
{
  public:
    /** @param period_ticks ticks per cycle; must be non-zero. */
    explicit ClockDomain(Tick period_ticks) : period(period_ticks)
    {
        cnvm_assert(period != 0);
    }

    Tick periodTicks() const { return period; }

    /** Converts a cycle count into ticks. */
    Tick cyclesToTicks(Cycles cycles) const { return cycles * period; }

  private:
    Tick period;
};

/**
 * Mixin for models that run on a clock: the current tick and
 * cycle-to-tick conversion.
 */
class Clocked
{
  public:
    Clocked(EventQueue &eq, ClockDomain domain)
        : eventq(eq), clock(domain)
    {}

    /** Current simulated time. */
    Tick curTick() const { return eventq.curTick(); }

    Tick cyclesToTicks(Cycles cycles) const
    { return clock.cyclesToTicks(cycles); }

  protected:
    EventQueue &eventq;
    ClockDomain clock;
};

} // namespace cnvm

#endif // CNVM_SIM_CLOCKED_HH
