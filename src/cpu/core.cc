#include "cpu/core.hh"

#include "common/logging.hh"
#include "sim/eventq.hh"

namespace cnvm
{

namespace
{

std::string
statName(unsigned core, const char *leaf)
{
    return "core" + std::to_string(core) + "." + leaf;
}

} // anonymous namespace

Core::Core(EventQueue &eq, ClockDomain clock, CoreMemPath &mem,
           OpSource &source, unsigned core_id,
           stats::StatRegistry *registry)
    : Clocked(eq, clock),
      loads(statName(core_id, "loads"), "load operations executed"),
      stores(statName(core_id, "stores"), "store operations executed"),
      clwbs(statName(core_id, "clwbs"), "clwb operations executed"),
      ctrwbs(statName(core_id, "ctrwbs"),
             "counter_cache_writeback operations executed"),
      fences(statName(core_id, "fences"), "sfence operations executed"),
      computeOps(statName(core_id, "compute_ops"),
                 "compute delay operations executed"),
      fenceStallTicks(statName(core_id, "fence_stall_ticks"),
                      "ticks spent blocked at sfences"),
      mem(mem),
      source(source)
{
    if (registry != nullptr) {
        registry->registerStat(loads);
        registry->registerStat(stores);
        registry->registerStat(clwbs);
        registry->registerStat(ctrwbs);
        registry->registerStat(fences);
        registry->registerStat(computeOps);
        registry->registerStat(fenceStallTicks);
    }
}

void
Core::start()
{
    scheduleAt(eventq, curTick(), guarded<&Core::step>());
}

void
Core::halt()
{
    halted = true;
    ++epoch;
}

void
Core::advance(Cycles cycles)
{
    scheduleAfter(eventq, cyclesToTicks(cycles), guarded<&Core::step>());
}

void
Core::persistDone()
{
    cnvm_assert(outstandingPersists > 0);
    --outstandingPersists;
    if (outstandingPersists == 0) {
        if (fenceBlocked) {
            fenceBlocked = false;
            fenceStallTicks += static_cast<double>(curTick()
                                                   - fenceStallStart);
            advance(1);
        } else {
            maybeFinish();
        }
    }
}

void
Core::maybeFinish()
{
    if (!isFinished && sourceDone && nextOp == batch.size()
        && outstandingPersists == 0) {
        isFinished = true;
        finishTick = curTick();
        if (onFinished)
            onFinished();
    }
}

void
Core::step()
{
    if (halted || isFinished)
        return;

    if (nextOp == batch.size()) {
        batch.clear();
        nextOp = 0;
        if (!source.next(batch)) {
            sourceDone = true;
            maybeFinish();
            return;
        }
        cnvm_assert(!batch.empty());
    }

    const Op &op = batch[nextOp++];

    switch (op.type) {
      case OpType::Load:
        ++loads;
        mem.load(op.addr, guarded<&Core::retireOne>());
        return;

      case OpType::Store:
        ++stores;
        mem.store(op.addr, op.size, op.bytes.data(), op.counterAtomic,
                  guarded<&Core::retireOne>());
        return;

      case OpType::Clwb:
        ++clwbs;
        ++outstandingPersists;
        mem.clwb(op.addr, guarded<&Core::persistDone>());
        advance(1);
        return;

      case OpType::CtrWb:
        ++ctrwbs;
        ++outstandingPersists;
        mem.ctrwb(op.addr, guarded<&Core::persistDone>());
        advance(1);
        return;

      case OpType::Fence:
        ++fences;
        if (outstandingPersists == 0) {
            advance(1);
        } else {
            fenceBlocked = true;
            fenceStallStart = curTick();
        }
        return;

      case OpType::Compute:
        ++computeOps;
        advance(op.cycles > 0 ? op.cycles : 1);
        return;
    }
    cnvm_panic("unhandled op type");
}

} // namespace cnvm
