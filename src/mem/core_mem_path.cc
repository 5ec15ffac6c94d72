#include "mem/core_mem_path.hh"

#include <cstring>

#include "common/logging.hh"

namespace cnvm
{

namespace
{

std::string
statName(unsigned core, const char *leaf)
{
    return "core" + std::to_string(core) + ".mem." + leaf;
}

} // anonymous namespace

CoreMemPath::CoreMemPath(EventQueue &eq, ClockDomain cpu_clock,
                         MemBackend &backend, LiveView &live,
                         const CachePathConfig &cfg, unsigned core_id,
                         stats::StatRegistry *registry)
    : Clocked(eq, cpu_clock),
      backend(backend),
      live(live),
      l1("core" + std::to_string(core_id) + ".l1", cfg.l1Bytes, cfg.l1Assoc),
      l2("core" + std::to_string(core_id) + ".l2", cfg.l2Bytes, cfg.l2Assoc),
      cfg(cfg),
      l1Hits(statName(core_id, "l1_hits"), "L1 hits"),
      l1Misses(statName(core_id, "l1_misses"), "L1 misses"),
      l2Hits(statName(core_id, "l2_hits"), "L2 hits"),
      l2Misses(statName(core_id, "l2_misses"), "L2 misses"),
      writebacks(statName(core_id, "writebacks"),
                 "clwb-induced writebacks sent to the controller"),
      evictions(statName(core_id, "evictions"),
                "dirty evictions sent to the controller"),
      loadTicks(statName(core_id, "load_ticks"),
                "load completion latency (ticks)", nsToTicks(10), 100)
{
    if (registry != nullptr) {
        registry->registerStat(l1Hits);
        registry->registerStat(l1Misses);
        registry->registerStat(l2Hits);
        registry->registerStat(l2Misses);
        registry->registerStat(writebacks);
        registry->registerStat(evictions);
        registry->registerStat(loadTicks);
    }
}

template <typename F>
void
CoreMemPath::missToMemory(Addr addr, F &&done)
{
    backend.issueRead(addr,
        [this, addr, done = std::forward<F>(done)]() mutable {
            fillBoth(addr);
            done();
        });
}

void
CoreMemPath::finishLoad(Tick start, const std::function<void()> &done)
{
    loadTicks.sample(curTick() - start);
    done();
}

void
CoreMemPath::load(Addr addr, std::function<void()> done)
{
    addr = lineAlign(addr);
    Tick start = curTick();
    after(cfg.l1Cycles,
          [this, addr, start, done = std::move(done)]() mutable {
        if (l1.access(addr) != nullptr) {
            ++l1Hits;
            finishLoad(start, done);
            return;
        }
        ++l1Misses;
        after(cfg.l2Cycles,
              [this, addr, start, done = std::move(done)]() mutable {
            if (l2.access(addr) != nullptr) {
                ++l2Hits;
                fillL1(addr);
                finishLoad(start, done);
                return;
            }
            ++l2Misses;
            missToMemory(addr, [this, start, done = std::move(done)]() {
                finishLoad(start, done);
            });
        });
    });
}

void
CoreMemPath::store(Addr addr, unsigned size, const std::uint8_t *bytes,
                   bool counter_atomic, std::function<void()> done)
{
    Addr line_addr = lineAlign(addr);
    cnvm_assert(size > 0 && size <= lineBytes);
    cnvm_assert(addr + size <= line_addr + lineBytes);

    // Capture the payload by value; the caller's buffer may not outlive
    // the cache latency.
    LineData payload{};
    std::memcpy(payload.data(), bytes, size);
    unsigned offset = static_cast<unsigned>(addr - line_addr);

    auto apply = [this, line_addr, offset, size, payload, counter_atomic,
                  done = std::move(done)]() mutable {
        CacheLine *line = l1.access(line_addr);
        cnvm_assert(line != nullptr);
        line->dirty = true;
        line->counterAtomic |= counter_atomic;
        live.store(line_addr + offset, size, payload.data());
        done();
    };

    after(cfg.l1Cycles, [this, line_addr, apply = std::move(apply)]() mutable {
        if (l1.access(line_addr) != nullptr) {
            ++l1Hits;
            apply();
            return;
        }
        ++l1Misses;
        // Write-allocate: fetch the line, then apply the merge.
        after(cfg.l2Cycles,
              [this, line_addr, apply = std::move(apply)]() mutable {
            if (l2.access(line_addr) != nullptr) {
                ++l2Hits;
                fillL1(line_addr);
                apply();
                return;
            }
            ++l2Misses;
            missToMemory(line_addr, std::move(apply));
        });
    });
}

void
CoreMemPath::clwb(Addr addr, std::function<void()> done)
{
    Addr line_addr = lineAlign(addr);
    after(cfg.l1Cycles, [this, line_addr, done = std::move(done)]() mutable {
        // Push the L1 line's dirty state down into L2 (clwb does not
        // invalidate).
        CacheLine *l1_line = l1.peek(line_addr);
        if (l1_line != nullptr && l1_line->dirty) {
            CacheLine *l2_line = l2.access(line_addr);
            // Inclusive hierarchy: the L2 copy must exist.
            cnvm_assert(l2_line != nullptr);
            l2_line->dirty = true;
            l2_line->counterAtomic |= l1_line->counterAtomic;
            l1_line->dirty = false;
            l1_line->counterAtomic = false;
        }

        after(cfg.l2Cycles,
              [this, line_addr, done = std::move(done)]() mutable {
            CacheLine *l2_line = l2.peek(line_addr);
            if (l2_line == nullptr || !l2_line->dirty) {
                // Clean (or already evicted, i.e. already written back):
                // nothing to persist.
                done();
                return;
            }
            ++writebacks;
            bool ca = l2_line->counterAtomic;
            l2_line->dirty = false;
            l2_line->counterAtomic = false;
            writebackToMem(line_addr, ca, std::move(done));
        });
    });
}

void
CoreMemPath::ctrwb(Addr addr, std::function<void()> done)
{
    Addr line_addr = lineAlign(addr);
    // The request travels the same pipeline as writebacks so that a
    // counter_cache_writeback() issued after a clwb in program order
    // reaches the controller after that clwb's write and flushes the
    // freshly updated counters, not stale ones.
    after(cfg.l1Cycles + cfg.l2Cycles,
          [this, line_addr, done = std::move(done)]() mutable {
        auto attempt = [this, line_addr, done]() {
            return backend.tryCtrWriteback(line_addr, done);
        };
        if (!stalled.empty() || !attempt())
            pushStalled(attempt);
    });
}

void
CoreMemPath::writebackToMem(Addr addr, bool ca,
                            std::function<void()> accepted)
{
    // Snapshot the line now: a stalled write retries later, and a
    // store landing in between must not leak into it.
    WriteReq req;
    req.addr = addr;
    req.data = live.read(addr);
    req.counterAtomic = ca;
    req.accepted = std::move(accepted);

    auto attempt = [this, req]() { return backend.tryWrite(req); };
    if (!stalled.empty() || !attempt())
        pushStalled(attempt);
}

void
CoreMemPath::pushStalled(std::function<bool()> attempt)
{
    stalled.push_back(std::move(attempt));
    if (!retryRegistered) {
        retryRegistered = true;
        backend.registerRetry([this]() {
            retryRegistered = false;
            drainStalled();
        });
    }
}

void
CoreMemPath::drainStalled()
{
    while (!stalled.empty()) {
        if (!stalled.front()()) {
            // Still no space; wait for the next notification.
            if (!retryRegistered) {
                retryRegistered = true;
                backend.registerRetry([this]() {
                    retryRegistered = false;
                    drainStalled();
                });
            }
            return;
        }
        stalled.pop_front();
    }
}

void
CoreMemPath::fillL1(Addr addr)
{
    if (l1.peek(addr) != nullptr)
        return;
    auto victim = l1.allocate(addr, CacheLine{});
    if (victim && victim->dirty) {
        // Merge the L1 victim's dirty state into the (inclusive) L2
        // copy.
        CacheLine *l2_line = l2.access(victim->addr);
        cnvm_assert(l2_line != nullptr);
        l2_line->dirty = true;
        l2_line->counterAtomic |= victim->counterAtomic;
    }
}

void
CoreMemPath::fillBoth(Addr addr)
{
    if (l2.peek(addr) == nullptr) {
        auto victim = l2.allocate(addr, CacheLine{});
        if (victim) {
            // Maintain inclusion: merge the L1 copy's dirty state into
            // the victim.
            auto l1_copy = l1.invalidate(victim->addr);
            if (l1_copy && l1_copy->dirty) {
                victim->dirty = true;
                victim->counterAtomic |= l1_copy->counterAtomic;
            }
            if (victim->dirty) {
                ++evictions;
                writebackToMem(victim->addr, victim->counterAtomic,
                               nullptr);
            }
        }
    }
    fillL1(addr);
}

void
CoreMemPath::dropAll()
{
    l1.reset();
    l2.reset();
    stalled.clear();
}

} // namespace cnvm
