/**
 * @file
 * Whole-system configuration (paper Table 2 defaults).
 */

#ifndef CNVM_CORE_CONFIG_HH
#define CNVM_CORE_CONFIG_HH

#include "mem/core_mem_path.hh"
#include "memctl/mem_controller.hh"
#include "nvm/nvm_timing.hh"
#include "workloads/factory.hh"

namespace cnvm
{

/** Core clock (Table 2: 4.0 GHz out-of-order; modelled in-order). */
inline constexpr double cpuGHz = 4.0;

struct SystemConfig
{
    DesignPoint design = DesignPoint::SCA;

    unsigned numCores = 1;

    /**
     * Memory channels sharding the address space (power of two). Each
     * channel gets its own controller — counter cache, write queues,
     * encryption engine, integrity-tree mirror — and its own NVM bank
     * group and bus; cross-channel persist ordering goes through the
     * shared PersistSequencer.
     */
    unsigned numChannels = 1;

    /** Private L1/L2 per core (Table 2). */
    CachePathConfig cache;

    /**
     * Controller geometry. counterCacheBytes is the explicit *total*
     * counter-cache capacity of the system, split evenly across the
     * channels at build time. (It is deliberately not scaled by core
     * count any more: the old `per-core × numCores` rule silently
     * inflated capacity as cores grew, washing out the FCA/SCA gap at
     * scale.)
     */
    MemCtlConfig memctl;

    /** PCM timing (Table 2), scalable for the figure-17 sweeps. */
    NvmTiming nvm = NvmTiming::pcm();

    WorkloadKind workload = WorkloadKind::ArraySwap;

    /** Per-core workload parameters; regionBase is assigned per core. */
    WorkloadParams wl;

    /** Base of the data region; per-core regions are laid out above. */
    Addr dataRegionBase = Addr(256) * 1024 * 1024;

    /**
     * Pre-warm the counter cache with the initialized lines' counter
     * lines, modelling a steady-state region of interest (the paper
     * reports warmed-up gem5 measurements, not cold-start ones).
     */
    bool warmCounterCache = true;

    /** Deterministic per-core seed derivation. */
    std::uint64_t
    coreSeed(unsigned core) const
    {
        return wl.seed * 0x9e3779b97f4a7c15ull + core + 1;
    }
};

} // namespace cnvm

#endif // CNVM_CORE_CONFIG_HH
