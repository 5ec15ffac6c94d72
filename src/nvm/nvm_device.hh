/**
 * @file
 * The non-volatile main memory device.
 *
 * Two concerns live here:
 *
 *  1. Timing — a banked PCM behind a DDR3-style channel. The memory
 *     controller asks the device to schedule individual line transfers;
 *     the device serializes them over the shared data bus and the
 *     per-bank busy windows and returns completion ticks.
 *
 *  2. The persisted image — the ciphertext lines, updated only when
 *     writes drain from the controller's queues, and the counter
 *     store, updated when counter-line writes drain. It is all that
 *     survives a simulated power failure, and recovery must decrypt
 *     the image with the stored counters (paper section 2.2.2). The
 *     program-order plaintext is not the device's: it lives in each
 *     core's LiveView, which shares its pages with the core's shadow.
 */

#ifndef CNVM_NVM_NVM_DEVICE_HH
#define CNVM_NVM_NVM_DEVICE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "mem/channel_map.hh"
#include "nvm/nvm_timing.hh"
#include "nvm/persist_image.hh"
#include "stats/stats.hh"

namespace cnvm
{

class NvmDevice
{
  public:
    /**
     * @param timing   per-channel bank timing
     * @param registry stat registry (may be null in unit tests)
     * @param map      address interleaving; each channel gets its own
     *                 bank group of timing.numBanks banks and its own
     *                 data bus. The default single-channel map keeps
     *                 the device timing-identical to the pre-channel
     *                 device.
     */
    explicit NvmDevice(NvmTiming timing,
                       stats::StatRegistry *registry = nullptr,
                       ChannelMap map = ChannelMap{});

    // ------------------------------------------------------------------
    // Timing path
    // ------------------------------------------------------------------

    /**
     * Schedules a line read beginning no earlier than @p now.
     * @return the tick at which read data is available on-chip.
     */
    Tick scheduleRead(Addr addr, Tick now);

    /**
     * Schedules a line write beginning no earlier than @p now.
     * @param bytes payload size on the bus (64, or 72 for the
     *              co-located wide-bus designs)
     * @return the tick at which the burst completes (the drain point:
     *         the write-queue entry may be freed; the bank stays busy
     *         for tWR beyond this).
     */
    Tick scheduleWrite(Addr addr, Tick now, unsigned bytes);

    // ------------------------------------------------------------------
    // Persisted state
    // ------------------------------------------------------------------

    /**
     * The whole persisted half of the device, as one object — the
     * one way in to it for the drain paths, recovery, the crash oracle
     * and the tests.
     *
     * The const view is the fork-capture entry point: copying it (the
     * copy shares the image's pages, and either side copies a page
     * only when it writes it) plus the ADR drain of the queued entries
     * is exactly
     * the state recovery may rely on after a power failure at this
     * instant. The accessor has no side effects: no stats counters
     * move and no timing state is touched, so capturing a fork cannot
     * perturb the trunk run.
     */
    const PersistImage &persistedState() const { return persisted; }

    /** Mutable persisted state (the drain paths, the crash path, and
     *  the resume path, which moves a recovered image into it). */
    PersistImage &persistedState() { return persisted; }

    /** Index of the bank serving @p addr, across all channels
     *  (channel-major: channel * numBanks + bank). */
    unsigned bankOf(Addr addr) const;

    /** Tick at which bank @p bank (a bankOf() index) can start a new
     *  access. */
    Tick bankFreeTick(unsigned bank) const { return bankFreeAt[bank]; }

    const NvmTiming &timing() const { return params; }
    const ChannelMap &channelMap() const { return chanMap; }

    /**
     * Optional observer invoked for every line write the device
     * services (address, payload bytes). Used by the wear-leveling
     * study to capture write traces without perturbing timing.
     */
    void
    setWriteTraceHook(std::function<void(Addr, unsigned)> hook)
    {
        writeTraceHook = std::move(hook);
    }

    /** Total bytes moved, for the figure-14 write-traffic experiment. */
    std::uint64_t bytesWritten() const
    { return static_cast<std::uint64_t>(writeBytes.value()); }
    std::uint64_t bytesRead() const
    { return static_cast<std::uint64_t>(readBytes.value()); }

  private:
    NvmTiming params;
    ChannelMap chanMap;

    /** Next tick each bank is free to start a new column access
     *  (channel-major: channel * numBanks + bank). */
    std::vector<Tick> bankFreeAt;

    /**
     * Start of each bank's pausable write-recovery window: the busy
     * interval [pausableFrom, bankFreeAt) may be preempted by a read
     * when write pausing is enabled.
     */
    std::vector<Tick> pausableFrom;

    /** Next tick each channel's data bus is free. */
    std::vector<Tick> busFreeAt;

    /** Whether each channel's last bus transfer was a write (tWTR). */
    std::vector<std::uint8_t> lastWasWrite;

    /** Everything that survives a power failure (paper section 2.2.2). */
    PersistImage persisted;

    stats::Scalar readBytes;
    stats::Scalar writeBytes;
    stats::Scalar readsIssued;
    stats::Scalar writesIssued;

    std::function<void(Addr, unsigned)> writeTraceHook;
};

} // namespace cnvm

#endif // CNVM_NVM_NVM_DEVICE_HH
