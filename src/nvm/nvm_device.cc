#include "nvm/nvm_device.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cnvm
{

NvmDevice::NvmDevice(NvmTiming timing, stats::StatRegistry *registry,
                     ChannelMap map)
    : params(timing),
      chanMap(map),
      bankFreeAt(std::size_t(map.channels) * timing.numBanks, 0),
      pausableFrom(std::size_t(map.channels) * timing.numBanks, 0),
      busFreeAt(map.channels, 0),
      lastWasWrite(map.channels, false),
      readBytes("nvm.bytes_read", "bytes read from NVMM"),
      writeBytes("nvm.bytes_written", "bytes written to NVMM"),
      readsIssued("nvm.reads", "line reads issued to NVMM"),
      writesIssued("nvm.writes", "line writes issued to NVMM")
{
    cnvm_assert(timing.numBanks > 0);
    cnvm_assert(isPowerOf2(map.channels));
    if (registry != nullptr) {
        registry->registerStat(readBytes);
        registry->registerStat(writeBytes);
        registry->registerStat(readsIssued);
        registry->registerStat(writesIssued);
    }
}

unsigned
NvmDevice::bankOf(Addr addr) const
{
    unsigned bank =
        static_cast<unsigned>((addr / lineBytes) % params.numBanks);
    return chanMap.channelOf(addr) * params.numBanks + bank;
}

Tick
NvmDevice::scheduleRead(Addr addr, Tick now)
{
    unsigned bank = bankOf(addr);
    unsigned ch = bank / params.numBanks;

    // A bank busy with write recovery may be paused after tPause; the
    // suspended programming resumes once the read completes.
    Tick bank_avail = bankFreeAt[bank];
    bool paused = false;
    if (params.writePause && bank_avail > now) {
        Tick pause_entry =
            std::max(now, pausableFrom[bank]) + params.tPause;
        if (pause_entry < bank_avail) {
            bank_avail = pause_entry;
            paused = true;
        }
    }

    Tick start = std::max(now, bank_avail);
    Tick data_ready = start + params.tRCD + params.tCL;
    // Write-to-read turnaround penalty on the channel's shared bus.
    Tick bus_earliest =
        busFreeAt[ch] + (lastWasWrite[ch] ? params.tWTR : 0);
    Tick burst_start = std::max(data_ready, bus_earliest);
    Tick done = burst_start + params.tBurst;

    busFreeAt[ch] = done;
    if (paused) {
        // The interrupted recovery still owes its remaining time.
        bankFreeAt[bank] += done - start;
        // The resumed programming is pausable again only after it has
        // run for tPause past this read; leaving the old (already
        // elapsed) mark in place would let back-to-back reads preempt
        // the same write with no re-entry delay at all.
        pausableFrom[bank] = done;
    } else {
        bankFreeAt[bank] = done;
        pausableFrom[bank] = done;
    }
    lastWasWrite[ch] = false;

    ++readsIssued;
    readBytes += lineBytes;
    return done;
}

Tick
NvmDevice::scheduleWrite(Addr addr, Tick now, unsigned bytes)
{
    unsigned bank = bankOf(addr);
    unsigned ch = bank / params.numBanks;

    Tick start = std::max(now, bankFreeAt[bank]);
    Tick burst_start = std::max(start + params.tCWD, busFreeAt[ch]);
    // DDR bursts are fixed-length (BL8): even a partial counter-line
    // write occupies a full burst frame on the bus, although only the
    // touched bytes count as traffic and programming effort.
    Tick burst_end = burst_start + params.tBurst;

    busFreeAt[ch] = burst_end;
    // The PCM cell programming keeps the bank busy well past the
    // burst; that recovery window is pausable by reads. Programming
    // time scales with the payload: PCM writes proceed in
    // power-budget-limited chunks, so a partial counter-line write
    // programs fewer cells.
    Tick recovery = std::max<Tick>(params.tWR * bytes / lineBytes,
                                   params.tWR / 8);
    bankFreeAt[bank] = burst_end + recovery;
    pausableFrom[bank] = burst_end;
    lastWasWrite[ch] = true;

    ++writesIssued;
    writeBytes += bytes;
    if (writeTraceHook)
        writeTraceHook(lineAlign(addr), bytes);
    return burst_end;
}

} // namespace cnvm
