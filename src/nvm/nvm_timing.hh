/**
 * @file
 * Timing parameters of the simulated PCM main memory (paper Table 2).
 */

#ifndef CNVM_NVM_NVM_TIMING_HH
#define CNVM_NVM_NVM_TIMING_HH

#include "common/types.hh"

namespace cnvm
{

/**
 * DDR3-interface PCM timing. All values in ticks (ps).
 *
 * Table 2: 8 GB PCM at 533 MHz, tRCD/tCL/tCWD/tFAW/tWTR/tWR =
 * 48/15/13/50/7.5/300 ns. tFAW is not modelled.
 */
struct NvmTiming
{
    Tick tRCD = nsToTicks(48);   //!< row activate to column command
    Tick tCL = nsToTicks(15);    //!< column command to first data beat
    Tick tCWD = nsToTicks(13);   //!< write command to first data beat
    Tick tWTR = nsToTicks(7.5);  //!< write-to-read bus turnaround
    Tick tWR = nsToTicks(300);   //!< PCM write recovery (cell programming)
    Tick tBurst = nsToTicks(7.5);//!< 8-beat burst of one line

    /**
     * Bank-level parallelism of the DIMM: 8 GB over four ranks of
     * eight banks. PCM writes occupy a bank for tWR, so this is the
     * write-bandwidth knob.
     */
    unsigned numBanks = 32;

    /**
     * PCM write pausing: a read may interrupt a bank's in-progress
     * write recovery (cell programming) after this re-arbitration
     * delay; the paused recovery resumes afterwards. Standard for PCM
     * controllers, and what keeps write latency off the read critical
     * path (paper section 6.3.6 notes writes are "usually not on the
     * critical path").
     */
    bool writePause = true;
    Tick tPause = nsToTicks(7.5);

    /** Table 2 defaults. */
    static NvmTiming pcm() { return NvmTiming{}; }

    /**
     * Scales the array read path (tRCD + tCL) and the write path
     * (tCWD + tWR) for the figure-17 latency sweeps.
     */
    NvmTiming
    scaled(double read_mult, double write_mult) const
    {
        NvmTiming t = *this;
        t.tRCD = static_cast<Tick>(tRCD * read_mult);
        t.tCL = static_cast<Tick>(tCL * read_mult);
        t.tCWD = static_cast<Tick>(tCWD * write_mult);
        t.tWR = static_cast<Tick>(tWR * write_mult);
        return t;
    }
};

} // namespace cnvm

#endif // CNVM_NVM_NVM_TIMING_HH
