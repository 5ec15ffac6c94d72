/**
 * @file
 * Fans a core's memory traffic out to the owning memory channel.
 *
 * One router instance sits between all CoreMemPaths and the N
 * per-channel MemControllers; every request is forwarded to the
 * channel that owns its address under the ChannelMap, so a channel
 * never sees an address outside its shard. Retry registrations are
 * collected here and pumped by whichever channel notifies first: a
 * stalled path cannot know which channel will free space first, and
 * CoreMemPath::drainStalled() is a no-op when nothing is stalled, so
 * a kick from the "wrong" channel is harmless. The router arms at
 * most one one-shot pump per channel rather than copying every
 * callback into every channel — a channel that never notifies (e.g.
 * one whose drain is saturated) must not accumulate an unbounded
 * backlog of stale registrations.
 */

#ifndef CNVM_MEM_CHANNEL_ROUTER_HH
#define CNVM_MEM_CHANNEL_ROUTER_HH

#include <vector>

#include "mem/channel_map.hh"
#include "mem/mem_backend.hh"

namespace cnvm
{

class ChannelRouter : public MemBackend
{
  public:
    ChannelRouter(std::vector<MemBackend *> channels_in, ChannelMap map);

    void issueRead(Addr addr, ReadCallback done) override;
    bool tryWrite(const WriteReq &req) override;
    bool tryCtrWriteback(Addr data_line_addr,
                         std::function<void()> accepted) override;
    void registerRetry(std::function<void()> retry) override;

  private:
    std::vector<MemBackend *> channels;
    ChannelMap map;

    /** Callbacks waiting for any channel to free queue space. */
    std::vector<std::function<void()>> retryCbs;
    /** Which channels currently hold an armed pump for @ref retryCbs. */
    std::vector<bool> pumpArmed;

    MemBackend &channelFor(Addr addr) const;
    void pumpRetries(std::size_t channel);
};

} // namespace cnvm

#endif // CNVM_MEM_CHANNEL_ROUTER_HH
