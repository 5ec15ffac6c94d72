#include "mem/channel_router.hh"

#include <utility>

#include "common/logging.hh"

namespace cnvm
{

ChannelRouter::ChannelRouter(std::vector<MemBackend *> channels_in,
                             ChannelMap map_in)
    : channels(std::move(channels_in)), map(map_in),
      pumpArmed(channels.size(), false)
{
    cnvm_assert(!channels.empty());
    cnvm_assert(channels.size() == map.channels);
    for (MemBackend *ch : channels)
        cnvm_assert(ch != nullptr);
}

MemBackend &
ChannelRouter::channelFor(Addr addr) const
{
    return *channels[map.channelOf(addr)];
}

void
ChannelRouter::issueRead(Addr addr, ReadCallback done)
{
    channelFor(addr).issueRead(addr, std::move(done));
}

bool
ChannelRouter::tryWrite(const WriteReq &req)
{
    return channelFor(req.addr).tryWrite(req);
}

bool
ChannelRouter::tryCtrWriteback(Addr data_line_addr,
                               std::function<void()> accepted)
{
    // The counter line covering a data line is owned by the same
    // channel as the data line (ChannelMap co-location), so routing
    // by the data address reaches the right counter shard.
    return channelFor(data_line_addr)
        .tryCtrWriteback(data_line_addr, std::move(accepted));
}

void
ChannelRouter::registerRetry(std::function<void()> retry)
{
    // Park the callback here and arm (at most) one pump per channel:
    // whichever channel frees queue space first drains the shared
    // list, and the other pumps fire later as cheap no-ops. Copying
    // every callback into every channel instead would let a channel
    // that never notifies — one whose drain is saturated by a hot
    // counter line, say — accumulate stale registrations without
    // bound while the stalled paths retry.
    retryCbs.push_back(std::move(retry));
    for (std::size_t i = 0; i < channels.size(); ++i) {
        if (pumpArmed[i])
            continue;
        pumpArmed[i] = true;
        channels[i]->registerRetry([this, i]() { pumpRetries(i); });
    }
}

void
ChannelRouter::pumpRetries(std::size_t channel)
{
    pumpArmed[channel] = false;
    if (retryCbs.empty())
        return; // another channel's pump already drained the list
    std::vector<std::function<void()>> pending;
    pending.swap(retryCbs);
    // Registration order, exactly as the per-channel fan-out would
    // have delivered them: the order stalled paths re-attempt is part
    // of the deterministic schedule.
    for (auto &cb : pending)
        cb();
}

} // namespace cnvm
