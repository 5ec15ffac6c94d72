#include "nvm/fault_model.hh"

#include <algorithm>
#include <sstream>

#include "common/hash.hh"
#include "common/logging.hh"

namespace cnvm
{

FaultSpec
FaultSpec::forPoint(std::size_t plan_index) const
{
    FaultSpec s = *this;
    s.seed = fnv1aU64(static_cast<std::uint64_t>(plan_index) + 1,
                      fnv1aU64(seed));
    return s;
}

std::string
FaultSpec::describe() const
{
    if (!any())
        return "";
    std::ostringstream os;
    os << " +f(t" << tornWrites << ",b" << bitFlips << ",c"
       << counterFaults << ",a" << adrDrops;
    if (replays > 0)
        os << ",p" << replays;
    os << ",s" << seed << ")";
    return os.str();
}

FaultSpec
FaultSpec::allKinds(std::uint64_t seed)
{
    FaultSpec s;
    s.tornWrites = 1;
    s.bitFlips = 1;
    s.counterFaults = 1;
    s.adrDrops = 4;
    s.seed = seed;
    return s;
}

FaultSpec
FaultSpec::allKindsWithReplays(std::uint64_t seed)
{
    FaultSpec s = allKinds(seed);
    s.replays = 2;
    return s;
}

FaultModel::FaultModel(const FaultSpec &spec, Addr counter_region_base)
    : spec(spec), counterRegionBase(counter_region_base), rng(spec.seed)
{
}

unsigned
FaultModel::adrDropCount(unsigned ready_entries)
{
    if (spec.adrDrops == 0)
        return 0;
    // Draw before clamping so the RNG stream does not depend on queue
    // occupancy — Replay and Fork capture the same instant, but keeping
    // the draw unconditional makes the invariant obvious.
    auto drop = static_cast<unsigned>(rng.below(spec.adrDrops + 1));
    return std::min(drop, ready_entries);
}

void
FaultModel::applyMediaFaults(PersistImage &img)
{
    if (spec.tornWrites == 0 && spec.bitFlips == 0
        && spec.counterFaults == 0 && spec.replays == 0)
        return;

    // Victims come from the ascending persisted-line list, so their
    // placement depends on the image's contents alone — which is what
    // keeps Replay/Fork fingerprints identical.
    std::vector<Addr> lines = img.dataLineAddrs();
    if (lines.empty())
        return;

    auto victim = [&]() { return lines[rng.below(lines.size())]; };

    // Torn intra-line writes: a word prefix persisted, the tail holds
    // stale bits (modeled as uniform garbage — the previous cell
    // contents are not tracked at this granularity).
    constexpr unsigned wordsPerLine = lineBytes / 8;
    for (unsigned n = 0; n < spec.tornWrites; ++n) {
        Addr addr = victim();
        LineData torn = *img.persistedLine(addr);
        auto persisted_words =
            1 + static_cast<unsigned>(rng.below(wordsPerLine - 1));
        for (unsigned b = persisted_words * 8; b < lineBytes; ++b)
            torn[b] = static_cast<std::uint8_t>(rng.next());
        img.corruptDataLine(addr, torn);
    }

    // Media bit flips: 1-3 cells of a line flip.
    for (unsigned n = 0; n < spec.bitFlips; ++n) {
        Addr addr = victim();
        LineData flipped = *img.persistedLine(addr);
        auto flips = 1 + static_cast<unsigned>(rng.below(3));
        for (unsigned f = 0; f < flips; ++f) {
            auto bit = static_cast<unsigned>(rng.below(lineBytes * 8));
            flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        img.corruptDataLine(addr, flipped);
    }

    // Counter-store faults: the word covering a victim data line either
    // rolls back (an older value reappears) or turns to garbage. Both
    // leave the ciphertext current, so decryption with the stored
    // counter yields garbage plaintext (paper equation 4) with nothing
    // in the data line itself to betray it. Skipped when the design
    // persists no counters (nothing to corrupt).
    if (img.counterLineCount() > 0) {
        for (unsigned n = 0; n < spec.counterFaults; ++n) {
            Addr addr = victim();
            std::uint64_t line_index = addr / lineBytes;
            Addr ctr_addr = counterRegionBase
                + line_index / countersPerLine * lineBytes;
            auto slot =
                static_cast<unsigned>(line_index % countersPerLine);
            std::uint64_t cur = img.persistedCounters(ctr_addr)[slot];

            bool rollback = cur > 0 && rng.chancePct(50);
            std::uint64_t bad = rollback
                ? cur - rng.range(1, std::min<std::uint64_t>(cur, 4))
                : (rng.next() | 1);
            img.corruptCounterSlot(ctr_addr, slot, bad, addr);
        }
    }

    // Replay faults, drawn strictly after the media kinds so a
    // replay-free spec consumes exactly the historical RNG stream.
    // Victims come from the ascending list of lines with a recorded
    // stale triple; from each draw the model probes forward (wrapping)
    // for a line where the replay actually lands — skipping already-
    // faulted lines (a replay atop media corruption is not stealthy)
    // and no-op replays replayLine() refuses.
    if (spec.replays > 0) {
        std::vector<Addr> candidates = img.replayableLineAddrs();
        if (candidates.empty())
            return;
        for (unsigned n = 0; n < spec.replays; ++n) {
            const std::size_t start = rng.below(candidates.size());
            for (std::size_t probe = 0; probe < candidates.size();
                 ++probe) {
                const Addr addr =
                    candidates[(start + probe) % candidates.size()];
                if (img.lineFaulted(addr) || img.lineReplayed(addr))
                    continue;
                const std::uint64_t line_index = addr / lineBytes;
                const Addr ctr_addr = counterRegionBase
                    + line_index / countersPerLine * lineBytes;
                const auto slot = static_cast<unsigned>(
                    line_index % countersPerLine);
                if (img.replayLine(addr, ctr_addr, slot))
                    break;
            }
        }
    }
}

} // namespace cnvm
