#include "nvm/persist_image.hh"

#include <utility>

#include "common/logging.hh"

namespace cnvm
{

PersistImage::DataLine &
PersistImage::drainedLine(Addr line_addr)
{
    DataLine *line = dataLines.find(line_addr);
    cnvm_assert(line != nullptr);
    return *line;
}

void
PersistImage::drainData(Addr line_addr, const LineData &ciphertext,
                        std::uint64_t cipher_counter)
{
    cnvm_assert(isLineAligned(line_addr));
    auto [line, inserted] = dataLines.tryEmplace(line_addr);
    // Record the superseded triple before overwriting: a persistence-
    // based replay attack needs a *complete* stale (cipher, counter,
    // MAC) snapshot, and this is the only moment it exists. The MAC
    // drained with the old burst is still in the record here —
    // drainMac() for the new burst only lands after drainData().
    if (!inserted && line->cipherCounter != cipher_counter) {
        staleTriples[line_addr] = {line->cipher, line->cipherCounter,
                                   line->mac};
    }
    line->cipher = ciphertext;
    line->cipherCounter = cipher_counter;
}

void
PersistImage::drainCounters(Addr ctr_line_addr, const CounterLine &values)
{
    cnvm_assert(isLineAligned(ctr_line_addr));
    counterStore[ctr_line_addr] = values;
}

const LineData *
PersistImage::persistedLine(Addr line_addr) const
{
    const DataLine *line = dataLines.find(line_addr);
    return line == nullptr ? nullptr : &line->cipher;
}

CounterLine
PersistImage::persistedCounters(Addr ctr_line_addr) const
{
    const CounterLine *values = counterStore.find(ctr_line_addr);
    return values == nullptr ? CounterLine{} : *values;
}

std::uint64_t
PersistImage::persistedCipherCounter(Addr line_addr) const
{
    const DataLine *line = dataLines.find(line_addr);
    return line == nullptr ? 0 : line->cipherCounter;
}

void
PersistImage::drainMac(Addr line_addr, std::uint64_t mac)
{
    drainedLine(line_addr).mac = mac;
}

const std::uint64_t *
PersistImage::persistedMac(Addr line_addr) const
{
    const DataLine *line = dataLines.find(line_addr);
    return line == nullptr ? nullptr : &line->mac;
}

void
PersistImage::drainTreeNode(unsigned level, std::uint64_t index,
                            std::uint64_t hash)
{
    cnvm_assert(level < treeNodeLevels);
    LineTable<std::uint64_t> &nodes = treeNodes[level];
    const Addr key = index * lineBytes;
    const std::uint64_t *node = std::as_const(nodes).find(key);
    if (node == nullptr || *node != hash)
        nodes[key] = hash;
}

void
PersistImage::drainTreeRoot(std::uint64_t hash)
{
    treeRoot = hash;
    treeRootPresent = true;
}

const std::uint64_t *
PersistImage::persistedTreeNode(unsigned level, std::uint64_t index) const
{
    cnvm_assert(level < treeNodeLevels);
    return treeNodes[level].find(index * lineBytes);
}

const std::uint64_t *
PersistImage::persistedTreeRoot() const
{
    return treeRootPresent ? &treeRoot : nullptr;
}

std::vector<std::uint64_t>
PersistImage::persistedTreeLeafIndices() const
{
    std::vector<std::uint64_t> indices;
    indices.reserve(treeNodes[1].size());
    treeNodes[1].forEach([&indices](Addr key, std::uint64_t) {
        indices.push_back(key / lineBytes);
    });
    return indices;
}

void
PersistImage::corruptDataLine(Addr line_addr, const LineData &corrupted)
{
    drainedLine(line_addr).cipher = corrupted;
    faulted[line_addr] = true;
}

void
PersistImage::corruptCounterSlot(Addr ctr_line_addr, unsigned slot,
                                 std::uint64_t value, Addr data_line_addr)
{
    cnvm_assert(slot < countersPerLine);
    counterStore[ctr_line_addr][slot] = value;
    faulted[data_line_addr] = true;
}

bool
PersistImage::lineFaulted(Addr line_addr) const
{
    return faulted.contains(line_addr);
}

bool
PersistImage::lineReplayed(Addr line_addr) const
{
    return replayed.contains(line_addr);
}

bool
PersistImage::replayLine(Addr line_addr, Addr ctr_line_addr,
                         unsigned slot)
{
    cnvm_assert(slot < countersPerLine);
    const StaleTriple *stale = std::as_const(staleTriples).find(line_addr);
    if (stale == nullptr)
        return false;
    // A "replay" to the value already stored would change nothing —
    // undetectable because there is nothing to detect. Skip it so the
    // replayed ground truth only marks lines that really rolled back.
    if (stale->counter == persistedCounters(ctr_line_addr)[slot])
        return false;
    DataLine &line = drainedLine(line_addr);
    line.cipher = stale->cipher;
    line.cipherCounter = stale->counter;
    line.mac = stale->mac;
    counterStore[ctr_line_addr][slot] = stale->counter;
    replayed[line_addr] = true;
    return true;
}

std::vector<Addr>
PersistImage::replayableLineAddrs() const
{
    std::vector<Addr> addrs;
    addrs.reserve(staleTriples.size());
    staleTriples.forEach(
        [&addrs](Addr addr, const StaleTriple &) { addrs.push_back(addr); });
    return addrs;
}

std::vector<Addr>
PersistImage::dataLineAddrs() const
{
    std::vector<Addr> addrs;
    addrs.reserve(dataLines.size());
    dataLines.forEach(
        [&addrs](Addr addr, const DataLine &) { addrs.push_back(addr); });
    return addrs;
}

} // namespace cnvm
