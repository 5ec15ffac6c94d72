#include "txn/undo_log.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"
#include "persist/primitives.hh"

namespace cnvm
{

UndoTx::UndoTx(ShadowMem &shadow, const LogLayout &log)
    : shadow(shadow), log(log)
{
    cnvm_assert(log.maxLines > 0);
    cnvm_assert(isLineAligned(log.base));
}

void
UndoTx::begin(std::uint64_t txn_id)
{
    cnvm_assert(!active);
    active = true;
    txnId = txn_id;
    pendingBytes.clear();
    lines.clear();
    lineSet.clear();
    loadedLines.clear();
    preOps.clear();
}

void
UndoTx::emitLoad(Addr addr)
{
    Addr line_addr = lineAlign(addr);
    if (loadedLines.insert(line_addr).second)
        preOps.push_back(Op::load(line_addr));
}

void
UndoTx::read(Addr addr, unsigned size, void *out)
{
    cnvm_assert(active);
    shadow.read(addr, size, out);
    // Read-your-writes: overlay deferred bytes.
    auto *dst = static_cast<std::uint8_t *>(out);
    for (unsigned i = 0; i < size; ++i) {
        auto it = pendingBytes.find(addr + i);
        if (it != pendingBytes.end())
            dst[i] = it->second;
    }
    // Timing: one load per line per transaction.
    for (Addr a = lineAlign(addr); a <= lineAlign(addr + size - 1);
         a += lineBytes)
        emitLoad(a);
}

std::uint64_t
UndoTx::readU64(Addr addr)
{
    std::uint64_t v = 0;
    read(addr, sizeof(v), &v);
    return v;
}

void
UndoTx::touchLine(Addr line_addr)
{
    if (lineSet.insert(line_addr).second) {
        lines.push_back(line_addr);
        if (lines.size() > log.maxLines)
            cnvm_fatal("transaction exceeds the undo log capacity "
                       "(%u lines)", log.maxLines);
    }
}

void
UndoTx::write(Addr addr, const void *data, unsigned size)
{
    cnvm_assert(active);
    const auto *src = static_cast<const std::uint8_t *>(data);
    for (unsigned i = 0; i < size; ++i)
        pendingBytes[addr + i] = src[i];
    for (Addr a = lineAlign(addr); a <= lineAlign(addr + size - 1);
         a += lineBytes)
        touchLine(a);
}

void
UndoTx::writeU64(Addr addr, std::uint64_t v)
{
    write(addr, &v, sizeof(v));
}

void
UndoTx::compute(Cycles cycles)
{
    cnvm_assert(active);
    preOps.push_back(Op::compute(cycles));
}

LineData
UndoTx::mergedLine(Addr line_addr) const
{
    LineData data = shadow.line(line_addr);
    auto it = pendingBytes.lower_bound(line_addr);
    while (it != pendingBytes.end() && it->first < line_addr + lineBytes) {
        data[it->first - line_addr] = it->second;
        ++it;
    }
    return data;
}

void
UndoTx::commit(std::vector<Op> &out)
{
    cnvm_assert(active);
    active = false;

    // Accumulated loads / compute first (they happened in program order
    // before the transaction's persist stages).
    out.insert(out.end(), preOps.begin(), preOps.end());

    std::uint64_t count = lines.size();

    // ------------------------------------------------------------------
    // Stage 1 — Prepare: build the log entry (Table 1: the backup is
    // inconsistent while being written, the data still is consistent,
    // so no write here needs counter-atomicity except the header line
    // carrying the CounterAtomic `valid` field).
    // ------------------------------------------------------------------
    std::vector<Addr> log_lines;
    log_lines.push_back(log.headerAddr());

    // Descriptors, grouped into line-sized stores.
    for (unsigned i = 0; i < count; ++i)
        shadow.writeU64(log.descAddr(i), lines[i]);
    for (Addr a = lineAlign(log.descBase());
         a < log.descBase() + count * 8; a += lineBytes) {
        unsigned span = static_cast<unsigned>(
            std::min<Addr>(lineBytes, log.descBase() + count * 8 - a));
        LineData content = shadow.line(a);
        out.push_back(Op::store(a, content.data(), span));
        log_lines.push_back(a);
    }

    // Whole-line backups of the pre-transaction content.
    for (unsigned i = 0; i < count; ++i) {
        LineData backup = shadow.line(lines[i]);
        Addr dst = log.backupAddr(i);
        shadow.write(dst, backup.data(), lineBytes);
        out.push_back(Op::store(dst, backup.data(), lineBytes));
        log_lines.push_back(dst);
    }

    // Header: magic | valid | txnId | count | checksum. The store is
    // CounterAtomic: `valid` switches whether recovery trusts the log.
    std::uint64_t checksum = logChecksum(shadow, log, txnId, count);
    struct
    {
        std::uint64_t magic, valid, txn_id, count, checksum;
    } header{LogLayout::kMagic, LogLayout::kValid, txnId, count, checksum};
    shadow.write(log.headerAddr(), &header, sizeof(header));
    out.push_back(Op::store(log.headerAddr(), &header, sizeof(header),
                            /*ca=*/true));

    persist::selectiveBarrier(out, log_lines);

    // ------------------------------------------------------------------
    // Stage 2 — Mutate: apply the deferred writes in place. The log
    // holds the consistent version; these writes never need strict
    // counter-atomicity.
    // ------------------------------------------------------------------
    for (Addr line_addr : lines) {
        LineData merged = mergedLine(line_addr);
        // Store only the modified span of the line.
        auto first = pendingBytes.lower_bound(line_addr);
        cnvm_assert(first != pendingBytes.end()
                    && first->first < line_addr + lineBytes);
        Addr lo = first->first;
        Addr hi = lo;
        for (auto it = first;
             it != pendingBytes.end() && it->first < line_addr + lineBytes;
             ++it)
            hi = it->first;
        unsigned offset = static_cast<unsigned>(lo - line_addr);
        unsigned span = static_cast<unsigned>(hi - lo + 1);
        out.push_back(Op::store(lo, merged.data() + offset, span));
        shadow.write(line_addr, merged.data(), lineBytes);
    }

    persist::selectiveBarrier(out, lines);

    // ------------------------------------------------------------------
    // Stage 3 — Commit: one CounterAtomic store invalidates the backup,
    // atomically moving the consistent version from the log to the
    // in-place data (Figure 9, line 17).
    // ------------------------------------------------------------------
    std::uint64_t invalid = LogLayout::kInvalid;
    shadow.writeU64(log.validAddr(), invalid);
    out.push_back(Op::store(log.validAddr(), &invalid, sizeof(invalid),
                            /*ca=*/true));
    persist::persistBarrier(out, {log.headerAddr()});

    pendingBytes.clear();
}

std::uint64_t
logChecksum(const ByteReader &reader, const LogLayout &log,
            std::uint64_t txn_id, std::uint64_t count)
{
    std::uint64_t state = fnv1aU64(txn_id);
    state = fnv1aU64(count, state);
    for (unsigned i = 0; i < count; ++i) {
        std::uint64_t desc = reader.readU64(log.descAddr(i));
        state = fnv1aU64(desc, state);
        std::uint8_t backup[lineBytes];
        reader.read(log.backupAddr(i), lineBytes, backup);
        state = fnv1a(backup, lineBytes, state);
    }
    return state;
}

} // namespace cnvm
