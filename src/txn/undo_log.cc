#include "txn/undo_log.hh"

#include <algorithm>
#include <bit>
#include <cstring>

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
    lines.clear();
    loadedLines.clear();
    preOps.clear();
}

UndoTx::TxLine *
UndoTx::find(Addr line_addr)
{
    for (TxLine &line : lines)
        if (line.addr == line_addr)
            return &line;
    return nullptr;
}

void
UndoTx::emitLoad(Addr line_addr)
{
    if (std::find(loadedLines.begin(), loadedLines.end(), line_addr)
        == loadedLines.end()) {
        loadedLines.push_back(line_addr);
        preOps.push_back(Op::load(line_addr));
    }
}

void
UndoTx::read(Addr addr, unsigned size, void *out)
{
    cnvm_assert(active);
    auto *dst = static_cast<std::uint8_t *>(out);
    for (Addr a = lineAlign(addr); a <= lineAlign(addr + size - 1);
         a += lineBytes) {
        Addr lo = std::max(a, addr);
        unsigned n = static_cast<unsigned>(
            std::min(a + lineBytes, addr + size) - lo);
        // Read-your-writes: a written line reads from its record.
        if (const TxLine *line = find(a))
            std::memcpy(dst + (lo - addr), line->data.data() + (lo - a), n);
        else
            shadow.read(lo, n, dst + (lo - addr));
        // Timing: one load per line per transaction.
        emitLoad(a);
    }
}

std::uint64_t
UndoTx::readU64(Addr addr)
{
    std::uint64_t v = 0;
    read(addr, sizeof(v), &v);
    return v;
}

void
UndoTx::write(Addr addr, const void *data, unsigned size)
{
    cnvm_assert(active);
    const auto *src = static_cast<const std::uint8_t *>(data);
    for (Addr a = lineAlign(addr); a <= lineAlign(addr + size - 1);
         a += lineBytes) {
        TxLine *line = find(a);
        if (line == nullptr) {
            if (lines.size() == log.maxLines)
                cnvm_fatal("transaction exceeds the undo log capacity "
                           "(%u lines)", log.maxLines);
            line = &lines.emplace_back(TxLine{a, shadow.line(a), 0});
        }
        Addr lo = std::max(a, addr);
        unsigned offset = static_cast<unsigned>(lo - a);
        unsigned n = static_cast<unsigned>(
            std::min(a + lineBytes, addr + size) - lo);
        std::memcpy(line->data.data() + offset, src + (lo - addr), n);
        line->written |= (n == lineBytes ? ~0ull : (1ull << n) - 1)
                         << offset;
    }
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
    std::vector<Addr> flushed{log.headerAddr()};

    // Descriptors, grouped into line-sized stores.
    for (unsigned i = 0; i < count; ++i)
        shadow.writeU64(log.descAddr(i), lines[i].addr);
    for (Addr a = lineAlign(log.descBase());
         a < log.descBase() + count * 8; a += lineBytes) {
        unsigned span = static_cast<unsigned>(
            std::min<Addr>(lineBytes, log.descBase() + count * 8 - a));
        LineData content = shadow.line(a);
        out.push_back(Op::store(a, content.data(), span));
        flushed.push_back(a);
    }

    // Whole-line backups of the pre-transaction content.
    for (unsigned i = 0; i < count; ++i) {
        LineData backup = shadow.line(lines[i].addr);
        Addr dst = log.backupAddr(i);
        shadow.write(dst, backup.data(), lineBytes);
        out.push_back(Op::store(dst, backup.data(), lineBytes));
        flushed.push_back(dst);
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

    persist::selectiveBarrier(out, flushed);

    // ------------------------------------------------------------------
    // Stage 2 — Mutate: apply the deferred writes in place. The log
    // holds the consistent version; these writes never need strict
    // counter-atomicity.
    // ------------------------------------------------------------------
    flushed.clear();
    for (const TxLine &line : lines) {
        // Store the line from its first written byte to its last.
        unsigned lo = static_cast<unsigned>(std::countr_zero(line.written));
        unsigned hi = 63u - std::countl_zero(line.written);
        out.push_back(Op::store(line.addr + lo, line.data.data() + lo,
                                hi - lo + 1));
        shadow.write(line.addr, line.data.data(), lineBytes);
        flushed.push_back(line.addr);
    }

    persist::selectiveBarrier(out, flushed);

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
