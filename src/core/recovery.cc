#include "core/recovery.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "core/recovery_crash.hh"
#include "integrity/integrity_tree.hh"

namespace cnvm
{

RecoveredImage::RecoveredImage(const PersistImage &src,
                               const MemController &ctl)
    : src(src), ctl(ctl)
{
    // Verify-root-first: one bottom-up recomputation of the tree root
    // from the persisted counter store, compared against the persisted
    // root. The per-line replay check below is armed only on a
    // mismatch, so the clean-crash fast path pays one scan and zero
    // per-line tree lookups.
    if (ctl.config().integrityTree) {
        const std::uint64_t *root = src.persistedTreeRoot();
        treeArmed = root != nullptr;
        treeMismatch = treeArmed
            && computeTreeRoot(src, ctl.config().counterRegionBase)
                   != *root;
    }
}

RecoveredImage::StoredLine
RecoveredImage::storedLine(Addr line_addr, const CounterLine &ctrs) const
{
    StoredLine s;
    s.cipher = src.persistedLine(line_addr);
    if (ctl.design() != DesignPoint::NoEncryption)
        s.counter = ctrs[ctl.counterSlot(line_addr)];
    // Never-drained lines carry no MAC and nothing persisted to
    // corrupt, so they are exempt from the check.
    if (ctl.config().integrityMac && s.cipher != nullptr)
        s.mac = src.persistedMac(line_addr);
    return s;
}

RecoveredImage::VerifiedLine
RecoveredImage::decideLine(Addr line_addr, const StoredLine &s,
                           std::uint64_t tag) const
{
    const bool encrypted = ctl.design() != DesignPoint::NoEncryption;
    VerifiedLine v;

    if (s.cipher == nullptr) {
        // A cell that was never written holds the all-zero plaintext
        // encrypted at counter 0, and no MAC. At stored counter 0 it
        // decrypts back to zeros; any other stored counter turns it
        // into garbage (equation 4).
        if (encrypted && s.counter != 0) {
            v.plain = ctl.engine().decrypt(
                line_addr, s.counter,
                ctl.engine().encrypt(line_addr, 0, LineData{}));
        }
        return v;
    }
    const LineData &cipher_bytes = *s.cipher;
    std::uint64_t counter = s.counter;

    // Verify before trusting: when integrity metadata is persisted,
    // the stored MAC must accept the (stored counter, ciphertext)
    // pair.
    if (ctl.config().integrityMac) {
        // The line's level-0 tree node, looked up only on the two
        // paths that consult it.
        auto treeNode = [&]() -> const std::uint64_t * {
            return !treeArmed ? nullptr
                : src.persistedTreeNode(0, line_addr / lineBytes);
        };
        if (s.mac != nullptr && tag != *s.mac) {
            v.detected = true;
            // Osiris-style repair: the true counter is usually near
            // the stored one (a rolled-back counter word, or a torn
            // pair whose ciphertext is a few generations off), so
            // trial-verify a bounded window around the stored value.
            // Every trial shares the line's MAC prefix, so each costs
            // one AES block. The search is multi-match aware — the MAC
            // is truncated, so two window counters can collide; when
            // they do, the integrity tree's level-0 node arbitrates,
            // and with no tree to ask the line is quarantined rather
            // than repaired to a guess (see repairCounterWindow).
            const crypto::CtrEngine::MacPrefix prefix =
                ctl.engine().macPrefix(line_addr, cipher_bytes);
            auto verifies = [&](std::uint64_t c) {
                return ctl.engine().macFinish(prefix, c) == *s.mac;
            };
            std::function<bool(std::uint64_t)> confirms;
            if (const std::uint64_t *node = treeNode())
                confirms = [node](std::uint64_t c) {
                    return treeSlotHash(c) == *node;
                };
            std::optional<std::uint64_t> fixed = repairCounterWindow(
                counter, ctl.config().macRepairWindow, verifies,
                confirms);
            if (!fixed) {
                // Unrepairable (or ambiguous): quarantine — the line
                // reads as zeros, and recovery reports it rather than
                // consuming garbage. An undo-log rollback may yet
                // restore it.
                v.quarantined = true;
                return v;
            }
            counter = *fixed;
            v.repaired = true;
        } else if (treeMismatch) {
            // The MAC verified, but does the tree accept the stored
            // counter? If not, a stale-but-valid triple was
            // re-installed whole — a replay, which no per-line check
            // can see. Quarantine it like a corruption; an intact log
            // backup may still restore the line.
            const std::uint64_t *node = treeNode();
            if (node != nullptr && treeSlotHash(counter) != *node) {
                v.replayed = true;
                v.quarantined = true;
                return v;
            }
        }
    }

    if (!encrypted) {
        v.plain = cipher_bytes;
        return v;
    }

    // Equation 3: plaintext = OTP(addr, stored counter) xor ciphertext.
    // If the stored counter does not match the counter the data was
    // encrypted with, this produces garbage (equation 4).
    v.plain = ctl.engine().decrypt(line_addr, counter, cipher_bytes);
    return v;
}

RecoveredImage::VerifiedLine
RecoveredImage::verifyLine(Addr line_addr) const
{
    const CounterLine ctrs = ctl.design() == DesignPoint::NoEncryption
        ? CounterLine{}
        : src.persistedCounters(ctl.counterLineAddr(line_addr));
    const StoredLine s = storedLine(line_addr, ctrs);
    const std::uint64_t tag = s.mac == nullptr ? 0
        : ctl.engine().lineMac(line_addr, s.counter, *s.cipher);
    return decideLine(line_addr, s, tag);
}

std::vector<RecoveredImage::VerifiedLine>
RecoveredImage::verifyShard(Addr base, std::size_t lo,
                            std::size_t hi) const
{
    const std::size_t n = hi - lo;
    const bool encrypted = ctl.design() != DesignPoint::NoEncryption;

    // Gather every line's stored inputs. Consecutive data lines share
    // a counter line, so each covering counter line is fetched once.
    std::vector<StoredLine> stored(n);
    std::vector<Addr> mac_addrs;
    std::vector<std::uint64_t> mac_counters;
    std::vector<const LineData *> mac_ciphers;
    mac_addrs.reserve(n);
    mac_counters.reserve(n);
    mac_ciphers.reserve(n);
    CounterLine ctrs{};
    Addr ctrs_addr = 0;
    bool have_ctrs = false;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr line_addr = base + (lo + i) * lineBytes;
        if (encrypted) {
            const Addr ctr_addr = ctl.counterLineAddr(line_addr);
            if (!have_ctrs || ctr_addr != ctrs_addr) {
                ctrs = src.persistedCounters(ctr_addr);
                ctrs_addr = ctr_addr;
                have_ctrs = true;
            }
        }
        stored[i] = storedLine(line_addr, ctrs);
        if (stored[i].mac != nullptr) {
            mac_addrs.push_back(line_addr);
            mac_counters.push_back(stored[i].counter);
            mac_ciphers.push_back(stored[i].cipher);
        }
    }

    // Every MAC the shard checks, eight lanes at a time.
    std::vector<std::uint64_t> tags(mac_addrs.size());
    ctl.engine().lineMacs(mac_addrs.data(), mac_counters.data(),
                          mac_ciphers.data(), tags.data(),
                          mac_addrs.size());

    // Decide each line exactly as verifyLine() would.
    std::vector<VerifiedLine> out;
    out.reserve(n);
    std::size_t next_tag = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t tag =
            stored[i].mac == nullptr ? 0 : tags[next_tag++];
        out.push_back(
            decideLine(base + (lo + i) * lineBytes, stored[i], tag));
    }
    return out;
}

LineData &
RecoveredImage::install(Addr line_addr, const VerifiedLine &v) const
{
    detected += v.detected;
    repaired += v.repaired;
    replays += v.replayed;
    if (v.quarantined)
        quarantine[line_addr] = true;
    auto [line, inserted] = cache.tryEmplace(line_addr);
    if (inserted)
        *line = v.plain;
    return *line;
}

void
RecoveredImage::preScan(Addr base, Addr end, WorkPool *,
                        RecoveryCrashInjector *crash) const
{
    const std::size_t nlines =
        static_cast<std::size_t>((end - base) / lineBytes);

    // verifyShard() is pure, so installing each shard before verifying
    // the next decides every line as verifying the whole range first
    // would, while holding only one shard's verdicts at a time.
    constexpr std::size_t shardLines = 256;
    for (std::size_t lo = 0; lo < nlines; lo += shardLines) {
        const std::vector<VerifiedLine> shard =
            verifyShard(base, lo, std::min(nlines, lo + shardLines));
        for (std::size_t i = 0; i < shard.size(); ++i) {
            install(base + (lo + i) * lineBytes, shard[i]);
            if (crash != nullptr)
                crash->onEvent(RecoveryEvent::PreScanLine);
        }
    }
}

LineData &
RecoveredImage::cachedLine(Addr line_addr) const
{
    if (LineData *line = cache.find(line_addr))
        return *line;
    return install(line_addr, verifyLine(line_addr));
}

void
RecoveredImage::read(Addr addr, unsigned size, void *out) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        Addr line_addr = lineAlign(addr);
        unsigned offset = static_cast<unsigned>(addr - line_addr);
        unsigned chunk = std::min(size, lineBytes - offset);
        std::memcpy(dst, cachedLine(line_addr).data() + offset, chunk);
        dst += chunk;
        addr += chunk;
        size -= chunk;
    }
}

void
RecoveredImage::write(Addr addr, const void *data, unsigned size)
{
    const auto *src = static_cast<const std::uint8_t *>(data);
    while (size > 0) {
        Addr line_addr = lineAlign(addr);
        unsigned offset = static_cast<unsigned>(addr - line_addr);
        unsigned chunk = std::min(size, lineBytes - offset);
        std::memcpy(cachedLine(line_addr).data() + offset, src, chunk);
        src += chunk;
        addr += chunk;
        size -= chunk;
    }
}

LineData
RecoveredImage::line(Addr line_addr) const
{
    return cachedLine(lineAlign(line_addr));
}

std::vector<Addr>
RecoveredImage::quarantinedLineAddrs() const
{
    std::vector<Addr> out;
    out.reserve(quarantine.size());
    quarantine.forEach([&out](Addr addr, bool) { out.push_back(addr); });
    return out;
}

RecoveryEngine::RecoveryEngine(const PersistImage &src,
                               const MemController &ctl)
    : src(src), ctl(ctl)
{
}

const char *
recoveryFailureName(RecoveryFailure reason)
{
    switch (reason) {
      case RecoveryFailure::None: return "none";
      case RecoveryFailure::LogHeaderUnreadable:
        return "log-header-unreadable";
      case RecoveryFailure::TornCommitFlag: return "torn-commit-flag";
      case RecoveryFailure::LogDescriptorInvalid:
        return "log-descriptor-invalid";
      case RecoveryFailure::QuarantinedLines:
        return "quarantined-lines";
      case RecoveryFailure::StructureInvalid:
        return "structure-invalid";
      case RecoveryFailure::NoCommittedPrefix:
        return "no-committed-prefix";
    }
    return "?";
}

void
RecoveryEngine::persistLine(const RecoveredImage &image, Addr line_addr,
                            PersistImage &out) const
{
    const LineData plain = image.line(line_addr);
    const bool encrypted = ctl.design() != DesignPoint::NoEncryption;

    // Re-encrypt at the line's *stored* counter: the counter store is
    // never advanced by recovery, so a re-run derives the same
    // (counter, ciphertext, MAC) triple and rewrites identical bytes
    // — the property the interrupted-recovery idempotence gate pins.
    std::uint64_t counter = 0;
    LineData cipher = plain;
    if (encrypted) {
        counter = src.persistedCounters(ctl.counterLineAddr(line_addr))
                      [ctl.counterSlot(line_addr)];
        cipher = ctl.engine().encrypt(line_addr, counter, plain);
    }
    out.drainData(line_addr, cipher, counter);
    if (ctl.config().integrityMac)
        out.drainMac(line_addr,
                     ctl.engine().lineMac(line_addr, counter, cipher));
    // Refresh the line's level-0 tree node to match the stored counter
    // the restoration re-encrypted at. Without this, a replayed line
    // restored by rollback keeps tree evidence against its (now
    // legitimate) content, and a recovery re-run after an interrupted
    // tree reconstruction would re-quarantine it with the log already
    // invalidated — breaking idempotence.
    if (ctl.config().integrityTree)
        out.drainTreeNode(0, line_addr / lineBytes,
                          treeSlotHash(counter));
}

RecoveryReport
RecoveryEngine::recover(const Workload &workload,
                        const std::vector<std::uint64_t> *digests_in,
                        const RecoveryOptions &opt)
{
    RecoveryReport report;
    RecoveredImage image(src, ctl);

    // Integrity pre-scan: verify every region line's MAC up front, so
    // no corruption can hide in a line the log/validate/digest pipeline
    // happens not to read. Mismatches repair or quarantine here; the
    // later stages then run on a verified (or explicitly degraded)
    // image.
    if (ctl.config().integrityMac) {
        image.preScan(workload.regionBase(), workload.regionEnd(),
                      nullptr, opt.crash);

        // Degraded write-back (the resume lifecycle): tombstone every
        // quarantined line before any step can exit — replace its
        // stored MAC with a value derived from, but never equal to,
        // the MAC of the stored triple. This is the in-model equivalent
        // of a persistent bad-line marker: every later recovery of
        // this image re-detects the line (the tombstone MAC verifies at
        // no counter in the repair window) and re-quarantines it, so a
        // quarantine can never silently evaporate between soak cycles,
        // whichever step this recovery stops at. Without the
        // tombstone, a *replayed* quarantined line would do exactly
        // that: its stale triple is self-consistent, and once a tree
        // rebuild (step 1c, or the next power failure's flush) blesses
        // the stored counters the replay evidence is gone — the next
        // cycle would silently read stale plaintext. A line a rollback
        // later restores gets a fresh MAC from persistLine. The write
        // is deterministic for a fixed image, so interrupted attempts
        // rewrite identical bytes.
        if (opt.degraded && opt.commitTo != nullptr) {
            constexpr std::uint64_t kTombstone = 0x51A5'0BAD'51A5'0BADull;
            for (Addr qa : image.quarantinedLineAddrs()) {
                const LineData *cipher = src.persistedLine(qa);
                if (cipher == nullptr)
                    continue; // never-drained lines carry no MAC
                std::uint64_t counter =
                    src.persistedCounters(ctl.counterLineAddr(qa))
                        [ctl.counterSlot(qa)];
                // commitTo may be src itself: the last read through
                // cipher comes before drainMac writes (and, if a copy
                // shares it, replaces) the line's page.
                const std::uint64_t mac =
                    ctl.engine().lineMac(qa, counter, *cipher) ^ kTombstone;
                opt.commitTo->drainMac(qa, mac);
            }
        }
    }

    runRecovery(image, workload, digests_in, opt, report);

    // Corruption accounting. A detected line counts as repaired
    // whether the counter-window search fixed it or a rollback
    // restored it from an intact backup — whatever is *still*
    // quarantined at the end is unrecoverable. Replayed lines are
    // quarantined too, so they join the same arithmetic.
    report.detectedCorruptions = image.detectedCorruptions();
    report.replaysDetected = image.replaysDetected();
    report.unrecoverableLines = image.quarantinedCount();
    report.repairedLines = report.detectedCorruptions
        + report.replaysDetected - report.unrecoverableLines;
    report.quarantinedLines = image.quarantinedLineAddrs();
    return report;
}

void
RecoveryEngine::runRecovery(RecoveredImage &image,
                            const Workload &workload,
                            const std::vector<std::uint64_t> *digests_in,
                            const RecoveryOptions &opt,
                            RecoveryReport &report) const
{
    const LogLayout &log = workload.log();

    auto fail = [&report](RecoveryFailure reason, std::string detail) {
        report.reason = reason;
        report.detail = std::move(detail);
    };

    // --- Step 1: examine the undo log header -------------------------
    std::uint64_t magic = image.readU64(log.magicAddr());
    if (magic != LogLayout::kMagic) {
        return fail(RecoveryFailure::LogHeaderUnreadable,
                    image.isQuarantined(log.magicAddr())
                        ? "log header quarantined (unrepairable "
                          "corruption on the header line)"
                        : "log header undecryptable (data/counter "
                          "out of sync on the header line)");
    }

    std::uint64_t valid = image.readU64(log.validAddr());
    if (valid == LogLayout::kValid) {
        std::uint64_t txn_id = image.readU64(log.txnIdAddr());
        std::uint64_t count = image.readU64(log.countAddr());
        std::uint64_t stored_sum = image.readU64(log.checksumAddr());

        if (count <= log.maxLines
            && logChecksum(image, log, txn_id, count) == stored_sum) {
            // Complete backup: the transaction may have mutated data in
            // place; roll every logged line back.
            for (unsigned i = 0; i < count; ++i) {
                Addr target = image.readU64(log.descAddr(i));
                if (!workload.inRegion(target)
                    || !isLineAligned(target)) {
                    return fail(RecoveryFailure::LogDescriptorInvalid,
                                "log descriptor outside the region");
                }
                // Read the backup *before* consulting the quarantine:
                // the read is what lazily verifies the backup line and
                // quarantines it if it is corrupt. (Asking first and
                // reading second let the first touch of a corrupt
                // backup slip past the check, and the stale verdict
                // then wrongly lifted the target's quarantine.)
                LineData backup = image.line(log.backupAddr(i));
                bool backup_bad =
                    image.isQuarantined(log.backupAddr(i));
                if (!backup_bad) {
                    // Rolling an intact backup over a quarantined
                    // target restores it.
                    image.write(target, backup.data(), lineBytes);
                    image.clearQuarantine(target);
                    if (opt.commitTo != nullptr)
                        persistLine(image, target, *opt.commitTo);
                }
                // A quarantined *backup* restores nothing: the target
                // keeps its own (possibly quarantined) content, and
                // nothing is persisted — zeros must never land on
                // media under a fresh MAC.
                if (opt.crash != nullptr)
                    opt.crash->onEvent(RecoveryEvent::RollbackWrite);
            }
            report.rolledBack = true;

            if (opt.commitTo != nullptr) {
                // Write-back epilogue: invalidate the log so a re-run
                // (or a later crash) does not redo the rollback. The
                // invariant either way: redoing it would rewrite the
                // very same bytes.
                if (opt.crash != nullptr)
                    opt.crash->onEvent(RecoveryEvent::BeforeValidClear);
                std::uint64_t inval = LogLayout::kInvalid;
                image.write(log.validAddr(), &inval, sizeof(inval));
                persistLine(image, lineAlign(log.validAddr()),
                            *opt.commitTo);
                if (opt.crash != nullptr)
                    opt.crash->onEvent(RecoveryEvent::AfterValidClear);
            }
        }
        // Checksum mismatch: the prepare stage had not finished, so the
        // in-place data was never touched; ignore the log.
    } else if (valid != LogLayout::kInvalid) {
        return fail(RecoveryFailure::TornCommitFlag,
                    "log valid flag holds garbage (torn "
                    "counter-atomic commit write)");
    }

    // --- Step 1b: quarantine gate --------------------------------------
    // Detected-but-unrepairable lines survive to here only if the
    // rollback could not restore them. By default, degrade gracefully:
    // report the loss precisely instead of validating a region known
    // to hold zeroed-out garbage. Degraded mode keeps going with the
    // quarantined lines reading as zeros, tombstoned after the
    // pre-scan.
    if (image.quarantinedCount() > 0 && !opt.degraded) {
        return fail(RecoveryFailure::QuarantinedLines,
                    std::to_string(image.quarantinedCount())
                        + " unrepairable corrupt line(s) quarantined");
    }

    // --- Step 1c: integrity-tree reconstruction ------------------------
    // Every line in the region now verifies (the gate above) or
    // carries a tombstoned MAC (degraded mode), so the persisted tree
    // nodes backing the region can be rebuilt from the counter store
    // — leaves for this region's counter lines only,
    // interior levels from the *persisted* level-1 nodes, root last.
    // Regional scope matters in write-back mode: a global rebuild
    // would bless another, not-yet-recovered region's replayed slots
    // and erase the evidence its own recovery needs. Root-last keeps
    // an interrupted reconstruction detectable and re-runnable.
    if (opt.commitTo != nullptr && ctl.config().integrityTree
        && image.treeRootMismatch()) {
        const Addr ctr_lo = ctl.counterLineAddr(workload.regionBase());
        const Addr ctr_hi =
            ctl.counterLineAddr(workload.regionEnd() - lineBytes)
            + lineBytes;
        rebuildTree(*opt.commitTo, ctl.config().counterRegionBase,
                    ctr_lo, ctr_hi, [&opt] {
                        if (opt.crash != nullptr)
                            opt.crash->onEvent(
                                RecoveryEvent::TreeRebuildLeaf);
                    });
    }

    // --- Step 2: structural invariants --------------------------------
    ValidationResult validation = workload.validate(image);
    if (!validation.ok) {
        return fail(RecoveryFailure::StructureInvalid,
                    "structure invalid after recovery: "
                        + validation.why);
    }

    // --- Step 3: committed-prefix check -------------------------------
    // The digest is computed whenever recovery reaches a structurally
    // valid image — it is the convergence witness of the
    // crash-during-recovery idempotence gate even when no committed
    // log exists to search.
    std::uint64_t recovered_digest = workload.digest(image);
    report.digestComputed = true;
    report.recoveredDigest = recovered_digest;

    const auto &digests =
        digests_in != nullptr ? *digests_in : workload.digests();
    if (!digests.empty()) {
        report.digestChecked = true;
        bool matched = false;
        // Search newest-first: the recovered state is usually at or
        // near the last issued transaction.
        for (std::size_t k = digests.size(); k-- > 0;) {
            if (digests[k] == recovered_digest) {
                report.committedTxns = k;
                matched = true;
                break;
            }
        }
        if (!matched) {
            return fail(RecoveryFailure::NoCommittedPrefix,
                        "recovered state matches no committed prefix");
        }
    }

    report.consistent = true;
    report.degradedConsistent =
        opt.degraded && image.quarantinedCount() > 0;
}

} // namespace cnvm
