#include "workloads/hash_table.hh"

#include "common/hash.hh"
#include "common/intmath.hh"
#include "common/logging.hh"
#include "workloads/mem_io.hh"

namespace cnvm
{

HashTableWorkload::HashTableWorkload(const WorkloadParams &params)
    : Workload(params)
{
}

std::uint64_t
HashTableWorkload::bucketOf(std::uint64_t key) const
{
    return fnv1aU64(key) & (buckets - 1);
}

void
HashTableWorkload::doSetup()
{
    // Size the bucket array at roughly 1/8 of the free space (power of
    // two), leaving the rest as the node pool.
    std::uint64_t avail = regionEnd() - allocStatic(0) - lineBytes;
    std::uint64_t want = avail / 8 / 8; // bucket pointers
    buckets = std::uint64_t(1) << floorLog2(std::max<std::uint64_t>(
        want, 8));

    metaAddr = allocStatic(lineBytes);
    bucketsBase = allocStatic(buckets * 8);
    Addr pool_base = allocStatic(0);
    alloc = std::make_unique<PersistentAllocator>(metaAddr, pool_base,
                                                  regionEnd());

    alloc->initialize([this](Addr a, const void *d, unsigned s) {
        initWrite(a, d, s);
    });
    for (std::uint64_t b = 0; b < buckets; ++b)
        initWriteU64(bucketAddr(b), 0);

    // Pre-populate so the measured inserts walk realistic chains.
    std::uint64_t pool_nodes =
        (regionEnd() - pool_base) / lineBytes;
    std::uint64_t target = static_cast<std::uint64_t>(
        pool_nodes * params.setupFill);
    SetupIo io(shadow, regionBase(), regionEnd(), metaAddr, regionEnd());
    Random setup_rng(params.seed ^ 0x4a54111ull);
    for (std::uint64_t i = 0; i < target; ++i) {
        std::uint64_t key = setup_rng.next();
        Addr bucket = bucketAddr(bucketOf(key));
        Addr head = io.readU64(bucket);
        Addr cursor = io.readU64(metaAddr);
        if (cursor + lineBytes > regionEnd())
            break;
        io.writeU64(metaAddr, cursor + lineBytes);
        io.writeU64(keyAddr(cursor), key);
        io.writeU64(nextAddr(cursor), head);
        io.writeU64(bucket, cursor);
    }
    io.flush([this](Addr a, const std::uint8_t *d) {
        initWrite(a, d, lineBytes);
    });
}

void
HashTableWorkload::buildTxn(UndoTx &tx)
{
    for (unsigned k = 0; k < params.batch; ++k) {
        std::uint64_t key = rng.next();
        Addr bucket = bucketAddr(bucketOf(key));
        Addr head = tx.readU64(bucket);

        // Duplicate-check walk (bounded): generates the pointer-chase
        // reads a real insert performs.
        Addr node = head;
        unsigned walked = 0;
        bool duplicate = false;
        while (node != 0 && walked < 32) {
            if (tx.readU64(keyAddr(node)) == key) {
                duplicate = true;
                break;
            }
            node = tx.readU64(nextAddr(node));
            ++walked;
        }
        if (duplicate)
            continue;

        Addr fresh = alloc->alloc(tx, lineBytes);
        if (fresh == 0)
            continue; // pool exhausted: the walk above still happened
        tx.writeU64(keyAddr(fresh), key);
        tx.writeU64(nextAddr(fresh), head);
        tx.writeU64(bucket, fresh);
    }
}

bool
HashTableWorkload::nodeAddrValid(Addr node, Addr cursor) const
{
    return node >= alloc->poolStart() && node + lineBytes <= cursor
        && isLineAligned(node);
}

std::uint64_t
HashTableWorkload::digest(const ByteReader &reader) const
{
    Addr cursor = reader.readU64(metaAddr);
    std::uint64_t state = fnv1aU64(cursor);
    std::uint64_t max_nodes =
        (regionEnd() - alloc->poolStart()) / lineBytes + 1;

    for (std::uint64_t b = 0; b < buckets; ++b) {
        Addr node = reader.readU64(bucketAddr(b));
        std::uint64_t walked = 0;
        while (node != 0 && walked <= max_nodes) {
            if (!nodeAddrValid(node, cursor)) {
                state = fnv1aU64(0xbadbadbad, state);
                break;
            }
            state = fnv1aU64(reader.readU64(keyAddr(node)), state);
            node = reader.readU64(nextAddr(node));
            ++walked;
        }
        state = fnv1aU64(b ^ walked, state);
    }
    return state;
}

ValidationResult
HashTableWorkload::validate(const ByteReader &reader) const
{
    Addr cursor = reader.readU64(metaAddr);
    if (cursor < alloc->poolStart() || cursor > regionEnd()
        || cursor % lineBytes != 0)
        return ValidationResult::fail("allocator cursor corrupted");

    std::uint64_t allocated = (cursor - alloc->poolStart()) / lineBytes;
    std::uint64_t reachable = 0;

    for (std::uint64_t b = 0; b < buckets; ++b) {
        Addr node = reader.readU64(bucketAddr(b));
        std::uint64_t walked = 0;
        while (node != 0) {
            if (!nodeAddrValid(node, cursor))
                return ValidationResult::fail("chain pointer out of pool");
            if (++walked > allocated)
                return ValidationResult::fail("chain cycle detected");
            std::uint64_t key = reader.readU64(keyAddr(node));
            if (bucketOf(key) != b)
                return ValidationResult::fail("key hashed to wrong bucket");
            node = reader.readU64(nextAddr(node));
        }
        reachable += walked;
    }

    if (reachable != allocated)
        return ValidationResult::fail(
            "allocated node count does not match reachable nodes");
    return ValidationResult::pass();
}

} // namespace cnvm
