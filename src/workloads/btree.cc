#include "workloads/btree.hh"

#include <functional>

#include "common/hash.hh"
#include "workloads/mem_io.hh"
#include "common/logging.hh"

namespace cnvm
{

BTreeWorkload::BTreeWorkload(const WorkloadParams &params)
    : Workload(params)
{
}

void
BTreeWorkload::doSetup()
{
    metaAddr = allocStatic(lineBytes);
    // Nodes are two lines and node-aligned; the pool base must be too
    // (per-core regions are only line-aligned).
    Addr pool_base = allocStatic(0, nodeBytes);
    alloc = std::make_unique<PersistentAllocator>(cursorAddr(), pool_base,
                                                  regionEnd());
    alloc->initialize([this](Addr a, const void *d, unsigned s) {
        initWrite(a, d, s);
    });

    // Initial empty root: a leaf with zero keys, allocated statically.
    Addr root = pool_base;
    initWriteU64(cursorAddr(), pool_base + nodeBytes);
    initWriteU64(nodeMeta(root), packMeta(true, 0));
    initWriteU64(rootPtrAddr(), root);

    // Pre-populate so the measured transactions traverse a deep tree.
    std::uint64_t pool_nodes = (regionEnd() - pool_base) / nodeBytes;
    std::uint64_t target = static_cast<std::uint64_t>(
        pool_nodes * params.setupFill) * (maxKeys / 2);
    SetupIo io(shadow, regionBase(), regionEnd(), cursorAddr(),
               regionEnd());
    Random setup_rng(params.seed ^ 0xb7ee111ull);
    for (std::uint64_t i = 0; i < target; ++i)
        insert(io, setup_rng.next());
    io.flush([this](Addr a, const std::uint8_t *d) {
        initWrite(a, d, lineBytes);
    });
}

Addr
BTreeWorkload::newNode(MemIo &io, bool leaf)
{
    Addr node = io.allocNode(nodeBytes, nodeBytes);
    cnvm_assert(node != 0); // guaranteed by the pool-low precheck
    io.writeU64(nodeMeta(node), packMeta(leaf, 0));
    return node;
}

void
BTreeWorkload::splitChild(MemIo &io, Addr parent, unsigned index)
{
    Addr y = io.readU64(nodeChild(parent, index));
    std::uint64_t y_meta = io.readU64(nodeMeta(y));
    bool leaf = metaLeaf(y_meta);
    cnvm_assert(metaN(y_meta) == maxKeys);

    Addr z = newNode(io, leaf);

    // Upper minDegree-1 keys (and children) move to the new sibling.
    for (unsigned i = 0; i < minDegree - 1; ++i) {
        io.writeU64(nodeKey(z, i),
                    io.readU64(nodeKey(y, i + minDegree)));
    }
    if (!leaf) {
        for (unsigned i = 0; i < minDegree; ++i) {
            io.writeU64(nodeChild(z, i),
                        io.readU64(nodeChild(y, i + minDegree)));
        }
    }
    io.writeU64(nodeMeta(z), packMeta(leaf, minDegree - 1));
    io.writeU64(nodeMeta(y), packMeta(leaf, minDegree - 1));

    // Shift the parent's keys/children right of `index` and hoist the
    // median key.
    std::uint64_t p_meta = io.readU64(nodeMeta(parent));
    unsigned pn = metaN(p_meta);
    for (unsigned i = pn; i > index; --i) {
        io.writeU64(nodeKey(parent, i),
                    io.readU64(nodeKey(parent, i - 1)));
        io.writeU64(nodeChild(parent, i + 1),
                    io.readU64(nodeChild(parent, i)));
    }
    io.writeU64(nodeKey(parent, index),
                io.readU64(nodeKey(y, minDegree - 1)));
    io.writeU64(nodeChild(parent, index + 1), z);
    io.writeU64(nodeMeta(parent), packMeta(metaLeaf(p_meta), pn + 1));
}

void
BTreeWorkload::insert(MemIo &io, std::uint64_t key)
{
    Addr root = io.readU64(rootPtrAddr());
    if (metaN(io.readU64(nodeMeta(root))) == maxKeys) {
        Addr s = newNode(io, false);
        io.writeU64(nodeChild(s, 0), root);
        splitChild(io, s, 0);
        io.writeU64(rootPtrAddr(), s);
        root = s;
    }

    Addr x = root;
    for (;;) {
        std::uint64_t x_meta = io.readU64(nodeMeta(x));
        unsigned n = metaN(x_meta);

        if (metaLeaf(x_meta)) {
            // Shift larger keys right, insert in place.
            unsigned i = n;
            while (i > 0 && io.readU64(nodeKey(x, i - 1)) > key) {
                io.writeU64(nodeKey(x, i), io.readU64(nodeKey(x, i - 1)));
                --i;
            }
            io.writeU64(nodeKey(x, i), key);
            io.writeU64(nodeMeta(x), packMeta(true, n + 1));
            return;
        }

        unsigned i = 0;
        while (i < n && key > io.readU64(nodeKey(x, i)))
            ++i;
        Addr c = io.readU64(nodeChild(x, i));
        if (metaN(io.readU64(nodeMeta(c))) == maxKeys) {
            splitChild(io, x, i);
            if (key > io.readU64(nodeKey(x, i)))
                ++i;
            c = io.readU64(nodeChild(x, i));
        }
        x = c;
    }
}

void
BTreeWorkload::searchOnly(MemIo &io, std::uint64_t key)
{
    Addr x = io.readU64(rootPtrAddr());
    for (;;) {
        std::uint64_t x_meta = io.readU64(nodeMeta(x));
        unsigned n = metaN(x_meta);
        unsigned i = 0;
        while (i < n && key > io.readU64(nodeKey(x, i)))
            ++i;
        if (i < n && io.readU64(nodeKey(x, i)) == key)
            return;
        if (metaLeaf(x_meta))
            return;
        x = io.readU64(nodeChild(x, i));
    }
}

void
BTreeWorkload::buildTxn(UndoTx &tx)
{
    TxIo io(tx, *alloc);
    for (unsigned k = 0; k < params.batch; ++k) {
        std::uint64_t key = rng.next();
        if (!poolLow && alloc->remaining(shadow) < 64 * nodeBytes)
            poolLow = true;
        if (poolLow)
            searchOnly(io, key);
        else
            insert(io, key);
    }
}

bool
BTreeWorkload::nodeAddrValid(Addr node, Addr cursor) const
{
    return node >= alloc->poolStart() && node + nodeBytes <= cursor
        && node % nodeBytes == 0;
}

std::uint64_t
BTreeWorkload::foldInOrder(const ByteReader &reader, Addr node,
                           std::uint64_t state, std::uint64_t &budget,
                           Addr cursor) const
{
    if (budget == 0)
        return fnv1aU64(0xbadbadbad, state);
    --budget;
    if (!nodeAddrValid(node, cursor))
        return fnv1aU64(0xbadbadbad, state);

    std::uint64_t meta = reader.readU64(nodeMeta(node));
    unsigned n = metaN(meta);
    if (n > maxKeys)
        return fnv1aU64(0xbadbadbad, state);

    for (unsigned i = 0; i < n; ++i) {
        if (!metaLeaf(meta)) {
            state = foldInOrder(reader,
                                reader.readU64(nodeChild(node, i)),
                                state, budget, cursor);
        }
        state = fnv1aU64(reader.readU64(nodeKey(node, i)), state);
    }
    if (!metaLeaf(meta)) {
        state = foldInOrder(reader, reader.readU64(nodeChild(node, n)),
                            state, budget, cursor);
    }
    return state;
}

std::uint64_t
BTreeWorkload::digest(const ByteReader &reader) const
{
    Addr cursor = reader.readU64(cursorAddr());
    Addr root = reader.readU64(rootPtrAddr());
    std::uint64_t budget =
        (regionEnd() - alloc->poolStart()) / nodeBytes + 1;
    return foldInOrder(reader, root, fnv1aU64(0x42), budget, cursor);
}

std::uint64_t
BTreeWorkload::keyCount(const ByteReader &reader) const
{
    Addr cursor = reader.readU64(cursorAddr());
    std::uint64_t count = 0;
    std::uint64_t budget =
        (regionEnd() - alloc->poolStart()) / nodeBytes + 1;

    std::function<void(Addr)> walk = [&](Addr node) {
        if (budget == 0 || !nodeAddrValid(node, cursor))
            return;
        --budget;
        std::uint64_t meta = reader.readU64(nodeMeta(node));
        unsigned n = std::min(metaN(meta), maxKeys);
        count += n;
        if (!metaLeaf(meta)) {
            for (unsigned i = 0; i <= n; ++i)
                walk(reader.readU64(nodeChild(node, i)));
        }
    };
    walk(reader.readU64(rootPtrAddr()));
    return count;
}

ValidationResult
BTreeWorkload::validate(const ByteReader &reader) const
{
    Addr cursor = reader.readU64(cursorAddr());
    if (cursor < alloc->poolStart() || cursor > regionEnd()
        || cursor % nodeBytes != 0)
        return ValidationResult::fail("allocator cursor corrupted");

    std::uint64_t allocated = (cursor - alloc->poolStart()) / nodeBytes;
    std::uint64_t visited = 0;
    int leaf_depth = -1;
    std::string why;

    // Recursive structural check: key ordering, bounds, uniform leaf
    // depth, node counts. Defensive against corrupted pointers.
    std::function<bool(Addr, std::uint64_t, std::uint64_t, bool, bool,
                       int)> check =
        [&](Addr node, std::uint64_t lo, std::uint64_t hi, bool has_lo,
            bool has_hi, int depth) -> bool {
        if (!nodeAddrValid(node, cursor)) {
            why = "node pointer out of pool";
            return false;
        }
        if (++visited > allocated) {
            why = "more reachable nodes than allocated";
            return false;
        }
        std::uint64_t meta = reader.readU64(nodeMeta(node));
        unsigned n = metaN(meta);
        if (n > maxKeys) {
            why = "node key count out of range";
            return false;
        }
        for (unsigned i = 0; i < n; ++i) {
            std::uint64_t key = reader.readU64(nodeKey(node, i));
            if (i > 0 && key < reader.readU64(nodeKey(node, i - 1))) {
                why = "keys out of order within node";
                return false;
            }
            if ((has_lo && key < lo) || (has_hi && key > hi)) {
                why = "key violates subtree bounds";
                return false;
            }
        }
        if (metaLeaf(meta)) {
            if (leaf_depth == -1)
                leaf_depth = depth;
            else if (leaf_depth != depth) {
                why = "leaves at differing depths";
                return false;
            }
            return true;
        }
        for (unsigned i = 0; i <= n; ++i) {
            std::uint64_t clo = lo, chi = hi;
            bool h_lo = has_lo, h_hi = has_hi;
            if (i > 0) {
                clo = reader.readU64(nodeKey(node, i - 1));
                h_lo = true;
            }
            if (i < n) {
                chi = reader.readU64(nodeKey(node, i));
                h_hi = true;
            }
            if (!check(reader.readU64(nodeChild(node, i)), clo, chi,
                       h_lo, h_hi, depth + 1))
                return false;
        }
        return true;
    };

    Addr root_addr = reader.readU64(rootPtrAddr());
    if (!check(root_addr, 0, 0, false, false, 0))
        return ValidationResult::fail(why);
    if (visited != allocated)
        return ValidationResult::fail("unreachable allocated nodes");
    return ValidationResult::pass();
}

} // namespace cnvm
