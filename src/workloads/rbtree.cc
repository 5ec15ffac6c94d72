#include "workloads/rbtree.hh"

#include <functional>

#include "common/hash.hh"
#include "workloads/mem_io.hh"
#include "common/logging.hh"

namespace cnvm
{

RbTreeWorkload::RbTreeWorkload(const WorkloadParams &params)
    : Workload(params)
{
}

void
RbTreeWorkload::doSetup()
{
    metaAddr = allocStatic(lineBytes);
    Addr pool_base = allocStatic(0);
    alloc = std::make_unique<PersistentAllocator>(cursorAddr(), pool_base,
                                                  regionEnd());
    alloc->initialize([this](Addr a, const void *d, unsigned s) {
        initWrite(a, d, s);
    });
    initWriteU64(rootPtrAddr(), 0); // empty tree

    // Pre-populate: the measured transactions should traverse a deep,
    // memory-resident tree, not grow a tiny one from scratch.
    std::uint64_t pool_nodes =
        (regionEnd() - pool_base) / lineBytes;
    std::uint64_t target = static_cast<std::uint64_t>(
        pool_nodes * params.setupFill);
    SetupIo io(shadow, regionBase(), regionEnd(), cursorAddr(),
               regionEnd());
    Random setup_rng(params.seed ^ 0x5e7f111ull);
    for (std::uint64_t i = 0; i < target; ++i) {
        std::uint64_t key = setup_rng.next();
        insert(io, key);
    }
    io.flush([this](Addr a, const std::uint8_t *d) {
        initWrite(a, d, lineBytes);
    });
}

void
RbTreeWorkload::rotateLeft(MemIo &io, Addr x)
{
    Addr y = io.readU64(fRight(x));
    Addr yl = io.readU64(fLeft(y));

    io.writeU64(fRight(x), yl);
    if (yl != 0)
        io.writeU64(fParent(yl), x);

    Addr xp = io.readU64(fParent(x));
    io.writeU64(fParent(y), xp);
    if (xp == 0)
        io.writeU64(rootPtrAddr(), y);
    else if (io.readU64(fLeft(xp)) == x)
        io.writeU64(fLeft(xp), y);
    else
        io.writeU64(fRight(xp), y);

    io.writeU64(fLeft(y), x);
    io.writeU64(fParent(x), y);
}

void
RbTreeWorkload::rotateRight(MemIo &io, Addr x)
{
    Addr y = io.readU64(fLeft(x));
    Addr yr = io.readU64(fRight(y));

    io.writeU64(fLeft(x), yr);
    if (yr != 0)
        io.writeU64(fParent(yr), x);

    Addr xp = io.readU64(fParent(x));
    io.writeU64(fParent(y), xp);
    if (xp == 0)
        io.writeU64(rootPtrAddr(), y);
    else if (io.readU64(fRight(xp)) == x)
        io.writeU64(fRight(xp), y);
    else
        io.writeU64(fLeft(xp), y);

    io.writeU64(fRight(y), x);
    io.writeU64(fParent(x), y);
}

void
RbTreeWorkload::fixup(MemIo &io, Addr z)
{
    while (true) {
        Addr zp = io.readU64(fParent(z));
        if (zp == 0 || io.readU64(fColor(zp)) != red)
            break;
        Addr zpp = io.readU64(fParent(zp));
        cnvm_assert(zpp != 0); // a red node always has a parent

        if (zp == io.readU64(fLeft(zpp))) {
            Addr uncle = io.readU64(fRight(zpp));
            if (uncle != 0 && io.readU64(fColor(uncle)) == red) {
                io.writeU64(fColor(zp), black);
                io.writeU64(fColor(uncle), black);
                io.writeU64(fColor(zpp), red);
                z = zpp;
            } else {
                if (z == io.readU64(fRight(zp))) {
                    z = zp;
                    rotateLeft(io, z);
                    zp = io.readU64(fParent(z));
                    zpp = io.readU64(fParent(zp));
                }
                io.writeU64(fColor(zp), black);
                io.writeU64(fColor(zpp), red);
                rotateRight(io, zpp);
            }
        } else {
            Addr uncle = io.readU64(fLeft(zpp));
            if (uncle != 0 && io.readU64(fColor(uncle)) == red) {
                io.writeU64(fColor(zp), black);
                io.writeU64(fColor(uncle), black);
                io.writeU64(fColor(zpp), red);
                z = zpp;
            } else {
                if (z == io.readU64(fLeft(zp))) {
                    z = zp;
                    rotateRight(io, z);
                    zp = io.readU64(fParent(z));
                    zpp = io.readU64(fParent(zp));
                }
                io.writeU64(fColor(zp), black);
                io.writeU64(fColor(zpp), red);
                rotateLeft(io, zpp);
            }
        }
    }
    Addr root = io.readU64(rootPtrAddr());
    io.writeU64(fColor(root), black);
}

void
RbTreeWorkload::insert(MemIo &io, std::uint64_t key)
{
    Addr parent = 0;
    Addr cur = io.readU64(rootPtrAddr());
    while (cur != 0) {
        parent = cur;
        cur = key < io.readU64(fKey(cur)) ? io.readU64(fLeft(cur))
                                          : io.readU64(fRight(cur));
    }

    Addr z = io.allocNode(lineBytes, lineBytes);
    cnvm_assert(z != 0); // guaranteed by the pool-low precheck
    io.writeU64(fKey(z), key);
    io.writeU64(fLeft(z), 0);
    io.writeU64(fRight(z), 0);
    io.writeU64(fParent(z), parent);
    io.writeU64(fColor(z), red);

    if (parent == 0)
        io.writeU64(rootPtrAddr(), z);
    else if (key < io.readU64(fKey(parent)))
        io.writeU64(fLeft(parent), z);
    else
        io.writeU64(fRight(parent), z);

    fixup(io, z);
}

void
RbTreeWorkload::searchOnly(MemIo &io, std::uint64_t key)
{
    Addr cur = io.readU64(rootPtrAddr());
    while (cur != 0) {
        std::uint64_t k = io.readU64(fKey(cur));
        if (k == key)
            return;
        cur = key < k ? io.readU64(fLeft(cur)) : io.readU64(fRight(cur));
    }
}

void
RbTreeWorkload::buildTxn(UndoTx &tx)
{
    TxIo io(tx, *alloc);
    for (unsigned k = 0; k < params.batch; ++k) {
        std::uint64_t key = rng.next();
        // The shadow's cursor does not yet count the k one-line nodes
        // this transaction already allocated.
        if (!poolLow && alloc->remaining(shadow) < (8 + k) * lineBytes)
            poolLow = true;
        if (poolLow)
            searchOnly(io, key);
        else
            insert(io, key);
    }
}

bool
RbTreeWorkload::nodeAddrValid(Addr node, Addr cursor) const
{
    return node >= alloc->poolStart() && node + lineBytes <= cursor
        && isLineAligned(node);
}

std::uint64_t
RbTreeWorkload::digest(const ByteReader &reader) const
{
    Addr cursor = reader.readU64(cursorAddr());
    std::uint64_t budget =
        (regionEnd() - alloc->poolStart()) / lineBytes + 1;
    std::uint64_t state = fnv1aU64(0x52);

    std::function<void(Addr)> walk = [&](Addr node) {
        if (node == 0)
            return;
        if (budget == 0 || !nodeAddrValid(node, cursor)) {
            state = fnv1aU64(0xbadbadbad, state);
            return;
        }
        --budget;
        walk(reader.readU64(fLeft(node)));
        state = fnv1aU64(reader.readU64(fKey(node)), state);
        walk(reader.readU64(fRight(node)));
    };
    walk(reader.readU64(rootPtrAddr()));
    return state;
}

ValidationResult
RbTreeWorkload::validate(const ByteReader &reader) const
{
    Addr cursor = reader.readU64(cursorAddr());
    if (cursor < alloc->poolStart() || cursor > regionEnd()
        || cursor % lineBytes != 0)
        return ValidationResult::fail("allocator cursor corrupted");

    std::uint64_t allocated = (cursor - alloc->poolStart()) / lineBytes;
    std::uint64_t visited = 0;
    std::string why;

    // Returns the black-height of the subtree, or -1 on violation.
    std::function<int(Addr, Addr, bool, std::uint64_t, bool,
                      std::uint64_t)> check =
        [&](Addr node, Addr parent, bool has_lo, std::uint64_t lo,
            bool has_hi, std::uint64_t hi) -> int {
        if (node == 0)
            return 0;
        if (!nodeAddrValid(node, cursor)) {
            why = "node pointer out of pool";
            return -1;
        }
        if (++visited > allocated) {
            why = "more reachable nodes than allocated (cycle?)";
            return -1;
        }
        if (reader.readU64(fParent(node)) != parent) {
            why = "parent pointer mismatch";
            return -1;
        }
        std::uint64_t key = reader.readU64(fKey(node));
        if ((has_lo && key < lo) || (has_hi && key > hi)) {
            why = "BST ordering violated";
            return -1;
        }
        std::uint64_t color = reader.readU64(fColor(node));
        if (color != red && color != black) {
            why = "invalid color value (undecryptable line?)";
            return -1;
        }
        if (color == red && parent != 0
            && reader.readU64(fColor(parent)) == red) {
            why = "red node with red parent";
            return -1;
        }
        int lh = check(reader.readU64(fLeft(node)), node, has_lo, lo,
                       true, key);
        if (lh < 0)
            return -1;
        int rh = check(reader.readU64(fRight(node)), node, true, key,
                       has_hi, hi);
        if (rh < 0)
            return -1;
        if (lh != rh) {
            why = "black heights differ";
            return -1;
        }
        return lh + (color == black ? 1 : 0);
    };

    Addr root = reader.readU64(rootPtrAddr());
    if (root != 0 && reader.readU64(fColor(root)) != black)
        return ValidationResult::fail("root is not black");
    if (check(root, 0, false, 0, false, 0) < 0)
        return ValidationResult::fail(why);
    if (visited != allocated)
        return ValidationResult::fail("unreachable allocated nodes");
    return ValidationResult::pass();
}

} // namespace cnvm
