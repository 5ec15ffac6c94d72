#include "integrity/integrity_tree.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "nvm/persist_image.hh"

namespace cnvm
{

std::uint64_t
treeSlotHash(std::uint64_t counter)
{
    return fnv1aU64(counter);
}

std::uint64_t
treeCombine(const std::uint64_t children[treeArity])
{
    std::uint64_t state = fnvOffsetBasis;
    for (unsigned c = 0; c < treeArity; ++c)
        state = fnv1aU64(children[c], state);
    return state;
}

std::uint64_t
treeZeroHash(unsigned level)
{
    cnvm_assert(level <= treeRootLevel);
    // A tiny table, but recomputing it per call would still be cheap;
    // memoization keeps the hot per-line checks allocation-free.
    static const auto table = [] {
        std::array<std::uint64_t, treeRootLevel + 1> t{};
        t[0] = treeSlotHash(0);
        for (unsigned l = 1; l <= treeRootLevel; ++l) {
            std::uint64_t children[treeArity];
            for (unsigned c = 0; c < treeArity; ++c)
                children[c] = t[l - 1];
            t[l] = treeCombine(children);
        }
        return t;
    }();
    return table[level];
}

namespace
{

/** One tree node as (index within its level, hash). */
using TreeNode = std::pair<std::uint64_t, std::uint64_t>;

/**
 * One 8-ary reduction step: the parents of @p level's nodes (sorted by
 * index), absent children standing in for their zero hash. The parents
 * come out sorted too, so every caller's write order is the index
 * order.
 */
std::vector<TreeNode>
reduceLevel(const std::vector<TreeNode> &level, unsigned level_no)
{
    std::vector<TreeNode> up;
    up.reserve((level.size() + treeArity - 1) / treeArity);
    auto it = level.begin();
    while (it != level.end()) {
        const std::uint64_t parent = it->first / treeArity;
        std::uint64_t children[treeArity];
        for (unsigned c = 0; c < treeArity; ++c)
            children[c] = treeZeroHash(level_no);
        while (it != level.end() && it->first / treeArity == parent) {
            children[it->first % treeArity] = it->second;
            ++it;
        }
        up.emplace_back(parent, treeCombine(children));
    }
    return up;
}

/** Root of a sorted level-1 node list, reduced all the way up. */
std::uint64_t
rootOf(std::vector<TreeNode> level)
{
    for (unsigned l = 1; l < treeRootLevel; ++l)
        level = reduceLevel(level, l);
    if (level.empty())
        return treeZeroHash(treeRootLevel);
    cnvm_assert(level.size() == 1 && level.front().first == 0);
    return level.front().second;
}

/** Counter lines a LeafBatch hashes together. */
constexpr unsigned treeLanes = 8;

/**
 * fnv1aU64(value[l], state[l]) for @p Lanes lanes at once, one byte of
 * every lane per step, so the lanes' multiply chains overlap. Bytes go
 * in memory order, as fnv1a() reads them.
 */
template <unsigned Lanes>
void
fnv1aU64Lanes(const std::uint64_t value[Lanes], std::uint64_t state[Lanes])
{
    for (unsigned b = 0; b < sizeof(std::uint64_t); ++b) {
        for (unsigned l = 0; l < Lanes; ++l) {
            const auto *bytes =
                reinterpret_cast<const std::uint8_t *>(&value[l]);
            state[l] = (state[l] ^ bytes[b]) * fnvPrime;
        }
    }
}

/**
 * Up to treeLanes persisted counter lines and their level-0 and
 * level-1 hashes, computed together: each line's eight slot hashes
 * side by side, then the eight lines' treeCombine chains side by side.
 * Equal to treeSlotHash/treeCombine line by line.
 */
struct LeafBatch
{
    std::size_t size = 0;
    std::uint64_t index[treeLanes] = {};           //!< level-1 index
    CounterLine values[treeLanes] = {};
    std::uint64_t slots[treeLanes][treeArity] = {}; //!< level-0 hashes
    std::uint64_t leaf[treeLanes] = {};             //!< level-1 hashes

    void
    add(std::uint64_t line_index, const CounterLine &line_values)
    {
        cnvm_assert(size < treeLanes);
        index[size] = line_index;
        values[size] = line_values;
        ++size;
    }

    bool full() const { return size == treeLanes; }

    /** Hashes lanes [0, size); a short batch repeats lane 0 in the
     *  empty lanes and ignores their hashes. */
    void
    hash()
    {
        static_assert(countersPerLine == treeArity);
        for (std::size_t l = size; l < treeLanes; ++l)
            values[l] = values[0];

        for (unsigned l = 0; l < treeLanes; ++l) {
            std::fill_n(slots[l], treeArity, fnvOffsetBasis);
            fnv1aU64Lanes<treeArity>(values[l].data(), slots[l]);
        }

        for (unsigned l = 0; l < treeLanes; ++l)
            leaf[l] = fnvOffsetBasis;
        for (unsigned c = 0; c < treeArity; ++c) {
            std::uint64_t child[treeLanes];
            for (unsigned l = 0; l < treeLanes; ++l)
                child[l] = slots[l][c];
            fnv1aU64Lanes<treeLanes>(child, leaf);
        }
    }
};

/**
 * Hashes @p img's persisted counter lines in [@p ctr_lo, @p ctr_hi)
 * treeLanes at a time and hands each hashed batch to @p fn, in address
 * order.
 */
template <typename Fn>
void
forEachLeafBatch(const PersistImage &img, Addr counter_region_base,
                 Addr ctr_lo, Addr ctr_hi, Fn &&fn)
{
    LeafBatch batch;
    auto hashAndHand = [&] {
        batch.hash();
        fn(batch);
        batch.size = 0;
    };
    img.forEachCounterLine([&](Addr addr, const CounterLine &values) {
        if (addr < ctr_lo || addr >= ctr_hi)
            return;
        cnvm_assert(addr >= counter_region_base);
        batch.add((addr - counter_region_base) / lineBytes, values);
        if (batch.full())
            hashAndHand();
    });
    if (batch.size > 0)
        hashAndHand();
}

} // anonymous namespace

std::uint64_t
computeTreeRoot(const PersistImage &img, Addr counter_region_base)
{
    std::vector<TreeNode> leaves;
    forEachLeafBatch(img, counter_region_base, 0, ~Addr(0),
                     [&leaves](const LeafBatch &batch) {
                         for (std::size_t l = 0; l < batch.size; ++l)
                             leaves.emplace_back(batch.index[l],
                                                 batch.leaf[l]);
                     });
    return rootOf(std::move(leaves));
}

std::uint64_t
rebuildTree(PersistImage &img, Addr counter_region_base, Addr ctr_lo,
            Addr ctr_hi, const std::function<void()> &leaf_visited)
{
    // Phase 1 — the region's leaves, from the store itself: per-slot
    // level-0 nodes plus the level-1 counter-block node, one counter
    // line at a time in address order. The lines are hashed eight at
    // a time, but each line's nodes are drained, and leaf_visited
    // called, before the next line's: each line is an interruption
    // point for the recovery-crash sweep.
    forEachLeafBatch(
        img, counter_region_base, ctr_lo, ctr_hi,
        [&](const LeafBatch &batch) {
            for (std::size_t l = 0; l < batch.size; ++l) {
                const std::uint64_t index = batch.index[l];
                for (unsigned s = 0; s < countersPerLine; ++s)
                    img.drainTreeNode(0, index * countersPerLine + s,
                                      batch.slots[l][s]);
                img.drainTreeNode(1, index, batch.leaf[l]);
                if (leaf_visited)
                    leaf_visited();
            }
        });

    // Phase 2 — the interior, from the *persisted* level-1 nodes (not
    // the store): leaves outside [ctr_lo, ctr_hi) keep whatever was
    // persisted for them, so a regional rebuild cannot bless another
    // region's not-yet-recovered replay evidence.
    std::vector<TreeNode> level;
    for (std::uint64_t index : img.persistedTreeLeafIndices())
        level.emplace_back(index, *img.persistedTreeNode(1, index));
    for (unsigned l = 1; l < treeRootLevel; ++l) {
        level = reduceLevel(level, l);
        if (l + 1 < treeRootLevel)
            for (const auto &[index, hash] : level)
                img.drainTreeNode(l + 1, index, hash);
    }
    const std::uint64_t root = level.empty()
        ? treeZeroHash(treeRootLevel)
        : level.front().second;

    // The root is written strictly last: an interrupted rebuild leaves
    // the stale root in place, so the next attempt still sees the
    // mismatch and re-runs the reconstruction.
    img.drainTreeRoot(root);
    return root;
}

std::optional<std::uint64_t>
repairCounterWindow(std::uint64_t stored, std::uint64_t window,
                    const std::function<bool(std::uint64_t)> &verifies,
                    const std::function<bool(std::uint64_t)> &confirms)
{
    const std::uint64_t up =
        std::min<std::uint64_t>(window, ~std::uint64_t(0) - stored);
    const std::uint64_t down = std::min<std::uint64_t>(window, stored);

    // Nearest-first, +d before -d — the order the single-match case
    // has always used, now collecting *all* matches instead of
    // stopping at the first.
    std::vector<std::uint64_t> matches;
    for (std::uint64_t d = 1; d <= std::max(up, down); ++d) {
        if (d <= up && verifies(stored + d))
            matches.push_back(stored + d);
        if (d <= down && verifies(stored - d))
            matches.push_back(stored - d);
    }

    if (matches.empty())
        return std::nullopt;
    if (matches.size() == 1)
        return matches.front();
    if (confirms)
        for (std::uint64_t candidate : matches)
            if (confirms(candidate))
                return candidate;
    return std::nullopt; // ambiguous: quarantine beats guessing
}

} // namespace cnvm
