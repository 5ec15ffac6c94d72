/**
 * @file
 * Bonsai Merkle Tree over the persisted counter store.
 *
 * Per-line MACs (PR-5) authenticate each (addr, counter, ciphertext)
 * triple in isolation, which leaves them blind to the persistence-based
 * replay attack: restore a *complete* stale triple — old ciphertext,
 * old counter-store word, old MAC — and every per-line check passes
 * while the system silently consumes rolled-back state. The classic
 * defense (Rogers et al., "Bonsai Merkle Trees") hashes the counter
 * store into a tree whose root lives inside the trusted boundary; a
 * replayed counter word changes a leaf, the leaf changes the root, and
 * the persisted root no longer matches what the store hashes to.
 *
 * Shape. The tree is 8-ary over counter *slots*:
 *
 *   level 0   one node per counter slot = per data line
 *             (index = line address / 64), hash of the slot's value;
 *   level 1   one node per counter line (8 slots), the "counter-block
 *             hash" leaf a BMT stores;
 *   level L   8-ary reduction of level L-1, up to
 *   level 9   the single root (covers line indexes < 2^27, i.e. every
 *             data address below the 8 GB counter-region base).
 *
 * Subtrees with no persisted counters hash to a level-indexed constant
 * (treeZeroHash), so the tree is as sparse as the store itself and a
 * tampered slot never implicates untouched neighbors. The hash is
 * FNV-1a — this models *where* integrity metadata lives and *when* it
 * is checked, not cryptographic strength, exactly as CtrEngine's
 * truncated MAC does.
 *
 * Persistence. The controller batches dirty tree nodes and writes them
 * back lazily on epoch boundaries (Freij et al., "Streamlining
 * Integrity Tree Updates"); on a crash the ADR energy budget flushes
 * the dirty set with the root written *last*, modeled as a full
 * rebuild of the persisted nodes from the post-drain counter store
 * (the volatile mirror is, by construction, the tree of the persisted
 * store, so the flush and the rebuild are the same function). Media
 * faults and replay doses are applied *after* that flush — a replayed
 * counter word therefore always disagrees with the persisted tree.
 *
 * Recovery. Phoenix-style: recompute the root bottom-up from the
 * persisted counter store and compare against the persisted root. On a
 * mismatch, per-line level-0 comparisons pinpoint the stale slots; the
 * write-back path then reconstructs the persisted nodes region by
 * region (root last) so an interrupted reconstruction is re-runnable.
 */

#ifndef CNVM_INTEGRITY_INTEGRITY_TREE_HH
#define CNVM_INTEGRITY_INTEGRITY_TREE_HH

#include <cstdint>
#include <functional>
#include <optional>

#include "common/types.hh"

namespace cnvm
{

class PersistImage;

/** Children per interior tree node. */
constexpr unsigned treeArity = 8;

/** Level of the single root node (see the layout table above). */
constexpr unsigned treeRootLevel = 9;

/** Level-0 node: hash of one counter slot's value. */
std::uint64_t treeSlotHash(std::uint64_t counter);

/** Interior node: hash of its (up to) eight children, in slot order. */
std::uint64_t treeCombine(const std::uint64_t children[treeArity]);

/** Hash of an all-absent subtree rooted at @p level. */
std::uint64_t treeZeroHash(unsigned level);

/**
 * Recomputes the root bottom-up from @p img's persisted counter store
 * — the verify-root-first step of recovery. Pure: touches no persisted
 * tree nodes, so it is safe from the shared-image pre-scan shards.
 */
std::uint64_t computeTreeRoot(const PersistImage &img,
                              Addr counter_region_base);

/**
 * Rewrites the persisted tree nodes of @p img from its own counter
 * store: level-0/1 nodes for every persisted counter line in
 * [@p ctr_lo, @p ctr_hi), then the interior levels from the *persisted*
 * level-1 nodes, the root strictly last. Returns the new root.
 *
 * Two callers, one function:
 *  - the crash flush (System::crashDrain) rebuilds everything (full
 *    address range) once every channel has drained — afterwards the
 *    persisted tree is exactly the tree of the persisted store;
 *  - recovery's reconstruction rebuilds only the counter lines backing
 *    the recovered region, leaving other regions' leaves alone so a
 *    not-yet-recovered region's replay evidence survives.
 *
 * @p leaf_visited fires once per rebuilt counter line (in address
 * order) and may throw — that is the crash-during-reconstruction
 * injection point. Writing the root last keeps an interrupted rebuild
 * detectable: the stale root still mismatches, so the next recovery
 * attempt re-verifies and finishes the job.
 */
std::uint64_t rebuildTree(PersistImage &img, Addr counter_region_base,
                          Addr ctr_lo, Addr ctr_hi,
                          const std::function<void()> &leaf_visited = {});

/**
 * Osiris-style counter-recovery window search, multi-match aware.
 *
 * Tries counters outward from @p stored (distance 1..@p window, +d
 * before -d) and collects *every* candidate @p verifies accepts —
 * with a truncated MAC, two window counters can collide, and taking
 * the first match silently repairs to the wrong counter. A single
 * match is returned as-is. On multiple matches the nearest candidate
 * @p confirms accepts (the integrity tree's vote) wins; with no
 * confirmation available — tree off, or no candidate confirmed — the
 * search is ambiguous and returns nullopt, which quarantines the line
 * instead of guessing.
 */
std::optional<std::uint64_t>
repairCounterWindow(std::uint64_t stored, std::uint64_t window,
                    const std::function<bool(std::uint64_t)> &verifies,
                    const std::function<bool(std::uint64_t)> &confirms);

} // namespace cnvm

#endif // CNVM_INTEGRITY_INTEGRITY_TREE_HH
