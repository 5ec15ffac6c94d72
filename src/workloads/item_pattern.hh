/**
 * @file
 * Deterministic item payloads for the array and queue workloads.
 *
 * An item's entire byte content is derived from a single 64-bit value,
 * so that (a) validation can detect any torn or garbled byte, and
 * (b) digests need to fold only the value.
 */

#ifndef CNVM_WORKLOADS_ITEM_PATTERN_HH
#define CNVM_WORKLOADS_ITEM_PATTERN_HH

#include <cstring>

#include "common/hash.hh"
#include "common/types.hh"

namespace cnvm
{

/**
 * Fills @p item_bytes bytes: word 0 is the value itself, word i > 0 is
 * a hash chain seeded by the value.
 */
inline void
fillItemPattern(std::uint64_t value, unsigned item_bytes, std::uint8_t *out)
{
    std::memcpy(out, &value, sizeof(value));
    std::uint64_t state = fnv1aU64(value);
    for (unsigned off = 8; off + 8 <= item_bytes; off += 8) {
        state = fnv1aU64(state);
        std::memcpy(out + off, &state, sizeof(state));
    }
}

/**
 * Checks that @p bytes is exactly fillItemPattern(value), comparing each
 * word as the hash chain generates it; the bytes past the last whole
 * word, which fillItemPattern leaves alone, must be 0.
 */
inline bool
checkItemPattern(std::uint64_t value, unsigned item_bytes,
                 const std::uint8_t *bytes)
{
    std::uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    if (word != value)
        return false;
    std::uint64_t state = fnv1aU64(value);
    unsigned off = 8;
    for (; off + 8 <= item_bytes; off += 8) {
        state = fnv1aU64(state);
        std::memcpy(&word, bytes + off, sizeof(word));
        if (word != state)
            return false;
    }
    for (; off < item_bytes; ++off) {
        if (bytes[off] != 0)
            return false;
    }
    return true;
}

} // namespace cnvm

#endif // CNVM_WORKLOADS_ITEM_PATTERN_HH
