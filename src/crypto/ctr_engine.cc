#include "crypto/ctr_engine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cnvm::crypto
{

LineData
CtrEngine::makePad(Addr addr, std::uint64_t counter) const
{
    cnvm_assert(isLineAligned(addr));

    static_assert(lineBytes == 4 * Aes128::blockBytes,
                  "pad generation assumes a four-block line");

    // Tweak blocks: little-endian (address of each 16 B sub-block,
    // per-line write counter). All four run through the cipher together
    // so the hardware path can pipeline them.
    LineData input;
    for (unsigned block = 0; block < lineBytes / Aes128::blockBytes;
         ++block) {
        std::uint8_t *tweak = &input[block * Aes128::blockBytes];
        std::uint64_t tweak_addr = addr + block * Aes128::blockBytes;
        for (unsigned i = 0; i < 8; ++i) {
            tweak[i] = static_cast<std::uint8_t>(tweak_addr >> (8 * i));
            tweak[8 + i] = static_cast<std::uint8_t>(counter >> (8 * i));
        }
    }
    LineData pad;
    cipher.encryptBlocks4(input.data(), pad.data());
    return pad;
}

LineData
CtrEngine::encrypt(Addr addr, std::uint64_t counter,
                   const LineData &plaintext) const
{
    LineData out = makePad(addr, counter);
    for (unsigned i = 0; i < lineBytes; ++i)
        out[i] ^= plaintext[i];
    return out;
}

LineData
CtrEngine::decrypt(Addr addr, std::uint64_t counter,
                   const LineData &ciphertext) const
{
    // XOR with the same pad; identical to encrypt by construction.
    return encrypt(addr, counter, ciphertext);
}

namespace
{

/**
 * The MAC's ciphertext digest: each byte XORed into a state that
 * starts at zero, then multiplied by the 64-bit FNV prime. This is the
 * FNV multiply step, not FNV-1a, which starts at the offset basis.
 */
constexpr std::uint64_t macFoldPrime = 0x100000001b3ull;

std::uint64_t
macFold(const LineData &ciphertext)
{
    std::uint64_t digest = 0;
    for (unsigned i = 0; i < lineBytes; ++i) {
        digest ^= ciphertext[i];
        digest *= macFoldPrime;
    }
    return digest;
}

/** Writes @p v into @p out[0..8) little-endian. */
void
putLe64(std::uint8_t *out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** XORs @p v into @p out[0..8) little-endian. */
void
xorLe64(std::uint8_t *out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out[i] ^= static_cast<std::uint8_t>(v >> (8 * i));
}

/** The 56-bit tag in the first eight bytes of an encrypted block. */
std::uint64_t
tagOf(const std::uint8_t *block)
{
    std::uint64_t tag = 0;
    for (unsigned i = 0; i < 8; ++i)
        tag |= static_cast<std::uint64_t>(block[i]) << (8 * i);
    return tag & 0x00ffffffffffffffull; // 56-bit truncation
}

} // anonymous namespace

// The MAC chains two AES blocks: E(addr | fold(ciphertext)) is the
// counter-independent prefix, and E(prefix xor counter) is the tag,
// so every input bit diffuses through the keyed permutation.

CtrEngine::MacPrefix
CtrEngine::macPrefix(Addr addr, const LineData &ciphertext) const
{
    cnvm_assert(isLineAligned(addr));
    MacPrefix block;
    putLe64(block.data(), addr);
    putLe64(block.data() + 8, macFold(ciphertext));
    cipher.encryptBlock(block.data(), block.data());
    return block;
}

std::uint64_t
CtrEngine::macFinish(const MacPrefix &prefix, std::uint64_t counter) const
{
    MacPrefix block = prefix;
    xorLe64(block.data(), counter);
    cipher.encryptBlock(block.data(), block.data());
    return tagOf(block.data());
}

void
CtrEngine::lineMacs(const Addr addrs[], const std::uint64_t counters[],
                    const LineData *const ciphers[], std::uint64_t out[],
                    std::size_t n) const
{
    constexpr unsigned blk = Aes128::blockBytes;
    static_assert(macLanes == 8, "one encryptBlocks8 per AES step");

    for (std::size_t first = 0; first < n; first += macLanes) {
        const std::size_t lanes =
            std::min<std::size_t>(macLanes, n - first);
        // A short batch repeats its first line in the empty lanes, so
        // every batch runs the same straight-line code.
        std::size_t idx[macLanes] = {};
        for (unsigned l = 0; l < macLanes; ++l)
            idx[l] = first + (l < lanes ? l : 0);

        // macFold of eight lines, one byte of each per step.
        const LineData *line[macLanes] = {};
        std::uint64_t digest[macLanes] = {};
        for (unsigned l = 0; l < macLanes; ++l) {
            cnvm_assert(isLineAligned(addrs[idx[l]]));
            line[l] = ciphers[idx[l]];
        }
        for (unsigned i = 0; i < lineBytes; ++i)
            for (unsigned l = 0; l < macLanes; ++l)
                digest[l] = (digest[l] ^ (*line[l])[i]) * macFoldPrime;

        // macPrefix's block, then macFinish's, eight lanes each.
        std::uint8_t blocks[macLanes * blk] = {};
        for (unsigned l = 0; l < macLanes; ++l) {
            putLe64(blocks + l * blk, addrs[idx[l]]);
            putLe64(blocks + l * blk + 8, digest[l]);
        }
        cipher.encryptBlocks8(blocks, blocks);
        for (unsigned l = 0; l < macLanes; ++l)
            xorLe64(blocks + l * blk, counters[idx[l]]);
        cipher.encryptBlocks8(blocks, blocks);
        for (unsigned l = 0; l < lanes; ++l)
            out[first + l] = tagOf(blocks + l * blk);
    }
}

} // namespace cnvm::crypto
