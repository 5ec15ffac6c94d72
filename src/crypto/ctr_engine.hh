/**
 * @file
 * Counter-mode (CTR) encryption engine for 64-byte cache lines.
 *
 * Implements the paper's equations 1-3:
 *
 *   OTP                = En(address | counter, key)           (1)
 *   EncryptedCacheLine = OTP xor plaintext                    (2)
 *   plaintext          = OTP xor EncryptedCacheLine           (3)
 *
 * A 64 B line spans four AES blocks, so the pad for block i is generated
 * from the tweak (line_address + 16 * i, counter). Encryption and
 * decryption are the same XOR; decrypting with a counter that does not
 * match the one used to encrypt yields uncorrelated garbage, which is how
 * the recovery checks detect counter-atomicity violations (equation 4).
 */

#ifndef CNVM_CRYPTO_CTR_ENGINE_HH
#define CNVM_CRYPTO_CTR_ENGINE_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "crypto/aes128.hh"

namespace cnvm::crypto
{

/** Counter-mode engine bound to one AES key. */
class CtrEngine
{
  public:
    /** Constructs with the all-zero key. */
    CtrEngine() = default;

    /** Constructs with a specific 16-byte key. */
    explicit CtrEngine(const std::uint8_t key[Aes128::keyBytes])
        : cipher(key)
    {}

    /** Replaces the key. */
    void setKey(const std::uint8_t key[Aes128::keyBytes])
    { cipher.setKey(key); }

    /**
     * Generates the 64-byte one-time pad for (line address, counter).
     *
     * @param addr    line-aligned physical address
     * @param counter per-line write counter value
     */
    LineData makePad(Addr addr, std::uint64_t counter) const;

    /** Equation 2: ciphertext = pad(addr, counter) xor plaintext. */
    LineData encrypt(Addr addr, std::uint64_t counter,
                     const LineData &plaintext) const;

    /** Equation 3: plaintext = pad(addr, counter) xor ciphertext. */
    LineData decrypt(Addr addr, std::uint64_t counter,
                     const LineData &ciphertext) const;

    /**
     * Truncated keyed integrity MAC binding (address, counter,
     * ciphertext) — the per-line metadata the hardened recovery path
     * verifies before trusting a decryption. 56 bits: the tag lives in
     * the line's ECC spare bits, and one byte of spare capacity stays
     * reserved for the ECC code itself.
     *
     * Construction: macFinish(macPrefix(addr, ciphertext), counter).
     * The prefix folds the ciphertext to 64 bits and binds it to the
     * address through one AES block; the counter step binds the
     * counter through a second, chained AES block. Deterministic,
     * keyed, and sensitive to every input bit — which is what the
     * simulator needs; it does not claim production-MAC security
     * margins.
     */
    std::uint64_t lineMac(Addr addr, std::uint64_t counter,
                          const LineData &ciphertext) const
    { return macFinish(macPrefix(addr, ciphertext), counter); }

    /** The counter-independent half of lineMac(): one AES block. */
    using MacPrefix = std::array<std::uint8_t, Aes128::blockBytes>;

    /**
     * The prefix of lineMac(): the ciphertext folded to one word, then
     * encrypted with the address. A counter search over one line (the
     * recovery repair window) computes it once and pays one macFinish
     * per trial counter.
     */
    MacPrefix macPrefix(Addr addr, const LineData &ciphertext) const;

    /** The counter step of lineMac(): one AES block over the prefix
     *  with @p counter folded in, truncated to the 56-bit tag. */
    std::uint64_t macFinish(const MacPrefix &prefix,
                            std::uint64_t counter) const;

    /** Lines lineMacs() computes together. */
    static constexpr unsigned macLanes = 8;

    /**
     * lineMac() of @p n lines: out[i] = lineMac(addrs[i], counters[i],
     * *ciphers[i]), bit for bit. The lines run macLanes at a time with
     * their ciphertext folds and both AES steps interleaved, so the
     * multiply and aesenc latencies of one line overlap the others'
     * instead of being paid in series. A short last batch fills its
     * empty lanes with a copy of its first line and drops their tags.
     */
    void lineMacs(const Addr addrs[], const std::uint64_t counters[],
                  const LineData *const ciphers[], std::uint64_t out[],
                  std::size_t n) const;

  private:
    Aes128 cipher;
};

} // namespace cnvm::crypto

#endif // CNVM_CRYPTO_CTR_ENGINE_HH
