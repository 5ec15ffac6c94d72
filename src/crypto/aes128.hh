/**
 * @file
 * AES-128 block cipher (FIPS-197), encryption direction only.
 *
 * Counter-mode encryption never decrypts with the block cipher — both
 * directions XOR the same one-time pad — so only the forward cipher is
 * implemented. Two backends produce bit-identical output: a portable
 * byte-oriented implementation, and an AES-NI path selected at runtime
 * when the host CPU supports it. The simulator models the engine's
 * 40 ns latency separately, so cipher throughput here only affects
 * host-side simulation speed — but it dominates the host profile, since
 * every simulated line store and fill runs through the pad.
 */

#ifndef CNVM_CRYPTO_AES128_HH
#define CNVM_CRYPTO_AES128_HH

#include <array>
#include <cstdint>

namespace cnvm::crypto
{

/** AES-128: 128-bit key, 128-bit block, 10 rounds. */
class Aes128
{
  public:
    static constexpr unsigned blockBytes = 16;
    static constexpr unsigned keyBytes = 16;
    static constexpr unsigned rounds = 10;

    /** Constructs with the all-zero key (still a valid cipher). */
    Aes128();

    /** Constructs and expands the given 16-byte key. */
    explicit Aes128(const std::uint8_t key[keyBytes]);

    /** Replaces the key and recomputes the key schedule. */
    void setKey(const std::uint8_t key[keyBytes]);

    /** Encrypts one 16-byte block; @p in and @p out may alias. */
    void encryptBlock(const std::uint8_t in[blockBytes],
                      std::uint8_t out[blockBytes]) const;

    /**
     * Encrypts four independent 16-byte blocks; @p in and @p out may
     * alias. On the AES-NI backend the four blocks run through the
     * cipher pipeline together, hiding the aesenc latency — this is the
     * shape of a one-time-pad generation for a 64-byte line.
     */
    void encryptBlocks4(const std::uint8_t in[4 * blockBytes],
                        std::uint8_t out[4 * blockBytes]) const;

    /**
     * Encrypts eight independent 16-byte blocks; @p in and @p out may
     * alias. The shape of one AES step of eight lines' MACs at once
     * (CtrEngine::lineMacs): eight blocks in flight cover the aesenc
     * latency that one or two chained blocks leave exposed.
     */
    void encryptBlocks8(const std::uint8_t in[8 * blockBytes],
                        std::uint8_t out[8 * blockBytes]) const;

    /**
     * The portable byte-oriented cipher, always available regardless of
     * backend selection. Exposed so tests can cross-check the
     * accelerated path against it.
     */
    void encryptBlockPortable(const std::uint8_t in[blockBytes],
                              std::uint8_t out[blockBytes]) const;

  private:
    /** Expanded key schedule: (rounds + 1) 16-byte round keys. */
    std::array<std::uint8_t, (rounds + 1) * blockBytes> roundKeys;

    void expandKey(const std::uint8_t key[keyBytes]);

    /** @p N independent blocks through whichever backend is active. */
    template <unsigned N>
    void encryptBlocks(const std::uint8_t *in, std::uint8_t *out) const;
};

} // namespace cnvm::crypto

#endif // CNVM_CRYPTO_AES128_HH
