#include "crypto/aes128.hh"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define CNVM_AES_NI_POSSIBLE 1
#include <immintrin.h>
#endif

namespace cnvm::crypto
{

namespace
{

/** The AES S-box (FIPS-197 Figure 7). */
const std::uint8_t sbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5,
    0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc,
    0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85,
    0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17,
    0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88,
    0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9,
    0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6,
    0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94,
    0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68,
    0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
};

/** Round constants for key expansion. */
const std::uint8_t rcon[10] = {
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
};

/** Multiplication by x in GF(2^8) with the AES polynomial. */
inline std::uint8_t
xtime(std::uint8_t v)
{
    return static_cast<std::uint8_t>((v << 1) ^ ((v >> 7) * 0x1b));
}

#ifdef CNVM_AES_NI_POSSIBLE

/**
 * AES-128 over @p N independent blocks with the AESENC instructions,
 * the blocks interleaved round by round so up to N aesenc run in the
 * pipeline together (N = 1 is the plain single-block cipher). The
 * state bytes load in memory order, which is exactly the FIPS-197
 * column-major state layout, so the result is bit-identical to the
 * portable path. Every block is loaded before any is stored, so @p in
 * and @p out may alias. Compiled with a target attribute so the
 * translation unit itself needs no -maes; the caller guards on cpuid.
 */
template <unsigned N>
__attribute__((target("aes,sse2"))) void
encryptBlocksNi(const std::uint8_t *rk, const std::uint8_t *in,
                std::uint8_t *out)
{
    const __m128i *src = reinterpret_cast<const __m128i *>(in);
    const __m128i *keys = reinterpret_cast<const __m128i *>(rk);
    __m128i s[N];

    __m128i k = _mm_loadu_si128(keys);
    for (unsigned b = 0; b < N; ++b)
        s[b] = _mm_xor_si128(_mm_loadu_si128(src + b), k);
    for (unsigned r = 1; r < Aes128::rounds; ++r) {
        k = _mm_loadu_si128(keys + r);
        for (unsigned b = 0; b < N; ++b)
            s[b] = _mm_aesenc_si128(s[b], k);
    }
    k = _mm_loadu_si128(keys + Aes128::rounds);
    for (unsigned b = 0; b < N; ++b)
        s[b] = _mm_aesenclast_si128(s[b], k);

    __m128i *dst = reinterpret_cast<__m128i *>(out);
    for (unsigned b = 0; b < N; ++b)
        _mm_storeu_si128(dst + b, s[b]);
}

/**
 * Runtime backend choice, probed exactly once. The magic static makes
 * the CPUID probe init-once and thread-safe no matter which thread
 * encrypts first (the parallel crash sweep constructs Systems — and
 * hence ciphers — on pool workers) and independent of static
 * initialization order across translation units.
 */
bool
haveAesNi()
{
    static const bool have =
        __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse2");
    return have;
}

#endif // CNVM_AES_NI_POSSIBLE

} // anonymous namespace

Aes128::Aes128()
{
    const std::uint8_t zero[keyBytes] = {};
    expandKey(zero);
}

Aes128::Aes128(const std::uint8_t key[keyBytes])
{
    expandKey(key);
}

void
Aes128::setKey(const std::uint8_t key[keyBytes])
{
    expandKey(key);
}

void
Aes128::expandKey(const std::uint8_t key[keyBytes])
{
    std::memcpy(roundKeys.data(), key, keyBytes);

    // Each iteration derives one 4-byte word from the previous ones
    // (FIPS-197 section 5.2).
    for (unsigned i = 4; i < 4 * (rounds + 1); ++i) {
        std::uint8_t temp[4];
        std::memcpy(temp, &roundKeys[(i - 1) * 4], 4);

        if (i % 4 == 0) {
            // RotWord + SubWord + Rcon.
            std::uint8_t t0 = temp[0];
            temp[0] = static_cast<std::uint8_t>(
                sbox[temp[1]] ^ rcon[i / 4 - 1]);
            temp[1] = sbox[temp[2]];
            temp[2] = sbox[temp[3]];
            temp[3] = sbox[t0];
        }

        for (unsigned b = 0; b < 4; ++b) {
            roundKeys[i * 4 + b] =
                static_cast<std::uint8_t>(roundKeys[(i - 4) * 4 + b] ^
                                          temp[b]);
        }
    }
}

template <unsigned N>
void
Aes128::encryptBlocks(const std::uint8_t *in, std::uint8_t *out) const
{
#ifdef CNVM_AES_NI_POSSIBLE
    if (haveAesNi()) {
        encryptBlocksNi<N>(roundKeys.data(), in, out);
        return;
    }
#endif
    for (unsigned b = 0; b < N; ++b)
        encryptBlockPortable(in + b * blockBytes, out + b * blockBytes);
}

void
Aes128::encryptBlock(const std::uint8_t in[blockBytes],
                     std::uint8_t out[blockBytes]) const
{
    encryptBlocks<1>(in, out);
}

void
Aes128::encryptBlocks4(const std::uint8_t in[4 * blockBytes],
                       std::uint8_t out[4 * blockBytes]) const
{
    encryptBlocks<4>(in, out);
}

void
Aes128::encryptBlocks8(const std::uint8_t in[8 * blockBytes],
                       std::uint8_t out[8 * blockBytes]) const
{
    encryptBlocks<8>(in, out);
}

void
Aes128::encryptBlockPortable(const std::uint8_t in[blockBytes],
                             std::uint8_t out[blockBytes]) const
{
    // State is column-major per FIPS-197; a flat byte array with the
    // standard index mapping state[r + 4c] = in[r + 4c] works because we
    // apply ShiftRows by explicit index shuffles.
    std::uint8_t state[blockBytes];
    for (unsigned i = 0; i < blockBytes; ++i)
        state[i] = static_cast<std::uint8_t>(in[i] ^ roundKeys[i]);

    for (unsigned round = 1; round <= rounds; ++round) {
        // SubBytes.
        for (auto &byte : state)
            byte = sbox[byte];

        // ShiftRows: row r rotates left by r. With column-major layout,
        // row r occupies indices {r, r+4, r+8, r+12}.
        std::uint8_t t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;

        std::swap(state[2], state[10]);
        std::swap(state[6], state[14]);

        t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;

        // MixColumns (skipped in the final round).
        if (round != rounds) {
            for (unsigned c = 0; c < 4; ++c) {
                std::uint8_t *col = &state[4 * c];
                std::uint8_t a0 = col[0], a1 = col[1];
                std::uint8_t a2 = col[2], a3 = col[3];
                std::uint8_t all = static_cast<std::uint8_t>(
                    a0 ^ a1 ^ a2 ^ a3);
                col[0] ^= static_cast<std::uint8_t>(
                    all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
                col[1] ^= static_cast<std::uint8_t>(
                    all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
                col[2] ^= static_cast<std::uint8_t>(
                    all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
                col[3] ^= static_cast<std::uint8_t>(
                    all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
            }
        }

        // AddRoundKey.
        for (unsigned i = 0; i < blockBytes; ++i)
            state[i] ^= roundKeys[round * blockBytes + i];
    }

    std::memcpy(out, state, blockBytes);
}

} // namespace cnvm::crypto
