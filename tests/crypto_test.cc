/**
 * @file
 * Tests for the AES-128 cipher and the counter-mode engine: FIPS-197
 * known-answer vectors plus the properties the crash-consistency story
 * rests on — decryption succeeds if and only if the counter matches
 * (paper equations 1-4).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/random.hh"
#include "crypto/aes128.hh"
#include "crypto/ctr_engine.hh"

namespace cnvm::crypto
{
namespace
{

// --- FIPS-197 vectors ---------------------------------------------------

TEST(Aes128, Fips197AppendixC)
{
    std::uint8_t key[16], pt[16], ct[16];
    for (int i = 0; i < 16; ++i) {
        key[i] = static_cast<std::uint8_t>(i);
        pt[i] = static_cast<std::uint8_t>(i * 0x11);
    }
    Aes128 aes(key);
    aes.encryptBlock(pt, ct);
    const std::uint8_t expect[16] = {
        0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
        0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
    EXPECT_EQ(std::memcmp(ct, expect, 16), 0);
}

TEST(Aes128, Fips197AppendixB)
{
    const std::uint8_t key[16] = {
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
        0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    const std::uint8_t pt[16] = {
        0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
        0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
    const std::uint8_t expect[16] = {
        0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
        0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
    std::uint8_t ct[16];
    Aes128 aes(key);
    aes.encryptBlock(pt, ct);
    EXPECT_EQ(std::memcmp(ct, expect, 16), 0);
}

TEST(Aes128, InPlaceEncryption)
{
    std::uint8_t key[16] = {};
    std::uint8_t buf[16] = {1, 2, 3, 4, 5, 6, 7, 8,
                            9, 10, 11, 12, 13, 14, 15, 16};
    std::uint8_t separate[16];
    Aes128 aes(key);
    aes.encryptBlock(buf, separate);
    aes.encryptBlock(buf, buf); // aliased in/out
    EXPECT_EQ(std::memcmp(buf, separate, 16), 0);
}

TEST(Aes128, BackendsAgree)
{
    // encryptBlock may dispatch to AES-NI; whatever backend is active
    // must be bit-identical to the portable byte-oriented cipher, for
    // single blocks, the four-block pad shape and eight blocks.
    Random rng(0xae5);
    for (int round = 0; round < 64; ++round) {
        std::uint8_t key[16], in[64], fast[64], portable[64];
        for (auto &b : key)
            b = static_cast<std::uint8_t>(rng.next());
        for (auto &b : in)
            b = static_cast<std::uint8_t>(rng.next());
        Aes128 aes(key);
        aes.encryptBlock(in, fast);
        aes.encryptBlockPortable(in, portable);
        EXPECT_EQ(std::memcmp(fast, portable, 16), 0);
        aes.encryptBlocks4(in, fast);
        for (int b = 0; b < 4; ++b)
            aes.encryptBlockPortable(in + 16 * b, portable + 16 * b);
        EXPECT_EQ(std::memcmp(fast, portable, 64), 0);
        // ... and for the eight-block MAC-lane shape.
        std::uint8_t in8[128], fast8[128], portable8[128];
        for (auto &b : in8)
            b = static_cast<std::uint8_t>(rng.next());
        aes.encryptBlocks8(in8, fast8);
        for (int b = 0; b < 8; ++b)
            aes.encryptBlockPortable(in8 + 16 * b, portable8 + 16 * b);
        EXPECT_EQ(std::memcmp(fast8, portable8, 128), 0);
    }
}

TEST(Aes128, Blocks4AllowsAliasedBuffers)
{
    std::uint8_t key[16] = {0x42};
    std::uint8_t buf[64], separate[64];
    for (int i = 0; i < 64; ++i)
        buf[i] = static_cast<std::uint8_t>(i * 3);
    Aes128 aes(key);
    aes.encryptBlocks4(buf, separate);
    aes.encryptBlocks4(buf, buf); // aliased in/out
    EXPECT_EQ(std::memcmp(buf, separate, 64), 0);

    // The eight-block form too: lineMacs encrypts its lanes in place.
    std::uint8_t buf8[128], separate8[128];
    for (int i = 0; i < 128; ++i)
        buf8[i] = static_cast<std::uint8_t>(i * 5 + 1);
    aes.encryptBlocks8(buf8, separate8);
    aes.encryptBlocks8(buf8, buf8);
    EXPECT_EQ(std::memcmp(buf8, separate8, 128), 0);
}

TEST(Aes128, SetKeyChangesOutput)
{
    std::uint8_t k1[16] = {}, k2[16] = {};
    k2[0] = 1;
    const std::uint8_t pt[16] = {};
    std::uint8_t c1[16], c2[16];
    Aes128 aes(k1);
    aes.encryptBlock(pt, c1);
    aes.setKey(k2);
    aes.encryptBlock(pt, c2);
    EXPECT_NE(std::memcmp(c1, c2, 16), 0);
}

TEST(Aes128, DeterministicAcrossInstances)
{
    std::uint8_t key[16] = {9, 8, 7, 6, 5, 4, 3, 2,
                            1, 0, 1, 2, 3, 4, 5, 6};
    const std::uint8_t pt[16] = {0xde, 0xad, 0xbe, 0xef};
    std::uint8_t c1[16], c2[16];
    Aes128(key).encryptBlock(pt, c1);
    Aes128(key).encryptBlock(pt, c2);
    EXPECT_EQ(std::memcmp(c1, c2, 16), 0);
}

// --- Counter-mode engine -------------------------------------------------

LineData
patternLine(std::uint8_t seed)
{
    LineData line;
    for (unsigned i = 0; i < lineBytes; ++i)
        line[i] = static_cast<std::uint8_t>(seed + i * 7);
    return line;
}

TEST(CtrEngine, RoundTrip)
{
    CtrEngine eng;
    LineData plain = patternLine(3);
    LineData cipher = eng.encrypt(0x1000, 5, plain);
    EXPECT_NE(cipher, plain);
    EXPECT_EQ(eng.decrypt(0x1000, 5, cipher), plain);
}

TEST(CtrEngine, Equation3SymmetricXor)
{
    // decrypt is encrypt: both XOR the same pad.
    CtrEngine eng;
    LineData plain = patternLine(11);
    EXPECT_EQ(eng.encrypt(0x2000, 9, plain),
              eng.decrypt(0x2000, 9, plain));
}

TEST(CtrEngine, StaleCounterFailsToDecrypt)
{
    // Equation 4: the Figure-3/4 inconsistency.
    CtrEngine eng;
    LineData plain = patternLine(1);
    LineData cipher = eng.encrypt(0x3000, 14, plain);
    EXPECT_NE(eng.decrypt(0x3000, 10, cipher), plain);
    EXPECT_NE(eng.decrypt(0x3000, 15, cipher), plain);
    EXPECT_EQ(eng.decrypt(0x3000, 14, cipher), plain);
}

TEST(CtrEngine, AddressIsPartOfTheTweak)
{
    CtrEngine eng;
    LineData plain = patternLine(2);
    LineData c1 = eng.encrypt(0x1000, 7, plain);
    LineData c2 = eng.encrypt(0x1040, 7, plain);
    EXPECT_NE(c1, c2);
    // Decrypting at the wrong address fails.
    EXPECT_NE(eng.decrypt(0x1040, 7, c1), plain);
}

TEST(CtrEngine, PadsAreUniquePerBlockWithinLine)
{
    // The four 16 B AES blocks of one line must use distinct pads,
    // otherwise equal plaintext blocks would leak equality.
    CtrEngine eng;
    LineData pad = eng.makePad(0x4000, 3);
    for (int i = 0; i < 4; ++i) {
        for (int j = i + 1; j < 4; ++j) {
            EXPECT_NE(std::memcmp(&pad[i * 16], &pad[j * 16], 16), 0)
                << "blocks " << i << " and " << j;
        }
    }
}

TEST(CtrEngine, KeyedDifferently)
{
    std::uint8_t k1[16] = {1};
    std::uint8_t k2[16] = {2};
    CtrEngine e1(k1), e2(k2);
    LineData plain = patternLine(5);
    EXPECT_NE(e1.encrypt(0x5000, 1, plain), e2.encrypt(0x5000, 1, plain));
    // Cross-decryption fails.
    EXPECT_NE(e2.decrypt(0x5000, 1, e1.encrypt(0x5000, 1, plain)), plain);
}

TEST(CtrEngine, ZeroCounterIsValid)
{
    CtrEngine eng;
    LineData plain{};
    LineData cipher = eng.encrypt(0x0, 0, plain);
    EXPECT_EQ(eng.decrypt(0x0, 0, cipher), plain);
    // All-zero plaintext at counter 0 is the never-written cell
    // convention: its ciphertext is exactly the pad.
    EXPECT_EQ(cipher, eng.makePad(0x0, 0));
}

// --- MAC known answers ----------------------------------------------------

// The golden digests and fingerprints would all pass unchanged under a
// MAC that changed consistently everywhere, so the tag function itself
// is pinned here: (address, counter, ciphertext) triples with their
// tags under the all-zero key and under the FIPS-197 Appendix C key.
struct MacAnswer
{
    Addr addr;
    std::uint64_t counter;
    std::uint8_t cipherSeed; //!< ciphertext = patternLine(cipherSeed)
    std::uint64_t zeroKeyTag;
    std::uint64_t keyedTag;
};

const MacAnswer macAnswers[] = {
    {0x0, 0, 0, 0x00086b75fff97da0ull,
     0x00f98295787ab29eull},
    {0x40, 1, 3, 0x000b7be4e8e4dedeull,
     0x0053adca996089cfull},
    {0x12340, 0xdeadbeef, 0x5a, 0x00b038c97244ccbfull,
     0x00406bbc7f4e65b0ull},
    {0x1ffffffc0, ~std::uint64_t(0), 0xff, 0x0051f55cbc71dd60ull,
     0x00431db1466e3c32ull},
};

TEST(CtrEngine, LineMacKnownAnswers)
{
    std::uint8_t key[16];
    for (int i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(i);
    const CtrEngine zero_key;
    const CtrEngine keyed(key);
    for (const MacAnswer &a : macAnswers) {
        const LineData cipher = patternLine(a.cipherSeed);
        EXPECT_EQ(zero_key.lineMac(a.addr, a.counter, cipher),
                  a.zeroKeyTag)
            << std::hex << "addr 0x" << a.addr;
        EXPECT_EQ(keyed.lineMac(a.addr, a.counter, cipher), a.keyedTag)
            << std::hex << "addr 0x" << a.addr;
    }
}

// --- MAC kernels against the scalar reference -----------------------------

/** Random (address, counter, ciphertext) MAC inputs. */
struct MacBatch
{
    std::vector<Addr> addrs;
    std::vector<std::uint64_t> counters;
    std::vector<LineData> ciphers;
    std::vector<const LineData *> cipherPtrs;

    MacBatch(std::size_t n, std::uint64_t seed)
        : addrs(n), counters(n), ciphers(n), cipherPtrs(n)
    {
        Random rng(seed);
        for (std::size_t i = 0; i < n; ++i) {
            addrs[i] = lineAlign(rng.next() & 0x1ffffffffull);
            counters[i] = rng.next();
            for (auto &b : ciphers[i])
                b = static_cast<std::uint8_t>(rng.next());
            cipherPtrs[i] = &ciphers[i];
        }
    }
};

const std::uint8_t nonZeroKey[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                     0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                     0x09, 0xcf, 0x4f, 0x3c};

TEST(CtrEngine, LineMacsMatchesLineMac)
{
    // Every batch length from empty through two full batches and a
    // short third (the repeated-lane path), plus one pre-scan shard.
    const CtrEngine eng(nonZeroKey);
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 17; ++n)
        lengths.push_back(n);
    lengths.push_back(256);
    for (std::size_t n : lengths) {
        const MacBatch in(n, 0x1a7e + n);
        // One spare slot past the end must stay untouched.
        std::vector<std::uint64_t> tags(n + 1, 0x5e7);
        eng.lineMacs(in.addrs.data(), in.counters.data(),
                     in.cipherPtrs.data(), tags.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(tags[i], eng.lineMac(in.addrs[i], in.counters[i],
                                           in.ciphers[i]))
                << "n " << n << " line " << i;
        }
        EXPECT_EQ(tags[n], 0x5e7u) << "n " << n;
    }
}

TEST(CtrEngine, MacFinishOfPrefixMatchesLineMac)
{
    // The repair window's shortcut: one prefix per line, one counter
    // step per trial counter, the same tag as the full MAC.
    const CtrEngine eng(nonZeroKey);
    const MacBatch in(4, 0x9f1);
    for (std::size_t i = 0; i < in.addrs.size(); ++i) {
        const CtrEngine::MacPrefix prefix =
            eng.macPrefix(in.addrs[i], in.ciphers[i]);
        const std::uint64_t base = in.counters[i] & 0xffffffffull;
        for (std::uint64_t c = base; c < base + 32; ++c) {
            EXPECT_EQ(eng.macFinish(prefix, c),
                      eng.lineMac(in.addrs[i], c, in.ciphers[i]))
                << "line " << i << " counter " << c;
        }
    }
}

// Property sweep: round-trips hold and wrong counters fail over many
// random (address, counter, payload) combinations.
class CtrEngineProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CtrEngineProperty, RandomizedRoundTrips)
{
    Random rng(GetParam());
    CtrEngine eng;
    for (int i = 0; i < 50; ++i) {
        Addr addr = lineAlign(rng.next() & 0x1ffffffff);
        std::uint64_t counter = rng.next();
        LineData plain;
        for (auto &byte : plain)
            byte = static_cast<std::uint8_t>(rng.next());

        LineData cipher = eng.encrypt(addr, counter, plain);
        ASSERT_EQ(eng.decrypt(addr, counter, cipher), plain);

        std::uint64_t wrong = counter + 1 + rng.below(1000);
        ASSERT_NE(eng.decrypt(addr, wrong, cipher), plain);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CtrEngineProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CtrEngine, PadDistributionLooksRandom)
{
    // Weak statistical check: pad bytes across many counters should
    // not be constant or obviously structured.
    CtrEngine eng;
    std::set<std::uint8_t> seen;
    for (std::uint64_t c = 0; c < 64; ++c) {
        LineData pad = eng.makePad(0x8000, c);
        seen.insert(pad[0]);
    }
    EXPECT_GT(seen.size(), 32u);
}

} // anonymous namespace
} // namespace cnvm::crypto
