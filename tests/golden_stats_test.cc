/**
 * @file
 * Golden digests of the simulator's observable results.
 *
 * Each test runs one canonical configuration and compares an FNV-1a
 * digest of its full output — the StatRegistry dump of a run, the
 * fingerprint of a fault- and replay-dosed fork sweep, the fingerprint
 * of a dosed soak chain — against a pinned value. Host-side changes
 * (data structures, parallelism, allocation) must leave every digest
 * untouched. A change to the timing model or to recovery semantics
 * moves them on purpose: such a change updates the constants here in
 * the same commit and says why.
 *
 * On a mismatch the test prints the new digest and the output it was
 * computed from, so the diff can be reviewed instead of guessed.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "common/hash.hh"
#include "core/crash_sweep.hh"
#include "core/soak.hh"
#include "core/system.hh"

namespace cnvm
{
namespace
{

std::uint64_t
digestOf(const std::string &text)
{
    return fnv1a(text.data(), text.size());
}

/** Fails with the new digest and the text it covers when @p text does
 *  not hash to @p golden. */
void
expectGolden(const std::string &what, const std::string &text,
             std::uint64_t golden)
{
    const std::uint64_t got = digestOf(text);
    EXPECT_EQ(got, golden)
        << what << ": digest 0x" << std::hex << got << " != golden 0x"
        << golden << std::dec << "\n--- output ---\n"
        << text;
}

/** One 1-core canonical run per paper design: the hash table (the
 *  write-heavy workload, so the counter cache and both write queues
 *  stay busy). */
SystemConfig
designConfig(DesignPoint design)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.workload = WorkloadKind::HashTable;
    cfg.wl.regionBytes = 1 << 20;
    cfg.wl.txnTarget = 400;
    cfg.wl.computePerTxn = 200;
    cfg.memctl.counterCacheBytes = 16 << 10;
    return cfg;
}

std::string
statsDumpOf(const SystemConfig &cfg)
{
    System sys(cfg);
    sys.run();
    std::ostringstream os;
    sys.statsRegistry().dump(os);
    return os.str();
}

struct DesignGolden
{
    DesignPoint design;
    std::uint64_t digest;
};

/** Names the parameter by its design, so test listings stay stable
 *  (gtest would otherwise print the struct's raw bytes, padding
 *  included). */
void
PrintTo(const DesignGolden &g, std::ostream *os)
{
    *os << designName(g.design);
}

class GoldenDesignDump : public ::testing::TestWithParam<DesignGolden>
{
};

TEST_P(GoldenDesignDump, StatsDumpMatches)
{
    const DesignGolden &g = GetParam();
    expectGolden(designName(g.design), statsDumpOf(designConfig(g.design)),
                 g.digest);
}

INSTANTIATE_TEST_SUITE_P(
    PaperDesigns, GoldenDesignDump,
    ::testing::Values(
        DesignGolden{DesignPoint::NoEncryption, 0x5888c77ef0765a79ull},
        DesignGolden{DesignPoint::Ideal, 0xc118104ada1d680eull},
        DesignGolden{DesignPoint::Colocated, 0x73de605f44ed3c24ull},
        DesignGolden{DesignPoint::ColocatedCC, 0x03ce5681ed482af3ull},
        DesignGolden{DesignPoint::FCA, 0x0848b270896c3a85ull},
        DesignGolden{DesignPoint::SCA, 0x8d46d004c12421faull}),
    [](const ::testing::TestParamInfo<DesignGolden> &info) {
        // Test names allow only alphanumerics ("Co-located w/ C-Cache").
        std::string name;
        for (char c : std::string(designName(info.param.design)))
            if (std::isalnum(static_cast<unsigned char>(c)))
                name += c;
        return name;
    });

TEST(GoldenStats, ScaHashFourCoresFourChannels)
{
    SystemConfig cfg = designConfig(DesignPoint::SCA);
    cfg.numCores = 4;
    cfg.numChannels = 4;
    cfg.wl.regionBytes = 512 << 10;
    cfg.wl.txnTarget = 150;
    cfg.memctl.counterCacheBytes = 32 << 10;
    expectGolden("SCA/hash/4c4ch", statsDumpOf(cfg),
                 0xab365d8bf9a06eacull);
}

/** The recovery-side machine: small ArraySwap region with digests,
 *  MAC and integrity tree armed. */
SystemConfig
armedConfig()
{
    SystemConfig cfg;
    cfg.design = DesignPoint::SCA;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.wl.regionBytes = 256 << 10;
    cfg.wl.txnTarget = 30;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.wl.setupFill = 0.3;
    cfg.memctl.counterCacheBytes = 16 << 10;
    cfg.memctl.integrityMac = true;
    cfg.memctl.integrityTree = true;
    return cfg;
}

TEST(GoldenStats, ForkSweepFingerprintMacAndTree)
{
    SweepOptions opt;
    opt.points = 16;
    opt.mode = SweepMode::Fork;
    opt.faults = FaultSpec::allKindsWithReplays(13);
    expectGolden("fork sweep", runSweep(armedConfig(), opt).fingerprint(),
                 0x448735a965f42d00ull);
}

TEST(GoldenStats, SoakChainFingerprint)
{
    SoakOptions opt;
    opt.cycles = 5;
    opt.txnsPerCycle = 8;
    opt.seed = 3;
    opt.faults = FaultSpec::allKindsWithReplays(17);
    expectGolden("soak chain",
                 runSoakChain(armedConfig(), opt).fingerprint(),
                 0x6b30cd52425171a4ull);
}

} // namespace
} // namespace cnvm
