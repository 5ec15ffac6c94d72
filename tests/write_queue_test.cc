/**
 * @file
 * Pinned behaviour of the memory controller's write queues.
 *
 * A seeded random op sequence pushes one controller through writes, reads,
 * counter writebacks, event steps and crashes over a small footprint
 * that keeps both queues hot: writes coalesce, pair-block, wait for
 * slots and drain in age order. Every accept/refuse result and the
 * final externally visible state (stats, occupancies, device traffic,
 * the persisted image and counter store, simulated time) fold into one
 * FNV-1a digest per run, compared against a pinned value. The queues
 * are private, so the public API is the only way to observe them; a
 * change to read forwarding, write combining, pair blocking, drain
 * selection or the ADR drain that anything outside the controller can
 * see moves a digest. A change that moves one on purpose updates the
 * table in the same commit and says why.
 *
 * Four configurations run per design, 12 seeds each: the paper's
 * defaults; write combining off, so a line can hold several entries
 * and age order decides which value persists last; 4-entry data and
 * 2-entry counter queues, so nearly every landing waits for a slot;
 * and crashes that lose part of the ADR drain, each preceded by a
 * capture of the same cut onto a copy of the image.
 */

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <sstream>

#include "common/hash.hh"
#include "memctl/mem_controller.hh"
#include "stats/stats.hh"

namespace cnvm
{
namespace
{

enum class Variant : unsigned
{
    Defaults,
    NoCombining,
    TinyQueues,
    PartialAdrDrop,
};

constexpr unsigned numVariants = 4;
constexpr unsigned seedsPerVariant = 12;

const char *
variantName(Variant v)
{
    switch (v) {
      case Variant::Defaults: return "defaults";
      case Variant::NoCombining: return "no-combining";
      case Variant::TinyQueues: return "tiny-queues";
      case Variant::PartialAdrDrop: return "partial-adr-drop";
    }
    return "?";
}

LineData
lineOf(std::uint8_t v)
{
    LineData d;
    d.fill(v);
    return d;
}

/** One controller-under-test with its own clock, device and stats. */
struct Rig
{
    Rig(DesignPoint design, Variant variant)
    {
        MemCtlConfig cfg;
        cfg.design = design;
        if (variant == Variant::NoCombining)
            cfg.writeCombining = false;
        if (variant == Variant::TinyQueues) {
            cfg.dataWqEntries = 4;
            cfg.ctrWqEntries = 2;
        }
        nvm = std::make_unique<NvmDevice>(NvmTiming::pcm(), &registry);
        ctl = std::make_unique<MemController>(eq, *nvm, cfg, &registry);
    }

    EventQueue eq;
    stats::StatRegistry registry;
    std::unique_ptr<NvmDevice> nvm;
    std::unique_ptr<MemController> ctl;
};

/** Full externally visible state, rendered comparable. */
std::string
observableState(Rig &rig, const std::vector<Addr> &lines)
{
    const PersistImage &img = rig.nvm->persistedState();
    std::ostringstream os;
    rig.registry.dump(os);
    os << "tick=" << rig.eq.curTick() << "\n"
       << "dataQ=" << rig.ctl->dataQueueOccupancy()
       << " ctrQ=" << rig.ctl->ctrQueueOccupancy()
       << " landing=" << rig.ctl->landingDepth()
       << " pipeline=" << rig.ctl->pipelineDepth()
       << " inflight=" << rig.ctl->inflightDepth()
       << " reads=" << rig.ctl->outstandingReadCount()
       << " idle=" << rig.ctl->writesIdle() << "\n"
       << "imageLines=" << img.lineCount() << "\n";
    for (Addr addr : lines) {
        os << std::hex << addr << std::dec << ": ";
        if (const LineData *cipher = img.persistedLine(addr)) {
            for (std::uint8_t b : *cipher)
                os << static_cast<unsigned>(b) << ",";
        } else {
            os << "-";
        }
        os << " cc=" << img.persistedCipherCounter(addr);
        CounterLine ctrs =
            img.persistedCounters(rig.ctl->counterLineAddr(addr));
        os << " ctr=" << ctrs[rig.ctl->counterSlot(addr)] << "\n";
    }
    return os.str();
}

/**
 * Runs one seeded op sequence and returns its digest. Ops exercise
 * every queue transition: insert, coalesce, pair-block, wait for a
 * slot, issue (via drains), complete, and crash.
 */
std::uint64_t
runSequence(DesignPoint design, Variant variant, std::uint32_t seed)
{
    Rig rig(design, variant);
    std::mt19937 rng(seed);
    std::uint64_t digest = fnvOffsetBasis;
    auto fold = [&](std::uint64_t v) { digest = fnv1aU64(v, digest); };

    // 24 lines over three counter lines: the queues stay hot, and
    // counter entries both merge and block.
    std::vector<Addr> lines;
    for (unsigned i = 0; i < 24; ++i)
        lines.push_back(0x40000 + static_cast<Addr>(i) * lineBytes);

    auto random_line = [&]() {
        return lines[rng() % lines.size()];
    };

    for (unsigned op = 0; op < 600; ++op) {
        unsigned kind = rng() % 100;
        if (kind < 55) {
            WriteReq req;
            req.addr = random_line();
            req.data = lineOf(static_cast<std::uint8_t>(rng() % 251));
            req.counterAtomic = rng() % 2 == 0;
            fold(rig.ctl->tryWrite(req));
        } else if (kind < 70) {
            rig.ctl->issueRead(random_line(), []() {});
        } else if (kind < 80) {
            fold(rig.ctl->tryCtrWriteback(random_line(), nullptr));
        } else if (kind < 97) {
            // Let simulated time advance a random number of events so
            // entries land, issue, and complete between ops.
            unsigned steps = rng() % 24;
            for (unsigned s = 0; s < steps; ++s)
                rig.eq.step();
        } else if (variant != Variant::PartialAdrDrop) {
            rig.ctl->crash();
        } else {
            // The fork capture of a cut must persist exactly what the
            // crash with that cut then persists in place.
            unsigned drop = 1 + rng() % 4;
            PersistImage copy = rig.nvm->persistedState();
            rig.ctl->drainCut(
                copy, computeDrainKeeps({rig.ctl->ready()}, drop).front());
            rig.ctl->crash(drop);
            EXPECT_EQ(copy.lineCount(),
                      rig.nvm->persistedState().lineCount())
                << "op " << op;
            fold(copy.lineCount());
        }
        // No queue ever holds more entries than it has slots.
        const MemCtlConfig &cfg = rig.ctl->config();
        EXPECT_LE(rig.ctl->dataQueueOccupancy(), cfg.dataWqEntries)
            << "op " << op;
        EXPECT_LE(rig.ctl->ctrQueueOccupancy(), cfg.ctrWqEntries)
            << "op " << op;
    }
    rig.eq.run();

    std::string state = observableState(rig, lines);
    return fnv1a(state.data(), state.size(), digest);
}

/** The pinned digests of one design and configuration. */
struct PinnedRow
{
    DesignPoint design;
    Variant variant;
    std::array<std::uint64_t, seedsPerVariant> digests; //!< seeds 1..12
};

const PinnedRow pinnedRows[] = {
    {DesignPoint::NoEncryption, Variant::Defaults,
     {0xd00498447e57fc59ull, 0x645a8e273d85ac1aull, 0x43d0b8c859c26e36ull,
      0xd1af358eceb6bb95ull, 0x4f9540601acd9d65ull, 0x23c64c097ba8cf11ull,
      0xe8e128ca59a23d86ull, 0x5f991de90dddb8c0ull, 0x92694114f5ad8f83ull,
      0x63bdbdbfc464e238ull, 0x51e5e4094d7288b3ull, 0xe18980a8cb609d59ull}},
    {DesignPoint::NoEncryption, Variant::NoCombining,
     {0x362e528cc8b84c45ull, 0x9504726f097c9136ull, 0xc09474b1635db2e1ull,
      0x4f98ddd63bda30a7ull, 0x7fb94594fe1a523dull, 0x68585da28ec1173full,
      0x3d385879d3c0b680ull, 0x1ae042ba7bcc7e8eull, 0x456b4c7532b40eb1ull,
      0x4f31f81217c4b8d7ull, 0xf4e9be0bc121825eull, 0x8248da5d56b35080ull}},
    {DesignPoint::NoEncryption, Variant::TinyQueues,
     {0x34c8d1dc04d3ef63ull, 0xe7e9a4059297932full, 0xccaac7b3c0afed93ull,
      0xd6d3e5fe6a4ca400ull, 0x4bc2a8f8ebeae33dull, 0xd9794f5536b5aeb7ull,
      0xa5860bfa147f2e35ull, 0x97c06340ea5307baull, 0x244f40bdec0bd5e0ull,
      0xe49a347d50ed636aull, 0x6a2d4c26cdb64b19ull, 0x169b77a3958376caull}},
    {DesignPoint::NoEncryption, Variant::PartialAdrDrop,
     {0x5e447d586c64cf55ull, 0x8ce5da4805b6c207ull, 0x904519c6cb2d3ce4ull,
      0xba5795e9a95dff52ull, 0xf4496237bac6fc0bull, 0xa32739d176e98faaull,
      0x7c2394d1e303d3feull, 0x156350370dfd34e8ull, 0x5a2863fe79b3453full,
      0xc7b65631309d5062ull, 0x141a9b9c6e7ce51cull, 0x666d774e6d1965eeull}},
    {DesignPoint::Ideal, Variant::Defaults,
     {0x78fbb7fcb8331896ull, 0xbd891d37cf58718aull, 0xdc56fe630bad833full,
      0xfd4932cf545e1014ull, 0xc592f88b834f5fceull, 0xab20668a043b4811ull,
      0x04ffa4e99e1ca302ull, 0x4095c83abee524fdull, 0x0162c5c592d28708ull,
      0x9bf5c4e137bf9218ull, 0x31f95db04920632full, 0x4914d63cd9779d44ull}},
    {DesignPoint::Ideal, Variant::NoCombining,
     {0xde4ae47736167909ull, 0xe5928642b0b49789ull, 0x4ec48ad6d1e95a4full,
      0x67da877e3216c562ull, 0x8908691435551447ull, 0xfe7bfd1a122cb3a1ull,
      0x6076558c5b44642aull, 0xe0098341f9f9075dull, 0x92667feb009d9606ull,
      0x7059202c83bd3684ull, 0x6c75e1e71f02ace5ull, 0x0d6be5d9345346efull}},
    {DesignPoint::Ideal, Variant::TinyQueues,
     {0x5aa2043d869f6cddull, 0x99516bc80d1fd90full, 0xfc23ebc27e7ebb48ull,
      0x70abe3764058dcbeull, 0xd0c9e59787c16604ull, 0xfbe82c88407e7923ull,
      0x97d270067e3a3426ull, 0x6f7f8f521445835aull, 0x472c734e26a89934ull,
      0x087f7c27623236e9ull, 0xb9c1f63549258e63ull, 0x89f1db0c55fa58c7ull}},
    {DesignPoint::Ideal, Variant::PartialAdrDrop,
     {0x024f206690424fa5ull, 0xf267a03e35489847ull, 0x8fd288710b93b372ull,
      0x3a07e320bce018e8ull, 0xbb3c7800492d39f4ull, 0x1d76fe5c19baae3aull,
      0x301490c68a13edabull, 0x4f61be95411c8de5ull, 0x7dd81f1534983b13ull,
      0xdc60433e2836ba94ull, 0xcb65172eb67503b2ull, 0x709e4f752aec8b2full}},
    {DesignPoint::Colocated, Variant::Defaults,
     {0x720b87202dd20b03ull, 0x9cfe87d4232bffecull, 0x9b5d89c464ca754aull,
      0xd32793e923d9ff7bull, 0xad48c2deefbceb69ull, 0x0a11a5b9b1b9eb4eull,
      0x457d62af5d875624ull, 0x3afd8b23d0f189bbull, 0x2c7f5107cc512546ull,
      0x7101944843f2f748ull, 0x225e5d467c380e5dull, 0x8a85b7bd81110577ull}},
    {DesignPoint::Colocated, Variant::NoCombining,
     {0x5644c3684ae5a44cull, 0xba6bb8e9e96e2493ull, 0x6f7280d8640e9a94ull,
      0xdb89ef2c96e1d5b2ull, 0x2f37e22679adef31ull, 0x980e560f2564b419ull,
      0xfefbc222fc8dde58ull, 0x92de88774c33e509ull, 0xbd7d63513751445full,
      0x27c8d5739426b019ull, 0x3d1e3ee134b54cc1ull, 0x507473515df7805full}},
    {DesignPoint::Colocated, Variant::TinyQueues,
     {0xf77a6fdca644a9afull, 0x7730841c95a3302aull, 0xaef1bd68d4a222c1ull,
      0x536d599448a7a66aull, 0x447c254db24c2179ull, 0x7aaee23106b504f2ull,
      0x276d3b329ca4fc99ull, 0xc0bd9038805a857bull, 0x7f5e64db9473d215ull,
      0x3f5b2c07ce5e9eefull, 0xd5448a4f39c44fd4ull, 0x2437940c699142caull}},
    {DesignPoint::Colocated, Variant::PartialAdrDrop,
     {0xcd651c19e6d76f86ull, 0x3279755dc48152e9ull, 0x931bb0e84f285548ull,
      0xe30a1cbbcafe0250ull, 0x6849c0c11ea2940aull, 0x5a6373bd8d49f3f4ull,
      0x8be9797b77aa1a39ull, 0xc31f8d2588f7de0aull, 0x0398f3a42be02278ull,
      0x0f655c92190b6f06ull, 0xcd1c67c543fbd729ull, 0x7b2a64eafd987612ull}},
    {DesignPoint::ColocatedCC, Variant::Defaults,
     {0x4ce09d2b5b6df57dull, 0x86401b5e01780fc8ull, 0xfb922467bd27f528ull,
      0x3e012ca3d93517d4ull, 0xc29ffd0adcb44b02ull, 0x632955ce378937f2ull,
      0xedb523d3ebaaa442ull, 0x422d626f238b70f8ull, 0x5e1303be9cae7dcdull,
      0x15dfac5cc1f96e58ull, 0x9871172396933d1bull, 0x8a904d97386eda24ull}},
    {DesignPoint::ColocatedCC, Variant::NoCombining,
     {0x57786574afbb025cull, 0x6fb51520bf2d2906ull, 0x3101923032f0b640ull,
      0xca547d1dec5d85b1ull, 0xd3d36c66c4a6f0a4ull, 0x18931e999854ea73ull,
      0xb03febc9a40e01c4ull, 0x33a00cc778a43a9eull, 0x4edd5d064732e719ull,
      0x821f1688170c1751ull, 0x85197319ea8f357dull, 0xed53734217f35526ull}},
    {DesignPoint::ColocatedCC, Variant::TinyQueues,
     {0x16d062753a43dc19ull, 0xc18a34c551a070e8ull, 0xf215d68abfa65ec7ull,
      0x0b329988244f6d90ull, 0x6addd61855779742ull, 0x943d9dc6cf1e1ac7ull,
      0x32ed21abb888d639ull, 0x74b78cb859ed512cull, 0x40d46805833e49a5ull,
      0x84c229a47543531full, 0x660aec4975c0c226ull, 0x286dcd60d8fd8a46ull}},
    {DesignPoint::ColocatedCC, Variant::PartialAdrDrop,
     {0x8571a668673ac0ceull, 0xad1dee285d789ad5ull, 0x08cf0d4889a951e1ull,
      0x21642e22b102cb79ull, 0x9cf1745184bf4542ull, 0xeaf0b146286d4cbeull,
      0x344963a631a1cd89ull, 0x4ac45a41da6b6a85ull, 0x55764d464d1ee9b7ull,
      0x118c3f447df76173ull, 0x7c12a092de8bbc28ull, 0x95ab5e69dcf257ffull}},
    {DesignPoint::FCA, Variant::Defaults,
     {0x9a1cd71c383435c1ull, 0x163dea9d71210de1ull, 0x4d5f3833302ee310ull,
      0x68a247a7ec3502ddull, 0xa2556051978f5956ull, 0x6d0495b4ab734830ull,
      0x17a35cb175b74680ull, 0x9ee8130b5f6e1bacull, 0x90da82389899aa94ull,
      0x8c1e7564adc487dcull, 0xa3b3296ddd28febcull, 0xa6869d4b97acb75aull}},
    {DesignPoint::FCA, Variant::NoCombining,
     {0x4cfe46c8d9dd8ef7ull, 0x0c0350df2d126375ull, 0x404fabe776efeb49ull,
      0x689335cd7de28a1cull, 0xfc6f367e6c8131c9ull, 0x95cddc1f6b42b2d0ull,
      0x794fd97e4182a949ull, 0xb704b897628f08deull, 0x4d57356874fd1e7cull,
      0x2024c5d513e59824ull, 0x69248826d9992ad8ull, 0xabe102e7e8986ca5ull}},
    {DesignPoint::FCA, Variant::TinyQueues,
     {0xcd92f6af63cbeb6aull, 0x4b4c92a1c812b2c6ull, 0x6a3a4d7648ccafe2ull,
      0x19ebded7bc939723ull, 0x6431eb1aa1bade4cull, 0xd4f146372561ba49ull,
      0x04eb25d8f16eefb7ull, 0x01ce8c696384bea2ull, 0x9bc59b3f47e308a3ull,
      0x96a0177289520124ull, 0x2c0e8a0cf28a8603ull, 0xe71294d2c33d30d4ull}},
    {DesignPoint::FCA, Variant::PartialAdrDrop,
     {0x726631b0cb1743f3ull, 0x5833b7a6c18a3829ull, 0x269275d5a5698d95ull,
      0x21be7d4eb2561080ull, 0xa3e0cb18f144888cull, 0xc98fca614ee901e8ull,
      0xe8e11430b45d51daull, 0x5874059155f5f950ull, 0xd37253f47f4f1bafull,
      0x3e0d1059b72c85a3ull, 0x91891e6cec210ca5ull, 0x9d9b38f5028f761eull}},
    {DesignPoint::SCA, Variant::Defaults,
     {0xd1b4dfa1fd62a160ull, 0x73435444c80a534aull, 0x127b69daf35ab71full,
      0xa2e0ffbc88108727ull, 0xf5d351e7a049aa18ull, 0x23e3b7aecbdcf15bull,
      0xcecc903047a128a1ull, 0xeb5f96cb851ba810ull, 0x6735045948e74aa9ull,
      0x0e66a34b81e6234aull, 0xd0f9c0f9d5cea2f4ull, 0xd68be7fc69b18371ull}},
    {DesignPoint::SCA, Variant::NoCombining,
     {0x0a6ba5f1aba80045ull, 0x37ba5e2e4370ebe8ull, 0xf897e00417e619edull,
      0xa52f27373b58de38ull, 0x35b083b7f143e6a1ull, 0x1dfd476cd990e209ull,
      0x0c5d08b8b4a996c1ull, 0xba3326b8f234b3efull, 0xc79b0cd70dfc8d47ull,
      0x3ca0a725729b115cull, 0xe1f31422501a32edull, 0xda3d8f206d21baceull}},
    {DesignPoint::SCA, Variant::TinyQueues,
     {0xd6829ddbb04bc0afull, 0x4109dd3aeee18cfcull, 0x633d75c5697c3714ull,
      0x864565b4d6bc31ebull, 0x282509cda10c29a3ull, 0x059c3ff7b0896f87ull,
      0x6e584f51916cde87ull, 0x5a17e357ee9f70beull, 0xb525c5669c1e7630ull,
      0x5aeae4a03437e53aull, 0x3fe011aeecc057d1ull, 0xf23d9a79f7a3d9b7ull}},
    {DesignPoint::SCA, Variant::PartialAdrDrop,
     {0x1c070f17b6390f15ull, 0xd06b1f85b0e0b5cfull, 0x6ac200ec878e8ab9ull,
      0x357ffd928be28847ull, 0xc10551b00b12b932ull, 0xf923b0a0183d04e7ull,
      0x14dd2eaf34d1cd70ull, 0x0054137b582af10dull, 0x0c372099c83472dcull,
      0x2226822f08839a53ull, 0xe6e8593a95811bf6ull, 0x9f9ebc9eca527ea8ull}},
    {DesignPoint::Unsafe, Variant::Defaults,
     {0xf1fb5d45c9a7629aull, 0xc3a3bbd4f6ab1d26ull, 0xccd183a10f03b553ull,
      0xf97f4847f3023c4bull, 0x75b5bb1978ba392eull, 0x42de24c203ac5470ull,
      0x1713e7c99587d5a3ull, 0x48681968b7ed872cull, 0x52fd6870b026be62ull,
      0x5198f8b6c4c15872ull, 0x9aea8c89a610b247ull, 0x5186b8dbacebb96eull}},
    {DesignPoint::Unsafe, Variant::NoCombining,
     {0x1c67b90bbaa5c5cdull, 0x34842657d0edd172ull, 0x4c798c208062dec4ull,
      0xe74a63ac50da7b2dull, 0x84cc88e565811b04ull, 0x70a2f7c502e5afe9ull,
      0xcc33571879301256ull, 0x87d73b06692d8d0dull, 0x60bb1f780de9f675ull,
      0x8584f27cffe045e4ull, 0x4a611bdac2ed6066ull, 0x6015dc4aed12e534ull}},
    {DesignPoint::Unsafe, Variant::TinyQueues,
     {0xfe60f7839f412016ull, 0xc8bf0eb4fba52a8eull, 0xf9c7deb0bd8b1dceull,
      0x793fa36cc65acd47ull, 0x894df01bec8b67e7ull, 0x54f4e686f1f87231ull,
      0xf5eefa2b1f7eecc4ull, 0x26982e6fc98d38f3ull, 0x2067af1010fe84cbull,
      0x5bd6016d53f89391ull, 0x0704447c543af326ull, 0xd44b78b035c70323ull}},
    {DesignPoint::Unsafe, Variant::PartialAdrDrop,
     {0x37489d5a3d3004fbull, 0x580d35ba676437bdull, 0xf0e5ab9d1515c9fdull,
      0xec617431f573cfb7ull, 0xe91468e34abba941ull, 0x5673d5e5cd06994aull,
      0x8c5650afa17e81bbull, 0x3bd5db4d58ba66beull, 0x748bb468855a2e7dull,
      0x2467eb8ab16eb301ull, 0x3daa6ca6268a6db9ull, 0x51a68053f9f310d1ull}},
};

/** Runs every pinned configuration of @p design. */
void
expectPinned(DesignPoint design)
{
    unsigned rows = 0;
    for (const PinnedRow &row : pinnedRows) {
        if (row.design != design)
            continue;
        ++rows;
        for (std::uint32_t seed = 1; seed <= seedsPerVariant; ++seed) {
            std::uint64_t got = runSequence(design, row.variant, seed);
            EXPECT_EQ(got, row.digests[seed - 1])
                << designName(design) << " " << variantName(row.variant)
                << " seed " << seed << ": digest 0x" << std::hex << got;
        }
    }
    EXPECT_EQ(rows, numVariants);
}

TEST(WriteQueue, RandomSequenceNoEncryption)
{
    expectPinned(DesignPoint::NoEncryption);
}

TEST(WriteQueue, RandomSequenceIdeal)
{
    expectPinned(DesignPoint::Ideal);
}

TEST(WriteQueue, RandomSequenceColocated)
{
    expectPinned(DesignPoint::Colocated);
}

TEST(WriteQueue, RandomSequenceColocatedCC)
{
    expectPinned(DesignPoint::ColocatedCC);
}

TEST(WriteQueue, RandomSequenceFca)
{
    // FCA pairs every write: maximal counter-queue pressure and
    // frequent pair blocking.
    expectPinned(DesignPoint::FCA);
}

TEST(WriteQueue, RandomSequenceSca)
{
    expectPinned(DesignPoint::SCA);
}

TEST(WriteQueue, RandomSequenceUnsafe)
{
    expectPinned(DesignPoint::Unsafe);
}

} // anonymous namespace
} // namespace cnvm
