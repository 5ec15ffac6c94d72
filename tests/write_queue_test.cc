/**
 * @file
 * Pinned behaviour of the memory controller's write queues.
 *
 * A seeded random op sequence pushes one controller through writes, reads,
 * counter writebacks, event steps and crashes over a small footprint
 * that keeps both queues hot: writes coalesce, pair-block, wait for
 * slots and drain in age order. Every accept/refuse result and the
 * final externally visible state (stat values, occupancies, device
 * traffic, the persisted image and counter store, simulated time) fold
 * into one FNV-1a digest per run, compared against a pinned value. Stat
 * descriptions are left out, so rewording one moves no digest. The queues
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
    // Every dumped value, without the " # ..." description text: a
    // reworded description is not queue behaviour.
    std::ostringstream dump;
    rig.registry.dump(dump);
    std::istringstream dumped(dump.str());
    for (std::string line; std::getline(dumped, line);)
        os << line.substr(0, line.find(" # ")) << "\n";
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
     {0x8aa9aabb4382ce0cull, 0x7619c9bfc82b8493ull, 0x0b3bf98822bf8cb7ull,
      0xcc4568e2fc0ece20ull, 0x26e50f11f32f1a32ull, 0x06f99144b2111c56ull,
      0x9fde59dc80710bb5ull, 0xa73dcc3811018ba1ull, 0x3612c1f7a27d4ba2ull,
      0x7bcec8f3225ebe9dull, 0x7bfa7beaea1168baull, 0xecc93fd24ee0e830ull}},
    {DesignPoint::NoEncryption, Variant::NoCombining,
     {0xb30ac5b627b0f682ull, 0x15f33e5fea37eef1ull, 0xef742dc5e86188daull,
      0x464dffc97554fe2aull, 0x3d1d05fcc6978116ull, 0x109cdf979b7e60acull,
      0x29e54df0c224e87full, 0xa56e308337737555ull, 0x1ee4e716f7843e32ull,
      0xba59ec3921bf1bf2ull, 0xe2c1446e725b7557ull, 0x11b393456dcb3fbfull}},
    {DesignPoint::NoEncryption, Variant::TinyQueues,
     {0xa58ee41d2e789a40ull, 0xb29bb47b86559650ull, 0xbce00ba4a5389facull,
      0xcdccaeb36d4c1d27ull, 0xbc92bbb7cab104b0ull, 0x626023e03c8c7512ull,
      0x25ccbdba1b746f66ull, 0xbccb0895168df5b5ull, 0x02d830e8700946c3ull,
      0x2f18b4f0bf8c5783ull, 0xd57c141d15aba3bcull, 0x2dac3484f12d06d5ull}},
    {DesignPoint::NoEncryption, Variant::PartialAdrDrop,
     {0x4d3f2d37c7c2145cull, 0xd5368e67f1682258ull, 0x50662dbd3a2a3143ull,
      0x3680e412b31ff2d5ull, 0xd5027a5a46ea02e2ull, 0x7e71fd2507a969e3ull,
      0xda9d0da16d31637full, 0x47b1c84332243a67ull, 0xf9f5efb67979c9caull,
      0x3c1993a85143240bull, 0xc5877d8b9254d663ull, 0xdba00e69001fa8d3ull}},
    {DesignPoint::Ideal, Variant::Defaults,
     {0xe6f573d6917ef230ull, 0x97bca6f2d295e5eaull, 0xe38d54fc1902a231ull,
      0xc7c5adf011a0f460ull, 0x96b02cf452feade8ull, 0x60979b0aa5fc1a63ull,
      0x5394f5ed2f52a7aeull, 0x82b7540fd2bdc95full, 0xec66955fd46771acull,
      0xd5e508011a45ecdaull, 0xfd7b04d1ee9d6f19ull, 0xce009029292631c6ull}},
    {DesignPoint::Ideal, Variant::NoCombining,
     {0xd575f9f46d353485ull, 0x93b8d5337be345b3ull, 0x576b3a8edd106adbull,
      0xa8b6a3f3d813ab2aull, 0x9830f469a5370de9ull, 0x218a85b79f953085ull,
      0x093b724547c6a4b6ull, 0x6cca3c8d5d41dc0bull, 0x974d47cf28215b38ull,
      0x4eed5a4131a495bcull, 0x7a116ecd49df60b3ull, 0xec409dd4ff965dedull}},
    {DesignPoint::Ideal, Variant::TinyQueues,
     {0x918c31cd4433bf73ull, 0x30a43741899e922full, 0xa6ec1077571988acull,
      0x5897918396a65a56ull, 0xde6b0fc7848ad0b0ull, 0x1d60540afa6d43adull,
      0x68f60960de247550ull, 0xc5b83408fa4040f8ull, 0xe6de961db2424af2ull,
      0x2687f514800bc57full, 0x0ad48fa564042b7dull, 0x8388d97e2049d3f9ull}},
    {DesignPoint::Ideal, Variant::PartialAdrDrop,
     {0x83520b7dd6d37c95ull, 0xa43065ac5377a3dfull, 0x17981dc5815d3fb0ull,
      0x6c3117ecf9b0bcc0ull, 0x1b546f95766ec782ull, 0x4426adf7e1030960ull,
      0x56cc139410a58df5ull, 0xcc64e994befab545ull, 0x46dcad192c75ce95ull,
      0x5f4153202de7fed6ull, 0xaa85d18f5cbdfc58ull, 0xaa8b0403ee5ade33ull}},
    {DesignPoint::Colocated, Variant::Defaults,
     {0x99012b711dc820ceull, 0x8f6b52abf0c53417ull, 0x62aaec8e0b04542dull,
      0x1755f289d3ec7960ull, 0x0cdd71f710a16b8eull, 0x926760fee8694675ull,
      0x336f5f0b239624fbull, 0x3e0f0e24ef2f6594ull, 0x9613308c77e91a67ull,
      0x900cbe9e13ddaa71ull, 0x3e5fb333760d17ceull, 0x8f6683f603109e74ull}},
    {DesignPoint::Colocated, Variant::NoCombining,
     {0x0dbf32a71d654de7ull, 0x5b23ae82ca37845cull, 0x5e5aad6c965890ebull,
      0xa70652221861def9ull, 0x5ba027e169621554ull, 0xa454237dbc1d95fcull,
      0x36cc3b48abb85a4full, 0x9b66058b35880d12ull, 0x6949a96032c2f57eull,
      0x5fa72ccfccde261cull, 0xf04f4f72b04609deull, 0x5084bde44451ade6ull}},
    {DesignPoint::Colocated, Variant::TinyQueues,
     {0xa400ada762e6fa64ull, 0x83f558c9b8dfe23dull, 0xe416db686a924aa2ull,
      0xf9c81e7dce56ae67ull, 0x242bbe1a99202ff6ull, 0xcd7ef5c594d856c1ull,
      0x9fab551da948e2faull, 0x09c22045062040acull, 0x720ee6fbca836266ull,
      0xe9d50854ef091abeull, 0xd707e499a71b0dabull, 0xdae79eb8cbe544a7ull}},
    {DesignPoint::Colocated, Variant::PartialAdrDrop,
     {0x67bad1704f934455ull, 0xda55cd1bb0ac52a2ull, 0x30861b9f8277edc7ull,
      0x287f225042c175dfull, 0x8853c183244ef811ull, 0xc0d1232b866d06a3ull,
      0xf14d692b98d11236ull, 0xecb2cb6418b666a9ull, 0x3157ef9aaa91d4d9ull,
      0x263c870fa77fd955ull, 0xef7a8ccf15d33f72ull, 0xe28dc635aa13b14dull}},
    {DesignPoint::ColocatedCC, Variant::Defaults,
     {0xd0a26460697e9f89ull, 0xf8c1a6a51194d50eull, 0xc0c6faa988ed78baull,
      0x0254036849c10082ull, 0xd207bc6a2f528434ull, 0x2e856cf5ec394392ull,
      0x50bc4739f9d490baull, 0xcc6dce099a707cf2ull, 0x2b0094254e119db9ull,
      0xaf6be39aef56cd0cull, 0x4be88bedcd7e1f0bull, 0x6f6ecb040148161cull}},
    {DesignPoint::ColocatedCC, Variant::NoCombining,
     {0xa2156507b73089e4ull, 0x89659aa410fa491eull, 0x084831d5145cfa82ull,
      0x5469b6edddf0e1f9ull, 0xaf4c0c658afddce0ull, 0x1365e42f9543e0cdull,
      0x0a3e397edb49f7d2ull, 0x08e046f14a6fc024ull, 0xaa0346d2c6a328e3ull,
      0x0a2731c468c5f823ull, 0x3b663dcc0186ce97ull, 0x949b751f965542c2ull}},
    {DesignPoint::ColocatedCC, Variant::TinyQueues,
     {0xe9252857447cddddull, 0xfb03b7364dc3547cull, 0x50abcdf4b4eda455ull,
      0xb455b49719d82af6ull, 0x250af7e75a09a1eeull, 0x3867d28f6f694209ull,
      0x8be8786579c00559ull, 0xfa54fc36cebd8a32ull, 0xf5610d44fb6e455full,
      0x38264e2d369a07e3ull, 0x414f505e564fcfccull, 0xba0d89d009598456ull}},
    {DesignPoint::ColocatedCC, Variant::PartialAdrDrop,
     {0xf2c2e9b44b101e8cull, 0x62680098a917f327ull, 0xd887c81bef7e1ce1ull,
      0x37a1fb0dcaa187d3ull, 0xfb515f860a43e136ull, 0xb758655861c2447aull,
      0xee974605803091e7ull, 0x1cec1238283d93ebull, 0x44c7af0bbfebb4b5ull,
      0x28299eb07a8a0a3full, 0x0c4eb48b7e224bf0ull, 0xb792dd05b653e6fbull}},
    {DesignPoint::FCA, Variant::Defaults,
     {0xd6994a46cdcedb81ull, 0x3599367d2360b3edull, 0x6903e35b8c5226deull,
      0xc9ce8a8fa7717b7dull, 0x08e05da0382299fcull, 0x1b35b50014753c3aull,
      0x142cc4929e6665eaull, 0x15d1a053fb889fe6ull, 0x9c721dd36c5d73b0ull,
      0xe75432a053d952beull, 0xedeb3deaf3bba186ull, 0x7130986c635e8e18ull}},
    {DesignPoint::FCA, Variant::NoCombining,
     {0x63b3e55ee2381a65ull, 0xd5fa62035c2046d1ull, 0x38110f8d96072f7dull,
      0xe92c4e14cf358198ull, 0xc9e63a75257c58f9ull, 0x23a768e657ea1a48ull,
      0x8ca5517e39b1e8ebull, 0x5dab28457871cc3aull, 0x304f0e2e0dd540d4ull,
      0x45724ba90fbf2aeeull, 0xc19824296a88b886ull, 0x8bceb274f65ea6b9ull}},
    {DesignPoint::FCA, Variant::TinyQueues,
     {0x92a73098ca7b78b0ull, 0x9f5f6517c3107c46ull, 0xe601fbb0b10fb4ccull,
      0xf2b63568c7637cbbull, 0xc15b8d0c85c356e8ull, 0x304e9f2637aeaf6dull,
      0xec2640f8202dc9ebull, 0x339bdabe573c3f20ull, 0xc9f492781c871947ull,
      0x2513636c3aeca618ull, 0xf191890218ce063bull, 0x1c9721ae20c57ec4ull}},
    {DesignPoint::FCA, Variant::PartialAdrDrop,
     {0x52540d98400d437bull, 0x0d4f6719ac18a007ull, 0x46d4aaa78d9d2377ull,
      0xa5a6d1d759b1bf9aull, 0x708e9ee3be866c14ull, 0xe26c0dedb2ec3a94ull,
      0x30a68b6366714a8eull, 0x820541da5769edccull, 0x3a3cca309191cc87ull,
      0x6272b8c30e6a6195ull, 0xcf5e3709030558a3ull, 0x7400f5d40a54731cull}},
    {DesignPoint::SCA, Variant::Defaults,
     {0x43294682a97511f2ull, 0x80eeb1f923bfe97eull, 0xb0e330ec5f9ce935ull,
      0x1fdd2f5a578fc8afull, 0xdbe4778757b800b2ull, 0x803685661faaaca5ull,
      0x120eb1671a630987ull, 0xa4e7cfd45b40a700ull, 0x4554c4d57d4a7c7bull,
      0x5bd3561b82b3fa24ull, 0xb16e1bd639a0570cull, 0xf65c3d5577d9b635ull}},
    {DesignPoint::SCA, Variant::NoCombining,
     {0x11bf71f5e9e75f97ull, 0xbee539406b153c80ull, 0xdb3bc22d42bbf849ull,
      0x557504ed84436360ull, 0x5bc521f9832b1347ull, 0xe13d557aab7313dbull,
      0xe2469fa1537540fbull, 0xb683feca9f383f37ull, 0xdaf57a162231710full,
      0x516fe5340d54bb84ull, 0xe60efee30708d5bdull, 0x85536e6b49265466ull}},
    {DesignPoint::SCA, Variant::TinyQueues,
     {0xb6f95e813bd020dfull, 0xcc49b274523469f6ull, 0xc4a80f5a2ed8c122ull,
      0xd7f1f71cab1d37b9ull, 0x1a81ff2b22124351ull, 0xbb28e9c8c0f6896dull,
      0x92139563960a6783ull, 0xa54e055377a81edcull, 0xbb1dfab5215bfff2ull,
      0x8710f32cf3159402ull, 0xa31e2b1239124eedull, 0x4e54412578f99899ull}},
    {DesignPoint::SCA, Variant::PartialAdrDrop,
     {0x067bc9b38a77a3c1ull, 0x612c47c82b5627b7ull, 0x861e98175c8a2d4dull,
      0x62a2fabcad33c347ull, 0x4554538b6799390aull, 0x5da959eafad941edull,
      0xd5ed1d5758e37254ull, 0x44a98091c8935059ull, 0xd2ea718a356304b4ull,
      0xe5419aa76d18d5afull, 0x4e98655f4320df7cull, 0x53541f49a4144a42ull}},
    {DesignPoint::Unsafe, Variant::Defaults,
     {0x74d6bb9297ef4278ull, 0xfed35b360d195110ull, 0x222f65280497e323ull,
      0x74d147b2b585afb9ull, 0xe5b6c911919be9b4ull, 0x84db47bba3fc76a2ull,
      0x746c7b4fb7ec6261ull, 0xc285760c5c112d88ull, 0x03744d1c8c01de64ull,
      0x3db5736c594259deull, 0xb95571bfef6b2735ull, 0xc3d1a890c3ae5f3eull}},
    {DesignPoint::Unsafe, Variant::NoCombining,
     {0x3c9fa2e36385c5c7ull, 0xf2699bae4edbf03aull, 0x0b547c73dacff7eaull,
      0x3a44205e5da82855ull, 0x87761ddd58aab616ull, 0x44060a32148ea447ull,
      0x8eeb4cbd002ee6d6ull, 0xd5900dc6770e419full, 0xc57551f309ec90fbull,
      0x96f437a6ba3ca160ull, 0xfd17b7686d9dbe26ull, 0xfe148065f60a7338ull}},
    {DesignPoint::Unsafe, Variant::TinyQueues,
     {0x657844601ab8c11cull, 0xee38efb125aafe02ull, 0x14416b57228b92a6ull,
      0x6a1abacf0d8cd21full, 0x74ba65101b04808dull, 0xb028cd08466afecfull,
      0x43e5ed17ff9549faull, 0x93aa19e551d4e1e1ull, 0xaf2a4877cb5776b1ull,
      0x679701f5281288afull, 0x03619d494af82cdaull, 0x1a6e1dc3a84f3e63ull}},
    {DesignPoint::Unsafe, Variant::PartialAdrDrop,
     {0xfccee54d3b94e11full, 0x22ad32b46dafeeddull, 0x6bd7a7152e85016bull,
      0xd782c8c06f328a9full, 0x05024df34a9b272full, 0x1200624f4c86f11cull,
      0x2b1df99a9ec5f3dfull, 0x15c65c04d62326a6ull, 0x4a9eeb7ff3552da5ull,
      0x3aed6363e69b3319ull, 0xd9303b987c374d67ull, 0x7dcc6220c6d31491ull}},
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
