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
     {0x658a876e7a6aed3bull, 0x5ed40e426f779f84ull, 0x209cd8702814a524ull,
      0x60154bf01d625e8full, 0x1e5179d56d69cdafull, 0xe7cc80ee610323efull,
      0xed003f57c2fe3d80ull, 0x4606c96a832ca646ull, 0xbbaf6c9038a2fea5ull,
      0x07ba0b5f26c3285aull, 0xcff484da96e45005ull, 0x726085b014202fdfull}},
    {DesignPoint::NoEncryption, Variant::NoCombining,
     {0xe00d4442c81ca02bull, 0x7b4b0d84eb47d3c0ull, 0xf01c51aebe4cf813ull,
      0x5777174bb04fb271ull, 0x70965db9799a2b77ull, 0x76249e4a24e4d329ull,
      0x49b35abf45bca972ull, 0x440e67023d38cff8ull, 0x49c50c9055f8f263ull,
      0x5c43d8ff4ce08f35ull, 0xf61f2d79d522021cull, 0x07b274ba2e5e5b3aull}},
    {DesignPoint::NoEncryption, Variant::TinyQueues,
     {0x241f3a9eb25f5d4dull, 0x73e970145de86c71ull, 0x0a4de384f55e4d2dull,
      0x69811877540ec232ull, 0xbc6a63b395b0d4f7ull, 0x34991d247e4a74b9ull,
      0xd3648a9ece30027full, 0xc7ee85bab2c37a1cull, 0x0f984b1c09f5f28aull,
      0xcd1c63a40ed39540ull, 0x03fbf906a3b72dd7ull, 0x84e40a23f0173ef0ull}},
    {DesignPoint::NoEncryption, Variant::PartialAdrDrop,
     {0x1eb94cf92337ccb7ull, 0xfe43822d58efac91ull, 0xd0aa98440bb100d6ull,
      0xbe2eec647a29b148ull, 0xf83091e48673d755ull, 0xa0c864b8c9e39610ull,
      0xceaebae06de4b7e0ull, 0xfc4f361e18629c56ull, 0xf04c0ce7dcf37989ull,
      0x831771aca8782a84ull, 0x3549fbae27abba8eull, 0xd0c9cbbcc9c6a794ull}},
    {DesignPoint::Ideal, Variant::Defaults,
     {0x6bcc7e2266df24fcull, 0x2e35b15c8f0b3ea8ull, 0xd35d991dc54a5019ull,
      0x7c16f0c1dfabcdceull, 0xa5a19ec76286b460ull, 0xc0d8c72d418bbb67ull,
      0x2a4dfd6e06bc567cull, 0xd42d6f9e8d8af40bull, 0x32295b73c0ca4026ull,
      0x1fbf2e5ff6237406ull, 0x2f44ce2507e7db0dull, 0x73674f4deae29c2aull}},
    {DesignPoint::Ideal, Variant::NoCombining,
     {0xb9363ed278e1d977ull, 0x7843c4120a825e67ull, 0xd14edcb8d212d761ull,
      0x1c14077c80df208cull, 0xae0e638e98a9dfe9ull, 0xfc0121f6dcacba7full,
      0xde2f3b6c98c1624cull, 0xf4b4064598feabd7ull, 0x4fec53617cbfe090ull,
      0x9c0c3e3021900e9aull, 0xa2b60ecb78b30a17ull, 0x19efa7b1e12b2a31ull}},
    {DesignPoint::Ideal, Variant::TinyQueues,
     {0x96c1ce6323be9b3full, 0x35d5328bec91ca3dull, 0x30d7a4f34de71026ull,
      0xed48d9a7cc0180fcull, 0xf5fe0a640b0c9786ull, 0x1ba9bc7d7bec4a9dull,
      0x1997ec4274ccf320ull, 0x97ff733c9255d1f0ull, 0x7a7b6f31aadd1e7eull,
      0xded015044d9a962bull, 0xab23f3fcaf666855ull, 0xf39a6a0daed36125ull}},
    {DesignPoint::Ideal, Variant::PartialAdrDrop,
     {0xcc0f6559344bf027ull, 0x010a388a9bfbf3fdull, 0x6f8706f982fb14f4ull,
      0x170fbb1fee650f7aull, 0x09edad0cbe739e96ull, 0x70bf3d0d70a560a8ull,
      0x1e723c7ce39c2905ull, 0xc5963021192c12c7ull, 0x07018d286d944c3dull,
      0x6c45777a46c5e626ull, 0xc0c23dbc0a05491cull, 0x2183daaccae663e5ull}},
    {DesignPoint::Colocated, Variant::Defaults,
     {0x6e25338f4ce228c9ull, 0x3e29307ec72d59e6ull, 0xb7c9f5b634909bd0ull,
      0x364c7f1eb64e56cdull, 0x16124e8ab04223fbull, 0xccf5faeaa99c4044ull,
      0x95802c5e896a8ef2ull, 0x3da78f4d9e3a3a1dull, 0xe9c5b279ade40390ull,
      0x046c926cd407bdc2ull, 0x3d2f8f467e15f307ull, 0x2a38f83700074641ull}},
    {DesignPoint::Colocated, Variant::NoCombining,
     {0xf5032d7847fbde3eull, 0x408022ce59bd0525ull, 0xf7a28319fb69f202ull,
      0xbcffa23a77e6937cull, 0x05593e084c81541bull, 0xcc953ffce2f70f43ull,
      0xe7e17e68aa730752ull, 0x55445dfc7df67a8bull, 0x43156eebf2c23b91ull,
      0x68fce4cf60c32197ull, 0xccd8f0a4d450c703ull, 0x993f9461684fb7f5ull}},
    {DesignPoint::Colocated, Variant::TinyQueues,
     {0x80c3d20ae6c38545ull, 0x3f799985a3c9aa1cull, 0x9db0eb294cb3babfull,
      0xd0cb1b632307a550ull, 0x90eb6ecff978624bull, 0xe9ce6bab768e20f4ull,
      0x6287b5f20194ee03ull, 0xc79e26e3c0a16539ull, 0x42f71fe9ad6c068bull,
      0xa0b924bf5e0755b5ull, 0x8caac14c917ea1c2ull, 0xcba10df787bfa3a8ull}},
    {DesignPoint::Colocated, Variant::PartialAdrDrop,
     {0x0263b88c35655f90ull, 0x8b3400d148428a57ull, 0x4933b5112c1de71aull,
      0x118d8d57a74f23ceull, 0xec8182d79ed2bb5cull, 0x8a5a65d7f6579ab2ull,
      0x832ca05f41bf72ebull, 0x51ca5ad9f46a6c20ull, 0x99586e2113bd7beeull,
      0x7bb513fb376471d0ull, 0xd46c4643f7f46773ull, 0x58e3f168d7e36bf8ull}},
    {DesignPoint::ColocatedCC, Variant::Defaults,
     {0xb068cfe57ad23f77ull, 0x1de0f69b6d7c78aeull, 0x07379b5c880561e6ull,
      0xd4e67900892a05eeull, 0x638450a2ed690428ull, 0xcde6201e61edb5a4ull,
      0x3aad547f50302588ull, 0x5480bef19dabab72ull, 0xf2f6bd2e4b92e39full,
      0xae7a5716fc0e86c6ull, 0x2c832d4245424f7dull, 0x2c05dd2eea5928daull}},
    {DesignPoint::ColocatedCC, Variant::NoCombining,
     {0xdde26a7ce1dde70eull, 0xce309891a10b4b40ull, 0x5f2f37cb33407c8eull,
      0x67d182cdc5a9dad3ull, 0x3a71597e8a4f94caull, 0xe7db27f932ff6f0dull,
      0x993398e821f019d6ull, 0x955e9be509dba434ull, 0x4ae39273b302385bull,
      0xe79a83f351375d07ull, 0xf39c735e142f6833ull, 0xc020a9973636b4f8ull}},
    {DesignPoint::ColocatedCC, Variant::TinyQueues,
     {0x562807536df06687ull, 0xe66a95188f7aab02ull, 0x933beeefe5b403bdull,
      0x825e39a159b74cc6ull, 0xae9fb17b8bf49ad4ull, 0xdf603a29ee2f3eb5ull,
      0x3dd1f80d739a5f63ull, 0x83bd0daf3e85ab16ull, 0x2a60b67ed40e1df7ull,
      0xa20aa34766a6a201ull, 0x392d8e2091fc94a0ull, 0x17ee2c3df5411dd4ull}},
    {DesignPoint::ColocatedCC, Variant::PartialAdrDrop,
     {0x314b6f76dcd59138ull, 0x5d8417d201141c63ull, 0x3a2926391af1f7f3ull,
      0x66a3cfcd3fc78ff3ull, 0xdca36930caa8d694ull, 0xdb6ede98b68e29a4ull,
      0xdf2f16e4cfb465cbull, 0xbb29a9616b1b448full, 0x4d984f2757f99e05ull,
      0xc1a5c108dde2d985ull, 0x8aabfe70d2ba98b2ull, 0x8be3071f8a8f0db9ull}},
    {DesignPoint::FCA, Variant::Defaults,
     {0x0dda1d01e48c931bull, 0xdba78a406e373297ull, 0xa0b1da929520c11eull,
      0xbb7768de377ce62bull, 0xa46cd01dbde7df40ull, 0x36fb9371e1aeae46ull,
      0x0da3d2bfd1df10aeull, 0xb4587816fabdb6e6ull, 0x75936abd2eb4369eull,
      0x0dc021f700d76e2eull, 0x6150c304d5969f46ull, 0x64f66fffd2120060ull}},
    {DesignPoint::FCA, Variant::NoCombining,
     {0x9517b90208fb7d51ull, 0x1507816204ad86d7ull, 0xf1163735fb86c63full,
      0x9f1764252a6f92feull, 0x72585518c05b0ab3ull, 0x3d164b04173c4b36ull,
      0x639e7aac119db273ull, 0x5bb59514b6c834d0ull, 0x8b68102a01edd1c2ull,
      0xacd264a8519ae0beull, 0xe74a268a7f7c57b2ull, 0x2ea7cf8939f8c1fbull}},
    {DesignPoint::FCA, Variant::TinyQueues,
     {0xf884316ca6c67824ull, 0x62099ddf89f2ad4cull, 0x21c4d403d30c047cull,
      0xcb356f5654a3f821ull, 0x9e29d5fdcc87c2d2ull, 0xefe25ba8b283f9bfull,
      0xcf5f975c3cfa66adull, 0xe9dd16852590f018ull, 0x3d2da1ba80ddc651ull,
      0xdf44f2a25e3d7ee2ull, 0xe32719acf8469205ull, 0x4dbc8a8603166e06ull}},
    {DesignPoint::FCA, Variant::PartialAdrDrop,
     {0x5367330074a3c335ull, 0x802a39b9740ddd01ull, 0x0f5dad6469b07965ull,
      0x498cc09336bd765aull, 0xe90cb460a37c248aull, 0x91301cc755ebc1c2ull,
      0x43fe63f4c69eceb6ull, 0x1795021d6b8890a2ull, 0x73daf1c55a47b299ull,
      0x8bfd8f8c77584f87ull, 0x2d5e5ea007e9bc91ull, 0x4b0914fdd5cb4d7aull}},
    {DesignPoint::SCA, Variant::Defaults,
     {0xc55cb91d5fc888e6ull, 0x06947c6b91117f20ull, 0x4f1f59f2cb5b2241ull,
      0x350537c06fad111dull, 0xa2fad6891ffdaf22ull, 0x66374c17677ce7edull,
      0xae630eae4cf2e84full, 0xd4279f5b92d885b6ull, 0xacce9a8bf545a80full,
      0x92c693a1aef050d4ull, 0xe38582dc0266f08eull, 0x6d4843f5c0bd2383ull}},
    {DesignPoint::SCA, Variant::NoCombining,
     {0x4b12a624f57b5a7bull, 0x45d091fcfbf6367aull, 0x2574f72130feb817ull,
      0xc64433b55f561812ull, 0xd8c643fc2b75f1c7ull, 0xb0a15ea7264f6a67ull,
      0x7ffa79393a64dbf3ull, 0x916c3cc83c5644d5ull, 0xfd898072224997f9ull,
      0x71a61daf05778e82ull, 0x264cf2a5c5a0b557ull, 0x08c1ec956f81bf4cull}},
    {DesignPoint::SCA, Variant::TinyQueues,
     {0x555268f8e82f5ab5ull, 0xc8e74c529c2048aeull, 0x64b1f2236cccc432ull,
      0xf41d6702363dabfdull, 0x79ae297afdde29edull, 0x22679d6148b6d2b9ull,
      0xaee8247f02e62d75ull, 0xec6d31b4a50f3b04ull, 0x67fdfea9d1cfd9f2ull,
      0xf13ce65c66aa6c9cull, 0x88569b45cce2e917ull, 0xda50ea820204eee5ull}},
    {DesignPoint::SCA, Variant::PartialAdrDrop,
     {0x967636103272fa65ull, 0xec81a59c21ac6c25ull, 0x2cb11d7bec584a09ull,
      0x28fec313c6ee1dddull, 0xccaa5a443f653dfcull, 0x4004d5935e8e680full,
      0x68a85ee32de13704ull, 0x3e0186768edd86cfull, 0xbe7880af30ef52ecull,
      0x823313d90deee48dull, 0x9a6241fde66abb82ull, 0x80cad12ae1b58b22ull}},
    {DesignPoint::Unsafe, Variant::Defaults,
     {0x18659dc2266ddba0ull, 0xe241b62572f3839cull, 0x7acb66eb119de661ull,
      0x2da7df64ca38580dull, 0xa71d8b91bb3a54b0ull, 0xba3842fc4cf7ce9aull,
      0xaabf6d8938cbf415ull, 0xef7e4fa76e5dc84aull, 0xdad8838d522c9eb4ull,
      0x209b23e8ddb3c11cull, 0x20ef3155cfc63c8dull, 0x107e6fdbc7c6c7b0ull}},
    {DesignPoint::Unsafe, Variant::NoCombining,
     {0x896abeea7767f673ull, 0x3750258741aeedccull, 0x1482bdf153a5cacaull,
      0x507b1170c5c4d5ebull, 0x7c5a2b4b1fd10b26ull, 0x5da2e9b0981a162bull,
      0x802a33d5abb9a944ull, 0x575831190b9b6ca7ull, 0xf39eab183fcfac6bull,
      0xea1edec76748a192ull, 0x82f41ec69acd7510ull, 0x9ae3ba3d0c6e4ce2ull}},
    {DesignPoint::Unsafe, Variant::TinyQueues,
     {0xfc1b95a07ef69b94ull, 0xdf4c2187181a4ad8ull, 0xdb22205f3b3fa5acull,
      0x8dc0507ceadcd0d5ull, 0x68835283b02c96c1ull, 0x5e9780f7fa91da83ull,
      0xa80d04be4d9bf752ull, 0x9b0ab9e74d2ca5a5ull, 0x45620c181f26ef99ull,
      0x542d1164bbc0a8efull, 0xe76f99363b6cf9e0ull, 0x824a7c151982a895ull}},
    {DesignPoint::Unsafe, Variant::PartialAdrDrop,
     {0xfa1f08724fb21819ull, 0xc00c705c97895171ull, 0x431a69e93b1cea71ull,
      0xf7ac03235dc35535ull, 0x2f1147ac487cd7d9ull, 0x6f96b76b702fe7d6ull,
      0xa7f3de80432f847bull, 0xb9ea29e7342376f2ull, 0x6d0ca5a0931614cdull,
      0x8065e882f5dc3a6full, 0x30cf5a84495a0853ull, 0x2224bcbca9532255ull}},
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
