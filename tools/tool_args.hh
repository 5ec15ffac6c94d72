/**
 * @file
 * The command-line flags the cnvm tools share, parsed from one table.
 *
 * cnvm_sim, cnvm_crash_sweep and cnvm_soak configure a System the same
 * way (--design, --workload, --cores, ...), and the two crash tools
 * also share the crash-run flags (--jobs, --faults, --fingerprint,
 * ...). Those flags are rows of kSharedFlags, parsed by parseArgs()
 * into a CommonArgs; a tool adds only its own flags, through a
 * callback, and keeps its own defaults by setting them in its
 * CommonArgs before parsing. Every flag follows the same rules:
 *
 *  - a numeric value is fully consumed and in range, or the tool
 *    prints "<flag> needs <what>, got '<text>'" and its usage to
 *    stderr and exits 2 — never an atoi-style silent 0;
 *  - a flag that only tunes another ("--fault-seed requires
 *    --faults") is a usage error without it, never a silent enable;
 *  - a value that is wrong only next to another flag's (a counter
 *    cache the channels cannot split) is checked on the parsed
 *    configuration, so each tool's default is checked too;
 *  - --help prints the usage to stdout and exits 0; an unknown flag
 *    prints it to stderr and exits 2.
 */

#ifndef CNVM_TOOLS_TOOL_ARGS_HH
#define CNVM_TOOLS_TOOL_ARGS_HH

#include <cerrno>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string_view>
#include <vector>

#include "core/config.hh"
#include "memctl/mem_controller.hh"
#include "nvm/fault_model.hh"
#include "workloads/factory.hh"

namespace cnvm
{
namespace toolargs
{

/** A tool's usage(code): prints the option summary, exits with code. */
using Usage = void (*)(int);

/** Walks argv one flag at a time, parsing and validating values. */
class ArgReader
{
  public:
    ArgReader(int argc, char **argv, Usage usage)
        : argc_(argc), argv_(argv), usage_(usage)
    {}

    /** Steps to the next flag; false past the end. --help and -h
     *  print the usage and exit 0 here. */
    bool
    next()
    {
        if (++i_ >= argc_)
            return false;
        if (is("--help") || is("-h"))
            exitWithUsage(0);
        return true;
    }

    bool is(std::string_view name) const { return name == argv_[i_]; }

    /** The current flag is not one the tool takes: exit 2. */
    [[noreturn]] void
    unknown() const
    {
        std::fprintf(stderr, "unknown option '%s'\n", argv_[i_]);
        exitWithUsage(2);
    }

    /** The flag's mandatory value. */
    const char *
    value()
    {
        if (i_ + 1 >= argc_) {
            std::fprintf(stderr, "missing value for %s\n", argv_[i_]);
            exitWithUsage(2);
        }
        flag_ = argv_[i_];
        return argv_[++i_];
    }

    std::uint64_t u64() { return integer(0, kU64Max, "an unsigned integer"); }

    unsigned
    positive()
    {
        return static_cast<unsigned>(
            integer(1, kUnsignedMax, "a positive integer"));
    }

    /** In [1, @p max_value]: for knobs like --cycles where an absurd
     *  value is a typo, not a request. */
    unsigned
    bounded(unsigned max_value)
    {
        char what[48];
        std::snprintf(what, sizeof(what), "an integer in [1, %u]",
                      max_value);
        return static_cast<unsigned>(integer(1, max_value, what));
    }

    /** A positive power of two: the channel interleave is an address
     *  mask (`addr & (channels - 1)`), so 0, 3, 6, ... are errors. */
    unsigned
    powerOfTwo()
    {
        const char *text = value();
        std::uint64_t v = 0;
        if (!toU64(text, v) || v == 0 || (v & (v - 1)) != 0 ||
            v > kUnsignedMax)
            fail("a power-of-two integer", text);
        return static_cast<unsigned>(v);
    }

    /** A finite real number, > 0 or (with @p allow_zero) >= 0. */
    double
    real(bool allow_zero)
    {
        const char *text = value();
        char *end = nullptr;
        errno = 0;
        double v = std::strtod(text, &end);
        if (end == text || *end != '\0' || errno != 0 ||
            !std::isfinite(v) || v < 0 || (v == 0 && !allow_zero))
            fail(allow_zero ? "a non-negative number" : "a positive number",
                 text);
        return v;
    }

    DesignPoint
    design()
    {
        const char *text = value();
        auto d = designFromName(text);
        if (!d) {
            std::fprintf(stderr, "unknown design '%s'\n", text);
            exitWithUsage(2);
        }
        return *d;
    }

  private:
    static constexpr std::uint64_t kU64Max =
        std::numeric_limits<std::uint64_t>::max();
    static constexpr std::uint64_t kUnsignedMax =
        std::numeric_limits<unsigned>::max();

    /** Decimal digits only: no sign, space or trailing garbage. */
    static bool
    toU64(const char *text, std::uint64_t &v)
    {
        if (!std::isdigit(static_cast<unsigned char>(text[0])))
            return false;
        char *end = nullptr;
        errno = 0;
        v = std::strtoull(text, &end, 10);
        return *end == '\0' && errno == 0;
    }

    std::uint64_t
    integer(std::uint64_t lo, std::uint64_t hi, const char *what)
    {
        const char *text = value();
        std::uint64_t v = 0;
        if (!toU64(text, v) || v < lo || v > hi)
            fail(what, text);
        return v;
    }

    [[noreturn]] void
    fail(const char *what, const char *text) const
    {
        std::fprintf(stderr, "%s needs %s, got '%s'\n", flag_, what, text);
        exitWithUsage(2);
    }

    [[noreturn]] void
    exitWithUsage(int code) const
    {
        usage_(code);
        std::exit(code); // usage_ exits; this tells the compiler so
    }

    int argc_;
    char **argv_;
    Usage usage_;
    int i_ = 0;
    const char *flag_ = "";
};

/**
 * One cross-flag prerequisite: @p flag was given (set) but only makes
 * sense alongside @p needs (prereq).
 */
struct FlagRule
{
    bool set = false;
    bool prereq = false;
    const char *flag = "";
    const char *needs = "";
};

/** The first violated rule prints "<flag> requires <needs>", exits 2. */
inline void
enforceFlagRules(std::initializer_list<FlagRule> rules, Usage usage)
{
    for (const FlagRule &r : rules) {
        if (r.set && !r.prereq) {
            std::fprintf(stderr, "%s requires %s\n", r.flag, r.needs);
            usage(2);
        }
    }
}

/** Values of the shared flags; a tool sets its defaults before
 *  parseArgs() and reads them after. */
struct CommonArgs
{
    /** --design (the last one), --workload, --cores, --channels,
     *  --footprint-kb, --cc-kb, --integrity and --integrity-tree. */
    SystemConfig cfg;
    std::vector<DesignPoint> designs; //!< every --design, in order
    std::uint64_t seed = 1; //!< --seed; what it seeds is the tool's

    // Crash-run flags (cnvm_crash_sweep and cnvm_soak only).
    unsigned jobs = 0; //!< 0 = hardware concurrency
    unsigned recoveryCrashes = 0;
    bool faults = false;
    bool faultSeedSet = false;
    std::uint64_t faultSeed = 1;
    bool replays = false;
    bool verbose = false;
    bool fingerprint = false;

    bool integrity() const { return cfg.memctl.integrityMac; }
    bool integrityTree() const { return cfg.memctl.integrityTree; }

    /** The dose --faults, --replays and --fault-seed select; the
     *  empty (clean-crash) spec without --faults. */
    FaultSpec
    dose() const
    {
        if (!faults)
            return {};
        return replays ? FaultSpec::allKindsWithReplays(faultSeed)
                       : FaultSpec::allKinds(faultSeed);
    }
};

/** Which rows of kSharedFlags a tool takes. */
enum class FlagSet
{
    Config,    //!< System configuration: every tool
    CrashRuns, //!< Config plus the crash-run flags
};

/** One shared flag: its name, the set it belongs to, its effect. */
struct SharedFlag
{
    const char *name;
    FlagSet set;
    void (*apply)(CommonArgs &, ArgReader &);
};

inline constexpr SharedFlag kSharedFlags[] = {
    {"--design", FlagSet::Config,
     [](CommonArgs &a, ArgReader &r) {
         a.cfg.design = r.design();
         a.designs.push_back(a.cfg.design);
     }},
    {"--workload", FlagSet::Config,
     [](CommonArgs &a, ArgReader &r) {
         a.cfg.workload = workloadKindFromName(r.value());
     }},
    {"--cores", FlagSet::Config,
     [](CommonArgs &a, ArgReader &r) { a.cfg.numCores = r.positive(); }},
    {"--channels", FlagSet::Config,
     [](CommonArgs &a, ArgReader &r) {
         a.cfg.numChannels = r.powerOfTwo();
     }},
    {"--footprint-kb", FlagSet::Config,
     [](CommonArgs &a, ArgReader &r) {
         a.cfg.wl.regionBytes = std::uint64_t(r.positive()) << 10;
     }},
    {"--cc-kb", FlagSet::Config,
     [](CommonArgs &a, ArgReader &r) {
         a.cfg.memctl.counterCacheBytes = std::uint64_t(r.positive()) << 10;
     }},
    {"--seed", FlagSet::Config,
     [](CommonArgs &a, ArgReader &r) { a.seed = r.u64(); }},
    {"--integrity", FlagSet::Config,
     [](CommonArgs &a, ArgReader &) { a.cfg.memctl.integrityMac = true; }},
    {"--integrity-tree", FlagSet::Config,
     [](CommonArgs &a, ArgReader &) {
         a.cfg.memctl.integrityMac = a.cfg.memctl.integrityTree = true;
     }},
    {"--jobs", FlagSet::CrashRuns,
     [](CommonArgs &a, ArgReader &r) { a.jobs = r.positive(); }},
    {"--recovery-crashes", FlagSet::CrashRuns,
     [](CommonArgs &a, ArgReader &r) { a.recoveryCrashes = r.positive(); }},
    {"--faults", FlagSet::CrashRuns,
     [](CommonArgs &a, ArgReader &) { a.faults = true; }},
    {"--fault-seed", FlagSet::CrashRuns,
     [](CommonArgs &a, ArgReader &r) {
         a.faultSeed = r.u64();
         a.faultSeedSet = true;
     }},
    {"--replays", FlagSet::CrashRuns,
     [](CommonArgs &a, ArgReader &) { a.replays = true; }},
    {"--verbose", FlagSet::CrashRuns,
     [](CommonArgs &a, ArgReader &) { a.verbose = true; }},
    {"--fingerprint", FlagSet::CrashRuns,
     [](CommonArgs &a, ArgReader &) { a.fingerprint = true; }},
};

/**
 * Parses argv into @p args: the rows of kSharedFlags in @p set, then
 * whatever @p own(reader) accepts — it returns false for a flag that
 * is not the tool's, which is a usage error. Finishes with the shared
 * prerequisite rules and the check that the channels can split the
 * counter cache.
 */
template <typename OwnFlags>
void
parseArgs(int argc, char **argv, CommonArgs &args, FlagSet set,
          Usage usage, OwnFlags &&own)
{
    ArgReader reader(argc, argv, usage);
    while (reader.next()) {
        const SharedFlag *shared = nullptr;
        for (const SharedFlag &f : kSharedFlags) {
            if (reader.is(f.name)) {
                shared = &f;
                break;
            }
        }
        if (shared &&
            (shared->set == FlagSet::Config || set == FlagSet::CrashRuns))
            shared->apply(args, reader);
        else if (!own(reader))
            reader.unknown();
    }
    enforceFlagRules(
        {{args.faultSeedSet, args.faults, "--fault-seed", "--faults"},
         {args.replays, args.faults, "--replays", "--faults"}},
        usage);
    if (!MemController::counterCacheSplits(args.cfg.memctl.counterCacheBytes,
                                           args.cfg.numChannels)) {
        std::fprintf(stderr,
                     "--cc-kb needs a power of two of at least --channels "
                     "(%u), got '%llu'\n",
                     args.cfg.numChannels,
                     static_cast<unsigned long long>(
                         args.cfg.memctl.counterCacheBytes >> 10));
        usage(2);
    }
}

/** Design name for table rows: the co-located designs without the
 *  spaces and punctuation of their figure-legend names. */
inline const char *
shortDesignName(DesignPoint d)
{
    switch (d) {
      case DesignPoint::Colocated: return "Colocated";
      case DesignPoint::ColocatedCC: return "ColocatedCC";
      default: return designName(d);
    }
}

} // namespace toolargs
} // namespace cnvm

#endif // CNVM_TOOLS_TOOL_ARGS_HH
