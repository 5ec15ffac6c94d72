/**
 * @file
 * Shared command-line argument validation for the cnvm tools.
 *
 * The three CLIs (cnvm_sim, cnvm_crash_sweep, cnvm_bench) grew their
 * option parsers independently, and the validation drifted: one tool
 * rejected `--jobs 0` while another accepted it, and cnvm_crash_sweep
 * silently accepted `--fault-seed` without `--faults` (quietly turning
 * the seed flag into an implicit dose switch). This header is the one
 * place the rules live:
 *
 *  - needValue():  a flag's mandatory value, or usage-to-stderr/exit 2;
 *  - parsePositive(): a strictly positive integer value, fully
 *    consumed, or usage-to-stderr/exit 2;
 *  - parseU64():   any unsigned 64-bit value, fully consumed, ditto;
 *  - FlagRule / enforceFlagRules(): cross-flag prerequisites
 *    ("--fault-seed requires --faults"), checked after parsing with a
 *    uniform diagnostic.
 *
 * Every helper takes the tool's own [[noreturn]] usage(int) so the
 * diagnostics land next to that tool's option summary.
 */

#ifndef CNVM_TOOLS_TOOL_ARGS_HH
#define CNVM_TOOLS_TOOL_ARGS_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>

namespace cnvm
{
namespace toolargs
{

/** The mandatory value following argv[i], advancing i past it. */
template <typename UsageFn>
const char *
needValue(int argc, char **argv, int &i, UsageFn &&usage)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        usage(2);
    }
    return argv[++i];
}

/** @p text as an unsigned 64-bit integer; rejects trailing garbage
 *  and negative numbers instead of atoi-style silent truncation. */
template <typename UsageFn>
std::uint64_t
parseU64(const char *flag, const char *text, UsageFn &&usage)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-') {
        std::fprintf(stderr, "%s needs an unsigned integer, got '%s'\n",
                     flag, text);
        usage(2);
    }
    return v;
}

/** @p text as a strictly positive integer fitting in unsigned. */
template <typename UsageFn>
unsigned
parsePositive(const char *flag, const char *text, UsageFn &&usage)
{
    std::uint64_t v = parseU64(flag, text, usage);
    if (v == 0 || v > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr, "%s needs a positive integer, got '%s'\n",
                     flag, text);
        usage(2);
    }
    return static_cast<unsigned>(v);
}

/** @p text as a positive power-of-two fitting in unsigned; the
 *  interleave math (`addr & (channels - 1)`) is only valid for
 *  powers of two, so 0, 3, 6, ... are usage errors, not truncations. */
template <typename UsageFn>
unsigned
parsePowerOfTwo(const char *flag, const char *text, UsageFn &&usage)
{
    std::uint64_t v = parseU64(flag, text, usage);
    if (v == 0 || (v & (v - 1)) != 0 ||
        v > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr,
                     "%s needs a power-of-two integer, got '%s'\n",
                     flag, text);
        usage(2);
    }
    return static_cast<unsigned>(v);
}

/** @p text as a positive integer in [1, @p max_value]; for knobs like
 *  --cycles where an absurd value is a typo, not a request — 0 and
 *  over-bound are usage errors. */
template <typename UsageFn>
unsigned
parseBounded(const char *flag, const char *text, unsigned max_value,
             UsageFn &&usage)
{
    std::uint64_t v = parseU64(flag, text, usage);
    if (v == 0 || v > max_value) {
        std::fprintf(stderr, "%s needs an integer in [1, %u], got '%s'\n",
                     flag, max_value, text);
        usage(2);
    }
    return static_cast<unsigned>(v);
}

/**
 * One cross-flag prerequisite: @p flag was given (set) but only makes
 * sense alongside @p needs (prereq). A flag that merely *tunes*
 * another flag's behavior must not silently enable it.
 */
struct FlagRule
{
    bool set = false;
    bool prereq = false;
    const char *flag = "";
    const char *needs = "";
};

/** Checks every rule; the first violation prints a uniform
 *  "<flag> requires <needs>" to stderr and exits 2 via @p usage. */
template <typename UsageFn>
void
enforceFlagRules(std::initializer_list<FlagRule> rules, UsageFn &&usage)
{
    for (const FlagRule &r : rules) {
        if (r.set && !r.prereq) {
            std::fprintf(stderr, "%s requires %s\n", r.flag, r.needs);
            usage(2);
        }
    }
}

} // namespace toolargs
} // namespace cnvm

#endif // CNVM_TOOLS_TOOL_ARGS_HH
