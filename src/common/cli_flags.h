/**
 * @file
 * Flag parsing and validation for the CLI front ends (dstc_sim).
 *
 * The contract is validate-then-read: `validateFlags` checks every
 * flag against the command's vocabulary and value kinds — unknown
 * names, malformed numbers, non-finite values and integers outside
 * int range all *return* errors (printed to stderr) instead of
 * exiting, so the caller owns the exit path and tests can exercise
 * every rejection. After a successful validation the typed accessors
 * (`flagI`, `flagD`, `flagU64`) cannot fail; called on unvalidated
 * input they fall back to the default rather than terminating.
 */
#ifndef DSTC_COMMON_CLI_FLAGS_H
#define DSTC_COMMON_CLI_FLAGS_H

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace dstc {

/** Parsed command line: positionals plus --name[ated] flags. */
struct CliArgs
{
    std::vector<std::string> positional;
    std::vector<std::pair<std::string, std::string>> flags;

    bool hasFlag(const std::string &name) const;

    /** Raw flag value, or @p fallback when absent. */
    std::string flag(const std::string &name,
                     const std::string &fallback) const;

    /** Numeric flag; @p fallback when absent, on malformed input
     *  (pre-validation callers) the parseable prefix like atof. */
    double flagD(const std::string &name, double fallback) const;

    /**
     * Integer flag. Values outside int range return @p fallback —
     * validateFlags has already rejected them for every validated
     * command, so this accessor never terminates the process.
     */
    int flagI(const std::string &name, int fallback) const;

    uint64_t flagU64(const std::string &name,
                     uint64_t fallback) const;

    /** Reject positionals beyond @p max_positionals (a stray token
     *  is an error, never silently ignored). */
    bool checkPositionals(const char *command,
                          size_t max_positionals) const;

    /**
     * Validate every flag against the command's vocabulary: reject
     * any name outside @p known and @p global (the caller's
     * always-allowed flags, e.g. dstc_sim's --a100), any @p numeric
     * flag whose value does not parse fully as a finite number, any
     * @p integer flag whose value is not a whole decimal in int
     * range (so "--seed 1e3" cannot silently atoi to 1 and
     * "--hw 99999999999" cannot overflow an accessor), and any
     * @p u64 flag that is not an unsigned decimal. Errors print to
     * stderr and the function returns false — it never exits.
     */
    bool validateFlags(const char *command,
                       const std::set<std::string> &known,
                       const std::set<std::string> &numeric = {},
                       const std::set<std::string> &integer = {},
                       const std::set<std::string> &u64 = {},
                       const std::set<std::string> &global = {}) const;
};

/**
 * Split argv into positionals and flags. Flags in @p boolean_flags
 * are presence-only and never consume a following token (else
 * "--batched bogus" would silently eat the stray argument).
 * Value-bearing flags consume the next token unless it starts with
 * '-' and does not parse fully as a number: "--hybrid-threshold -1"
 * carries -1, while "--hw --out-c 4" leaves --hw with an empty
 * value, which validateFlags then rejects instead of silently
 * defaulting.
 */
CliArgs parseCliArgs(int argc, char **argv,
                     const std::set<std::string> &boolean_flags);

/** Sparsity flags are fractions in [0, 1]; prints and returns. */
bool checkSparsityFlag(const char *name, double value);

/** Cluster factors concentrate non-zeros; must be >= 1. */
bool checkClusterFlag(const char *name, double value);

/**
 * Enumerated string flag: @p value must be one of @p choices.
 * Prints the valid vocabulary to stderr and returns false otherwise
 * — never exits, per the validate-then-read contract.
 */
bool checkChoiceFlag(const char *name, const std::string &value,
                     const std::vector<std::string> &choices);

/** Strictly positive numeric flag (rates, durations, depths). */
bool checkPositiveFlag(const char *name, double value);

} // namespace dstc

#endif // DSTC_COMMON_CLI_FLAGS_H
