#include "common/cli_flags.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dstc {

namespace {

/** Full-token strtoll with range reporting. */
bool
parseWholeLl(const std::string &v, long long *out)
{
    char *end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE)
        return false;
    *out = parsed;
    return true;
}

/** True when @p token parses fully as a number (strtod). */
bool
isNumber(const char *token)
{
    char *end = nullptr;
    std::strtod(token, &end);
    return end != token && *end == '\0';
}

} // namespace

bool
CliArgs::hasFlag(const std::string &name) const
{
    for (const auto &[k, v] : flags)
        if (k == name)
            return true;
    return false;
}

std::string
CliArgs::flag(const std::string &name, const std::string &fallback) const
{
    for (const auto &[k, v] : flags)
        if (k == name)
            return v;
    return fallback;
}

double
CliArgs::flagD(const std::string &name, double fallback) const
{
    for (const auto &[k, v] : flags)
        if (k == name)
            return std::atof(v.c_str());
    return fallback;
}

int
CliArgs::flagI(const std::string &name, int fallback) const
{
    for (const auto &[k, v] : flags) {
        if (k != name)
            continue;
        long long parsed = 0;
        if (!parseWholeLl(v, &parsed) || parsed < INT_MIN ||
            parsed > INT_MAX)
            return fallback; // validateFlags already rejected it
        return static_cast<int>(parsed);
    }
    return fallback;
}

uint64_t
CliArgs::flagU64(const std::string &name, uint64_t fallback) const
{
    for (const auto &[k, v] : flags)
        if (k == name)
            return std::strtoull(v.c_str(), nullptr, 10);
    return fallback;
}

bool
CliArgs::checkPositionals(const char *command,
                          size_t max_positionals) const
{
    if (positional.size() <= max_positionals)
        return true;
    std::fprintf(stderr,
                 "error: unexpected argument '%s' for command '%s'\n",
                 positional[max_positionals].c_str(), command);
    return false;
}

bool
CliArgs::validateFlags(const char *command,
                       const std::set<std::string> &known,
                       const std::set<std::string> &numeric,
                       const std::set<std::string> &integer,
                       const std::set<std::string> &u64,
                       const std::set<std::string> &global) const
{
    bool ok = true;
    for (const auto &[k, v] : flags) {
        if (!known.count(k) && !global.count(k)) {
            std::string valid;
            for (const auto &name : global)
                valid += (valid.empty() ? "--" : ", --") + name;
            for (const auto &name : known)
                valid += (valid.empty() ? "--" : ", --") + name;
            std::fprintf(stderr,
                         "error: unknown flag '--%s' for command "
                         "'%s' (valid: %s)\n",
                         k.c_str(), command, valid.c_str());
            ok = false;
            continue;
        }
        if (u64.count(k)) {
            char *end = nullptr;
            errno = 0;
            std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || v[0] == '-' ||
                end != v.c_str() + v.size() || errno == ERANGE) {
                std::fprintf(stderr,
                             "error: flag '--%s' needs an unsigned "
                             "integer value, got '%s'\n",
                             k.c_str(), v.c_str());
                ok = false;
            }
        } else if (integer.count(k)) {
            long long parsed = 0;
            if (!parseWholeLl(v, &parsed) || parsed < INT_MIN ||
                parsed > INT_MAX) {
                std::fprintf(stderr,
                             "error: flag '--%s' needs an integer "
                             "value in range, got '%s'\n",
                             k.c_str(), v.c_str());
                ok = false;
            }
        } else if (numeric.count(k)) {
            char *end = nullptr;
            const double value = std::strtod(v.c_str(), &end);
            if (v.empty() || end != v.c_str() + v.size() ||
                !std::isfinite(value)) {
                std::fprintf(stderr,
                             "error: flag '--%s' needs a finite "
                             "numeric value, got '%s'\n",
                             k.c_str(), v.c_str());
                ok = false;
            }
        }
    }
    return ok;
}

CliArgs
parseCliArgs(int argc, char **argv,
             const std::set<std::string> &boolean_flags)
{
    CliArgs args;
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) == 0) {
            std::string name = token.substr(2);
            // Valueless flags keep an empty value: boolean flags
            // only test presence, and value-bearing flags fail
            // validation instead of silently defaulting. A next
            // token starting with '-' is a value only when it is a
            // number ("--duration -1"), else it is the next flag.
            std::string value;
            if (!boolean_flags.count(name) && i + 1 < argc &&
                (argv[i + 1][0] != '-' || isNumber(argv[i + 1])))
                value = argv[++i];
            args.flags.emplace_back(std::move(name),
                                    std::move(value));
        } else {
            args.positional.push_back(std::move(token));
        }
    }
    return args;
}

bool
checkSparsityFlag(const char *name, double value)
{
    if (value >= 0.0 && value <= 1.0)
        return true;
    std::fprintf(stderr, "error: --%s must be in [0, 1], got %g\n",
                 name, value);
    return false;
}

bool
checkClusterFlag(const char *name, double value)
{
    if (value >= 1.0)
        return true;
    std::fprintf(stderr, "error: --%s must be >= 1, got %g\n", name,
                 value);
    return false;
}

bool
checkChoiceFlag(const char *name, const std::string &value,
                const std::vector<std::string> &choices)
{
    for (const std::string &choice : choices)
        if (value == choice)
            return true;
    std::string valid;
    for (const std::string &choice : choices)
        valid += (valid.empty() ? "" : ", ") + choice;
    std::fprintf(stderr, "error: --%s must be one of {%s}, got '%s'\n",
                 name, valid.c_str(), value.c_str());
    return false;
}

bool
checkPositiveFlag(const char *name, double value)
{
    if (value > 0.0)
        return true;
    std::fprintf(stderr, "error: --%s must be > 0, got %g\n", name,
                 value);
    return false;
}

} // namespace dstc
