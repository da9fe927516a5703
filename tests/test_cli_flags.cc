/**
 * @file
 * The CLI validation layer (dstc_sim's flag vocabulary): malformed,
 * out-of-range and unknown flags must be *returned* as errors, never
 * exit the process from an accessor, and the typed accessors must be
 * total functions after validation.
 */
#include "common/cli_flags.h"

#include <gtest/gtest.h>

namespace dstc {
namespace {

CliArgs
parse(std::vector<std::string> tokens,
      const std::set<std::string> &boolean_flags = {"a100", "batched",
                                                    "explicit"})
{
    std::vector<char *> argv = {const_cast<char *>("dstc_sim")};
    for (auto &t : tokens)
        argv.push_back(t.data());
    return parseCliArgs(static_cast<int>(argv.size()), argv.data(),
                        boolean_flags);
}

TEST(CliFlags, ParsesPositionalsAndFlags)
{
    CliArgs args = parse({"gemm", "64", "64", "64", "--a-sparsity",
                          "0.7", "--batched"});
    ASSERT_EQ(args.positional.size(), 4u);
    EXPECT_EQ(args.positional[0], "gemm");
    EXPECT_TRUE(args.hasFlag("batched"));
    EXPECT_DOUBLE_EQ(args.flagD("a-sparsity", 0.0), 0.7);
    EXPECT_DOUBLE_EQ(args.flagD("b-sparsity", 0.25), 0.25);
}

TEST(CliFlags, BooleanFlagsDoNotConsumeTokens)
{
    CliArgs args = parse({"--a100", "model", "resnet18"});
    ASSERT_EQ(args.positional.size(), 2u);
    EXPECT_EQ(args.positional[0], "model");
    EXPECT_TRUE(args.hasFlag("a100"));
    EXPECT_EQ(args.flag("a100", "x"), "");
}

TEST(CliFlags, UnknownFlagFailsValidation)
{
    CliArgs args = parse({"conv", "--in-c", "8", "--typo", "3"});
    EXPECT_FALSE(args.validateFlags("conv", {"in-c"}, {}, {"in-c"}));
    EXPECT_TRUE(args.validateFlags("conv", {"in-c", "typo"}, {},
                                   {"in-c", "typo"}));
}

TEST(CliFlags, IntegerOutOfIntRangeIsRejectedNotExited)
{
    // The old flagI accessor would std::exit(2) on this; now the
    // validation layer reports it and the accessor stays total.
    CliArgs args = parse({"conv", "--hw", "99999999999"});
    EXPECT_FALSE(args.validateFlags("conv", {"hw"}, {}, {"hw"}));
    EXPECT_EQ(args.flagI("hw", -1), -1);
}

TEST(CliFlags, IntegerMustBeWholeDecimal)
{
    EXPECT_FALSE(parse({"x", "--seed", "1e3"})
                     .validateFlags("x", {"seed"}, {}, {}, {"seed"}));
    EXPECT_FALSE(parse({"x", "--hw", "12.5"})
                     .validateFlags("x", {"hw"}, {}, {"hw"}));
    EXPECT_FALSE(parse({"x", "--hw", "abc"})
                     .validateFlags("x", {"hw"}, {}, {"hw"}));
    EXPECT_TRUE(parse({"x", "--hw", "28"})
                    .validateFlags("x", {"hw"}, {}, {"hw"}));
}

TEST(CliFlags, UnsignedRejectsNegativeAndOverflow)
{
    EXPECT_FALSE(parse({"x", "--seed", "-3"})
                     .validateFlags("x", {"seed"}, {}, {}, {"seed"}));
    EXPECT_FALSE(
        parse({"x", "--seed", "99999999999999999999999"})
            .validateFlags("x", {"seed"}, {}, {}, {"seed"}));
    CliArgs ok = parse({"x", "--seed", "12345678901"});
    EXPECT_TRUE(ok.validateFlags("x", {"seed"}, {}, {}, {"seed"}));
    EXPECT_EQ(ok.flagU64("seed", 0), 12345678901ull);
}

TEST(CliFlags, NumericMustBeFinite)
{
    EXPECT_FALSE(parse({"x", "--wsp", "nan"})
                     .validateFlags("x", {"wsp"}, {"wsp"}));
    EXPECT_FALSE(parse({"x", "--wsp", "0.7x"})
                     .validateFlags("x", {"wsp"}, {"wsp"}));
    EXPECT_FALSE(parse({"x", "--wsp"})
                     .validateFlags("x", {"wsp"}, {"wsp"}));
    EXPECT_TRUE(parse({"x", "--wsp", "0.75"})
                    .validateFlags("x", {"wsp"}, {"wsp"}));
}

TEST(CliFlags, ValuelessValueFlagFailsInsteadOfDefaulting)
{
    // "--hw --out-c 4": --hw refuses to consume the next flag token
    // and must fail validation, not silently read as the default.
    CliArgs args = parse({"conv", "--hw", "--out-c", "4"});
    EXPECT_FALSE(args.validateFlags("conv", {"hw", "out-c"}, {},
                                    {"hw", "out-c"}));
}

TEST(CliFlags, ValueFlagsConsumeNegativeNumbers)
{
    // -1 is --hybrid-threshold's own default ("not pinned"), so it
    // must be writable as a value, not read as a stray positional.
    CliArgs args = parse({"gemm", "64", "64", "64", "--hybrid-threshold",
                          "-1", "--a-sparsity", "-0.5", "--rate",
                          "-1e3"});
    ASSERT_EQ(args.positional.size(), 4u);
    EXPECT_TRUE(args.validateFlags("gemm",
                                   {"hybrid-threshold", "a-sparsity",
                                    "rate"},
                                   {"hybrid-threshold", "a-sparsity",
                                    "rate"}));
    EXPECT_DOUBLE_EQ(args.flagD("hybrid-threshold", 0.0), -1.0);
    EXPECT_DOUBLE_EQ(args.flagD("a-sparsity", 0.0), -0.5);
    EXPECT_DOUBLE_EQ(args.flagD("rate", 0.0), -1000.0);
}

TEST(CliFlags, NegativeValuesReachTheRangeChecks)
{
    // "serve bert --duration -1" must fail the positivity check, not
    // the positional count.
    CliArgs duration = parse({"serve", "bert", "--duration", "-1"});
    EXPECT_TRUE(duration.checkPositionals("serve", 2));
    EXPECT_TRUE(duration.validateFlags("serve", {"duration"},
                                       {"duration"}));
    EXPECT_FALSE(
        checkPositiveFlag("duration", duration.flagD("duration", 1.0)));

    CliArgs depth = parse({"serve", "mix", "--depth", "-3"});
    EXPECT_TRUE(depth.checkPositionals("serve", 2));
    EXPECT_TRUE(depth.validateFlags("serve", {"depth"}, {}, {"depth"}));
    EXPECT_EQ(depth.flagI("depth", 0), -3);

    CliArgs sparsity = parse({"conv", "--wsp", "-0.1"});
    EXPECT_TRUE(sparsity.checkPositionals("conv", 1));
    EXPECT_FALSE(checkSparsityFlag("wsp", sparsity.flagD("wsp", 0.0)));
}

TEST(CliFlags, DashTokensThatAreNotNumbersAreNotConsumed)
{
    // A flag name, or a dash token that is not a number, is never
    // taken as the preceding flag's value.
    CliArgs args = parse({"conv", "--hw", "-x", "--out-c", "-4"});
    EXPECT_EQ(args.flag("hw", "?"), "");
    EXPECT_EQ(args.flag("out-c", "?"), "-4");
    ASSERT_EQ(args.positional.size(), 2u);
    EXPECT_EQ(args.positional[1], "-x");
    EXPECT_FALSE(args.checkPositionals("conv", 1));
}

TEST(CliFlags, StrayPositionalsAreRejected)
{
    CliArgs args = parse({"backends", "stray"});
    EXPECT_TRUE(args.checkPositionals("backends", 2));
    EXPECT_FALSE(args.checkPositionals("backends", 1));
}

TEST(CliFlags, AccessorsAfterValidationAreExact)
{
    CliArgs args = parse({"conv", "--in-c", "64", "--hw", "28",
                          "--wsp", "0.9", "--seed", "7"});
    ASSERT_TRUE(args.validateFlags("conv",
                                   {"in-c", "hw", "wsp", "seed"},
                                   {"wsp"}, {"in-c", "hw"},
                                   {"seed"}));
    EXPECT_EQ(args.flagI("in-c", 0), 64);
    EXPECT_EQ(args.flagI("hw", 0), 28);
    EXPECT_DOUBLE_EQ(args.flagD("wsp", 0.0), 0.9);
    EXPECT_EQ(args.flagU64("seed", 1), 7u);
    EXPECT_EQ(args.flagI("absent", 42), 42);
}

TEST(CliFlags, RangeHelpersReturnInsteadOfExiting)
{
    EXPECT_TRUE(checkSparsityFlag("wsp", 0.0));
    EXPECT_TRUE(checkSparsityFlag("wsp", 1.0));
    EXPECT_FALSE(checkSparsityFlag("wsp", -0.1));
    EXPECT_FALSE(checkSparsityFlag("wsp", 1.5));
    EXPECT_TRUE(checkClusterFlag("cluster", 1.0));
    EXPECT_FALSE(checkClusterFlag("cluster", 0.5));
}

TEST(CliFlags, ChoiceHelperValidatesVocabulary)
{
    const std::vector<std::string> policies = {"deadline", "cost",
                                               "rr"};
    EXPECT_TRUE(checkChoiceFlag("policy", "deadline", policies));
    EXPECT_TRUE(checkChoiceFlag("policy", "rr", policies));
    EXPECT_FALSE(checkChoiceFlag("policy", "shard", policies));
    EXPECT_FALSE(checkChoiceFlag("policy", "", policies));
    EXPECT_FALSE(checkChoiceFlag("policy", "Deadline", policies));
}

TEST(CliFlags, PositiveHelperRejectsZeroAndNegative)
{
    EXPECT_TRUE(checkPositiveFlag("rate", 400.0));
    EXPECT_TRUE(checkPositiveFlag("rate", 1e-6));
    EXPECT_FALSE(checkPositiveFlag("rate", 0.0));
    EXPECT_FALSE(checkPositiveFlag("rate", -3.0));
}

TEST(CliFlags, ServeVocabularyValidates)
{
    // The serve command's flag vocabulary, exactly as dstc_sim
    // declares it: good invocations validate, malformed values are
    // returned as errors.
    const std::set<std::string> known = {
        "devices",    "policy",     "admission",    "pattern",
        "rate",       "duration",   "depth",        "microbatch",
        "method",     "seed",       "faults",       "fault-seed",
        "retry",      "retry-budget", "backoff",    "hedge",
        "no-failover", "no-degrade"};
    const std::set<std::string> numeric = {"rate", "duration",
                                           "backoff"};
    const std::set<std::string> integer = {"depth", "microbatch",
                                           "retry-budget"};
    const std::set<std::string> u64 = {"seed", "fault-seed"};
    const std::set<std::string> booleans = {
        "a100", "batched", "explicit", "retry", "hedge",
        "no-failover", "no-degrade"};
    CliArgs good = parse({"serve", "mix", "--rate", "800",
                          "--duration", "1.5", "--depth", "64",
                          "--policy", "deadline", "--faults",
                          "crash@500:d1", "--retry", "--retry-budget",
                          "4", "--backoff", "12.5", "--hedge",
                          "--fault-seed", "9"},
                         booleans);
    EXPECT_TRUE(good.validateFlags("serve", known, numeric, integer,
                                   u64));
    EXPECT_TRUE(good.checkPositionals("serve", 2));
    EXPECT_TRUE(good.hasFlag("retry"));
    EXPECT_TRUE(good.hasFlag("hedge"));
    EXPECT_FALSE(good.hasFlag("no-failover"));
    EXPECT_EQ(good.flag("faults", ""), "crash@500:d1");
    EXPECT_EQ(good.flagI("retry-budget", 0), 4);
    EXPECT_DOUBLE_EQ(good.flagD("backoff", 0.0), 12.5);
    EXPECT_EQ(good.flagU64("fault-seed", 0), 9u);

    CliArgs bad_rate = parse({"serve", "mix", "--rate", "fast"});
    EXPECT_FALSE(bad_rate.validateFlags("serve", known, numeric,
                                        integer, u64));
    CliArgs bad_depth = parse({"serve", "mix", "--depth", "1e3"});
    EXPECT_FALSE(bad_depth.validateFlags("serve", known, numeric,
                                         integer, u64));
    CliArgs unknown = parse({"serve", "mix", "--qos", "gold"});
    EXPECT_FALSE(unknown.validateFlags("serve", known, numeric,
                                       integer, u64));
    // New fault flags: values must validate like any other flag.
    CliArgs bad_budget =
        parse({"serve", "mix", "--retry-budget", "two"}, booleans);
    EXPECT_FALSE(bad_budget.validateFlags("serve", known, numeric,
                                          integer, u64));
    CliArgs bad_backoff =
        parse({"serve", "mix", "--backoff", "soon"}, booleans);
    EXPECT_FALSE(bad_backoff.validateFlags("serve", known, numeric,
                                           integer, u64));
    CliArgs bad_fseed =
        parse({"serve", "mix", "--fault-seed", "-1"}, booleans);
    EXPECT_FALSE(bad_fseed.validateFlags("serve", known, numeric,
                                         integer, u64));
    // Boolean recovery flags never consume the next token.
    CliArgs boolish =
        parse({"serve", "mix", "--retry", "--rate", "500"}, booleans);
    EXPECT_TRUE(boolish.validateFlags("serve", known, numeric,
                                      integer, u64));
    EXPECT_DOUBLE_EQ(boolish.flagD("rate", 0.0), 500.0);
}

TEST(CliFlags, FaultSpecRejectionIsAnExitTwoPath)
{
    // The CLI's --faults handling goes through FaultSpec::parse,
    // which returns an error message instead of exiting; the helper
    // contract mirrored here is "false + non-empty message".
    // (dstc_sim maps that to exit code 2 — covered by the CI smoke.)
    EXPECT_TRUE(checkChoiceFlag("admission", "reject",
                                {"reject", "shed"}));
    EXPECT_FALSE(checkPositiveFlag("retry-budget", 0.0));
    EXPECT_FALSE(checkPositiveFlag("backoff", -1.0));
}

} // namespace
} // namespace dstc
