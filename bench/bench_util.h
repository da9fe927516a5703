/**
 * @file
 * Timing scaffolding shared by the micro benches (micro_spgemm,
 * micro_spconv): wall clock, best-of-N measurement (optionally over
 * a minimum wall time per rep), argument parsing for the common
 * --quick/--reps/--out flags, the host description the JSON records
 * carry, and the warm-up that keeps one-time process state out of
 * the first timed region.
 */
#ifndef DSTC_BENCH_BENCH_UTIL_H
#define DSTC_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/thread_pool.h"
#include "timing/gpu_config.h"
#include "timing/merge_model.h"

namespace dstc {
namespace bench {

inline double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Best-of-@p reps per-call wall time of @p fn, in milliseconds, where
 * each rep calls @p fn back to back until it has run for at least
 * @p min_rep_ms and charges the mean (TVM/AMOS's min_repeat_ms). A
 * sub-millisecond call is then averaged over many runs, so one
 * scheduler hiccup or late pool wake-up cannot decide a ratio the
 * gate reads; a call longer than @p min_rep_ms runs once per rep.
 */
template <typename Fn>
double
timeMinMs(int reps, double min_rep_ms, Fn &&fn)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const double t0 = nowMs();
        double elapsed = 0.0;
        int calls = 0;
        do {
            fn();
            ++calls;
            elapsed = nowMs() - t0;
        } while (elapsed < min_rep_ms);
        best = std::min(best, elapsed / calls);
    }
    return best;
}

/**
 * timeMinMs over several arms at once, rep-interleaved: rep r of
 * every arm runs before rep r + 1 of any. A host stall (a stolen
 * vCPU, a busy neighbour) that outlasts one rep then lands in one
 * rep of each arm instead of in every rep of one arm, so each arm's
 * best rep is a quiet one and the ratios between arms, which the
 * gates read, compare like with like. Returns the per-call times in
 * argument order.
 */
template <typename... Fns>
std::array<double, sizeof...(Fns)>
timeArmsMinMs(int reps, double min_rep_ms, Fns &&...fns)
{
    std::array<double, sizeof...(Fns)> best;
    best.fill(1e30);
    for (int r = 0; r < reps; ++r) {
        size_t arm = 0;
        ((best[arm] = std::min(best[arm], timeMinMs(1, min_rep_ms, fns)),
          ++arm),
         ...);
    }
    return best;
}

/** Best-of-@p reps wall time of one call of @p fn, in milliseconds. */
template <typename Fn>
double
timeMs(int reps, Fn &&fn)
{
    return timeMinMs(reps, 0.0, fn);
}

/** The common micro-bench command line. */
struct BenchArgs
{
    bool quick = false;
    int reps = 3;
    const char *out = nullptr;
};

/**
 * Parse --quick / --reps N / --out PATH. An explicit --reps wins
 * over the quick default; --reps must be a positive integer (a
 * zero-rep "measurement" would report never-executed runs as green).
 * Returns false (after printing usage) on any invalid argument.
 */
inline bool
parseBenchArgs(int argc, char **argv, const char *name,
               BenchArgs *args)
{
    if (args->out == nullptr) {
        std::fprintf(stderr,
                     "error: %s: BenchArgs.out has no default output "
                     "path\n",
                     name);
        return false;
    }
    int reps = 0; // 0 = not given
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick")) {
            args->quick = true;
        } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
            char *end = nullptr;
            reps = static_cast<int>(std::strtol(argv[++i], &end, 10));
            if (*argv[i] == '\0' || *end != '\0' || reps < 1) {
                std::fprintf(stderr,
                             "error: --reps needs a positive "
                             "integer, got '%s'\n",
                             argv[i]);
                return false;
            }
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            args->out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--reps N] [--out "
                         "PATH]\n",
                         name);
            return false;
        }
    }
    // Best-of-3 even in quick mode: still seconds-scale, and the CI
    // gate compares ratios that a single-shot spike would skew.
    if (reps > 0)
        args->reps = reps;
    else
        args->reps = 3;
    return true;
}

/** The host the figures were recorded on: CPU features the sim's
 *  word kernels could use, and how the bench was compiled. */
inline std::string
hostDescription()
{
    std::string features;
    __builtin_cpu_init();
    auto add = [&features](const char *name, bool has) {
        if (has)
            features += features.empty() ? name
                                         : std::string(" ") + name;
    };
    add("popcnt", __builtin_cpu_supports("popcnt"));
    add("bmi2", __builtin_cpu_supports("bmi2"));
    add("avx2", __builtin_cpu_supports("avx2"));
    add("avx512f", __builtin_cpu_supports("avx512f"));
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#else
    const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
#ifdef __OPTIMIZE__
    const char *opt = "optimized";
#else
    const char *opt = "unoptimized";
#endif
#ifdef __AVX2__
    const char *target = "avx2 target";
#else
    const char *target = "baseline x86-64 target";
#endif
    return "cpu " + features + "; " + compiler + ", " + opt + ", " +
           target;
}

/**
 * Pull one-time process state out of the first timed region: the
 * shared pool's thread spawn and the merge model's process-shared
 * Monte-Carlo memo must not be charged to whichever measurement
 * happens to trigger them first.
 */
inline void
warmProcessState(const GpuConfig &cfg)
{
    sharedThreadPool();
    MergeCostModel(cfg.accum_banks, cfg.operand_collector)
        .tileCycles(8 * cfg.accum_banks, 8);
}

} // namespace bench
} // namespace dstc

#endif // DSTC_BENCH_BENCH_UTIL_H
