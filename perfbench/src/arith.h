/**
 * @file
 * The benchmark's own arithmetic: nearest-rank percentiles under the
 * ten-beyond rule, medians (also each op's over the passes), the
 * geometric mean behind sim_speedup_vs_dense, and the serving
 * accounting identity.
 */
#ifndef PERFBENCH_ARITH_H
#define PERFBENCH_ARITH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/stats.h"

namespace perfbench {

/** Samples a percentile must leave above it to be reported. */
constexpr size_t kMinBeyond = 10;

/** A nearest-rank percentile and the sample count behind it. */
struct Percentile
{
    double value = 0.0;
    size_t count = 0;  ///< samples the percentile was taken over
    size_t beyond = 0; ///< samples strictly above its rank
    /** At least kMinBeyond samples lie beyond the rank. */
    bool
    resolved() const
    {
        return beyond >= kMinBeyond;
    }
};

/**
 * Nearest-rank percentile: the ceil(q/100 * n)-th smallest sample
 * (1-based), so the value is always an observed sample. @p q is in
 * (0, 100]; an empty input yields a zero-count result.
 */
Percentile nearestRank(std::vector<double> samples, double q);

/** Median (mean of the two middle samples for an even count). */
double median(std::vector<double> samples);

/** One timed op of a pass. */
struct OpTime
{
    /** Position in the pass's op order, which every pass repeats. */
    size_t index = 0;
    double wall_ms = 0.0;
    /** Process CPU time over the op (all threads). */
    double cpu_ms = 0.0;
    /** Ops it completed: 1 for a kernel, the completed requests of a
     *  serving timeline. */
    int64_t completed = 1;
};

/**
 * Each op's median wall and CPU time over its samples (the passes of
 * a run repeat the same ops), in index order; `completed` is taken
 * from the op's first sample.
 */
std::vector<OpTime> medianOps(const std::vector<OpTime> &samples);

/** Geometric mean of positive ratios; 0 for an empty input. */
double geomean(const std::vector<double> &ratios);

/**
 * The serving run's accounting identity: every admitted request
 * ends exactly one way (completed, shed, dropped, or lost to a
 * fault), and every offered one is admitted or rejected. On failure
 * @p why names the broken equation.
 */
bool serveAccountingHolds(const dstc::ServingStats &stats,
                          std::string *why);

} // namespace perfbench

#endif // PERFBENCH_ARITH_H
