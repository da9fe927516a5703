/**
 * @file
 * What the three workloads share: the per-pass result record, host
 * clocks, timed plan/execute, and the exact-count and check helpers.
 *
 * A run repeats passes of one workload until its --seconds budget is
 * spent. Every pass sets its inputs up again (timed as setup_s), runs
 * all of the workload's ops (timed; the host metrics), and checks the
 * outputs (untimed). Passes at one seed are identical, so every
 * simulated figure and exact count must repeat bit for bit from pass
 * to pass and between traced and untraced passes.
 */
#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arith.h"
#include "core/session.h"
#include "trace.h"

namespace perfbench {

/** Everything one pass of a workload produced. */
struct PassResult
{
    double setup_s = 0.0;
    /** Process CPU time of the set-up (all threads). */
    double setup_cpu_s = 0.0;
    /** Host wall time of the timed regions (the ops). */
    double measured_s = 0.0;
    /** Process CPU time over the same regions (all threads). */
    double cpu_s = 0.0;
    /** Ops completed: the throughput numerator. */
    int64_t ops = 0;
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Each timed op's host wall time (untraced passes). */
    std::vector<OpTime> op_times;
    /** Session::plan and ExecutionPlan::execute times per op. */
    std::vector<double> plan_ms;
    std::vector<double> execute_ms;
    /** Simulated metrics and exact counts (must repeat bitwise). */
    std::map<std::string, double> exact;
    /** Exact counts only the traced run can make (they need the
     *  layer calls, e.g. the bytes a separate encode produced). */
    std::map<std::string, double> traced;
    /** Exact counts only the untraced run can make: the Sessions'
     *  cache counters (traced ops call the layers directly). */
    std::map<std::string, double> untraced;
    /** The first failure messages, for the log. */
    std::vector<std::string> errors;

    void fail(const std::string &why);
};

/** The clock a workload's host-time metrics are read from. */
enum class HostClock
{
    Wall,
    /** Process CPU time: excludes the time a shared VM's hypervisor
     *  takes the vCPUs away (steal), which wall time includes. */
    Cpu,
};

/** One workload; runPass is called repeatedly with the same seed. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual HostClock hostClock() const { return HostClock::Wall; }

    /** Set up, run every op, check. With an enabled tracer the ops
     *  are done through their layer calls, each under a span. */
    virtual PassResult runPass(Tracer &tracer) = 0;

    /** Exact figures computed once per run outside the passes (for
     *  example the dense baseline of sim_speedup_vs_dense). */
    virtual std::map<std::string, double> runOnce() { return {}; }
};

std::unique_ptr<Workload> makeServeMix(uint64_t seed);
/** @p corpus_dir holds the SpMM corpus (the repository's corpus/). */
std::unique_ptr<Workload> makeSparseKernels(uint64_t seed,
                                            const std::string &corpus_dir);

// -- helpers ---------------------------------------------------------

/** Process CPU seconds (user + system, all threads). */
double processCpuSeconds();

/** Wall and CPU clock of one timed region. */
class RegionClock
{
  public:
    RegionClock()
        : wall_(std::chrono::steady_clock::now()),
          cpu_(processCpuSeconds())
    {
    }

    double
    wallMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - wall_)
            .count();
    }

    double cpuSeconds() const { return processCpuSeconds() - cpu_; }

  private:
    std::chrono::steady_clock::time_point wall_;
    double cpu_;
};

/** Session::plan then ExecutionPlan::execute, each timed into
 *  @p pass (op @p index's time, plan and execute samples and the
 *  measured time). */
dstc::KernelReport timedRun(dstc::Session &session,
                            const dstc::KernelRequest &request,
                            size_t index, PassResult *pass);

/** Add a kernel's instruction and traffic counts to the exact
 *  figures (isa.*, gemm.warp_tiles_skipped, timing.*, sim_us). */
void addKernelStats(const dstc::KernelStats &stats,
                    std::map<std::string, double> *exact);

/** Derive timing.compute_bound_share from the summed counts. */
void finishKernelStats(std::map<std::string, double> *exact);

/** Add a cache's counters and resident megabytes (core.cache.*). */
void addCacheCounters(const dstc::EncodingCache &cache,
                      std::map<std::string, double> *exact);

/** Derive core.cache.hit_ratio from the summed counters. */
void finishCacheCounters(std::map<std::string, double> *exact);

/** Bitwise equality of two value arrays (same length, same bits;
 *  a matrix's or tensor's data()). */
bool bitwiseEqual(const std::vector<float> &a,
                  const std::vector<float> &b);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
