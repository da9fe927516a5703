#include "workload.h"

#include <sys/resource.h>

#include <cstring>

#include "core/encoding_cache.h"

namespace perfbench {

void
PassResult::fail(const std::string &why)
{
    ++failed;
    if (errors.size() < 8)
        errors.push_back(why);
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

dstc::KernelReport
timedRun(dstc::Session &session, const dstc::KernelRequest &request,
         size_t index, PassResult *pass)
{
    const RegionClock op;
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<dstc::ExecutionPlan> plan = session.plan(request);
    const auto t1 = std::chrono::steady_clock::now();
    dstc::KernelReport report = plan->execute();
    const auto t2 = std::chrono::steady_clock::now();
    const double op_ms = op.wallMs();
    pass->measured_s += op_ms * 1e-3;
    const double cpu_s = op.cpuSeconds();
    pass->cpu_s += cpu_s;
    pass->op_times.push_back({index, op_ms, cpu_s * 1e3, 1});
    pass->plan_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    pass->execute_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count());
    return report;
}

void
addKernelStats(const dstc::KernelStats &stats,
               std::map<std::string, double> *exact)
{
    auto &e = *exact;
    e["sim_us"] += stats.timeUs();
    e["isa.ohmma_issued"] += static_cast<double>(stats.mix.ohmma_issued);
    e["isa.ohmma_skipped"] +=
        static_cast<double>(stats.mix.ohmma_skipped);
    e["gemm.warp_tiles_skipped"] +=
        static_cast<double>(stats.warp_tiles_skipped);
    e["timing.dram_mb"] += stats.dram_bytes * 1e-6;
    e["timing.kernels"] += 1.0;
    if (stats.bound == dstc::Bound::Compute)
        e["timing.compute_bound_kernels"] += 1.0;
}

void
finishKernelStats(std::map<std::string, double> *exact)
{
    auto &e = *exact;
    const double kernels = e["timing.kernels"];
    e["timing.compute_bound_share"] =
        kernels > 0.0 ? e["timing.compute_bound_kernels"] / kernels
                      : 0.0;
}

void
addCacheCounters(const dstc::EncodingCache &cache,
                 std::map<std::string, double> *exact)
{
    const dstc::EncodingCache::Counters c = cache.counters();
    auto &e = *exact;
    e["core.cache.hits"] += static_cast<double>(c.hits);
    e["core.cache.misses"] += static_cast<double>(c.misses);
    e["core.cache.evictions"] += static_cast<double>(c.evictions);
    e["core.cache.mb"] += static_cast<double>(cache.totalBytes()) * 1e-6;
}

void
finishCacheCounters(std::map<std::string, double> *exact)
{
    auto &e = *exact;
    const double lookups = e["core.cache.hits"] + e["core.cache.misses"];
    e["core.cache.hit_ratio"] =
        lookups > 0.0 ? e["core.cache.hits"] / lookups : 0.0;
}

bool
bitwiseEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

} // namespace perfbench
