#include "arith.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

Percentile
nearestRank(std::vector<double> samples, double q)
{
    Percentile p;
    p.count = samples.size();
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    p.value = samples[rank - 1];
    p.beyond = samples.size() - rank;
    return p;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t mid = samples.size() / 2;
    return samples.size() % 2 ? samples[mid]
                              : 0.5 * (samples[mid - 1] + samples[mid]);
}

std::vector<OpTime>
medianOps(const std::vector<OpTime> &samples)
{
    struct Samples
    {
        OpTime first;
        std::vector<double> wall_ms, cpu_ms;
    };
    std::map<size_t, Samples> ops;
    for (const OpTime &t : samples) {
        Samples &op = ops.try_emplace(t.index, Samples{t, {}, {}})
                          .first->second;
        op.wall_ms.push_back(t.wall_ms);
        op.cpu_ms.push_back(t.cpu_ms);
    }
    std::vector<OpTime> out;
    for (auto &[index, op] : ops) {
        op.first.wall_ms = median(std::move(op.wall_ms));
        op.first.cpu_ms = median(std::move(op.cpu_ms));
        out.push_back(op.first);
    }
    return out;
}

double
geomean(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double r : ratios)
        log_sum += std::log(r);
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

bool
serveAccountingHolds(const dstc::ServingStats &stats, std::string *why)
{
    const int64_t ended = stats.completed + stats.shed + stats.dropped +
                          stats.faults.lost;
    if (ended != stats.admitted) {
        *why = "completed + shed + dropped + lost = " +
               std::to_string(ended) + " != admitted " +
               std::to_string(stats.admitted);
        return false;
    }
    if (stats.admitted + stats.rejected != stats.offered) {
        *why = "admitted + rejected = " +
               std::to_string(stats.admitted + stats.rejected) +
               " != offered " + std::to_string(stats.offered);
        return false;
    }
    return true;
}

} // namespace perfbench
