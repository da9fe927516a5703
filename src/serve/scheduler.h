/**
 * @file
 * DeadlineScheduler — the serving layer's placement engine, extending
 * the Cluster's ClusterScheduler with deadline- and load-aware
 * placement plus work-stealing accounting.
 *
 * Three serving policies:
 *
 *  - Deadline (default): a request is placed on the device with the
 *    earliest *deadline-aware* estimated finish — device-ready time
 *    plus only the backlog an EDF dequeue would actually run before
 *    this request (entries with earlier deadlines), plus the
 *    request's own per-device estimate. An urgent request therefore
 *    sees through a queue full of lax batch work, which plain
 *    least-loaded placement cannot. Device queues drain EDF, and an
 *    idle device steals the least urgent entry of the deepest queue.
 *  - CostModel: earliest estimated finish over the full FIFO backlog
 *    (the PR 5 Cluster policy, lifted to open-loop queues). No
 *    stealing, FIFO drain.
 *  - RoundRobin: submission-order rotation; estimates never
 *    computed. No stealing, FIFO drain.
 *
 * Like the base class, placement is a pure function of the admitted
 * sequence — never of host execution timing — so a serving run's
 * schedule is bitwise reproducible from (options, seed).
 */
#ifndef DSTC_SERVE_SCHEDULER_H
#define DSTC_SERVE_SCHEDULER_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.h"

namespace dstc {

/** How the serving layer maps admitted requests to devices. */
enum class ServePolicy
{
    Deadline,   ///< EDF drain + deadline-aware ETF + work stealing
    CostModel,  ///< FIFO drain + earliest-estimated-finish
    RoundRobin, ///< FIFO drain + rotation
};

/** Stable CLI/parse token of a policy ("deadline", "cost", "rr"). */
const char *servePolicyToken(ServePolicy policy);

/** Parse a CLI token into a policy; false on unknown token. */
bool parseServePolicy(const std::string &token, ServePolicy *out);

/** The serving placement engine. */
class DeadlineScheduler : public ClusterScheduler
{
  public:
    DeadlineScheduler(ServePolicy policy, size_t num_devices);

    /** Whether device queues drain earliest-deadline-first. */
    bool edfOrder() const
    {
        return serve_policy_ == ServePolicy::Deadline;
    }

    /** Whether idle devices steal from backlogged ones. */
    bool workStealing() const
    {
        return serve_policy_ == ServePolicy::Deadline;
    }

    /**
     * Whether the dispatch loop drops dequeued requests whose
     * deadline is already infeasible (start + estimate past the
     * deadline) instead of executing them. This is the classic EDF
     * overload guard: without it, an overloaded EDF queue serves a
     * procession of about-to-miss requests and every one of them
     * finishes late — goodput collapses exactly when it matters.
     */
    bool dropInfeasible() const
    {
        return serve_policy_ == ServePolicy::Deadline;
    }

    /**
     * Pick a device for one admitted request.
     *
     * @param estimates   per-device plan-stage estimates (empty
     *                    under RoundRobin, which never estimates)
     * @param ready_at_us per-device max(busy-until, now)
     * @param backlog_us  per-device queued work the request would
     *                    wait behind: full backlog under CostModel,
     *                    earlier-deadline backlog under Deadline
     * @param deadline_us the request's absolute deadline (unused by
     *                    CostModel/RoundRobin)
     *
     * Ties break toward the lowest device index. Updates the
     * per-device placed/estimated-busy accounting.
     */
    size_t placeArrival(const std::vector<double> &estimates,
                        const std::vector<double> &ready_at_us,
                        const std::vector<double> &backlog_us,
                        double deadline_us);

    /** Record a work-steal of one request from @p donor. */
    void recordSteal(size_t donor);

    int64_t steals() const;

  private:
    ServePolicy serve_policy_;
    int64_t steals_ = 0;
};

} // namespace dstc

#endif // DSTC_SERVE_SCHEDULER_H
