/**
 * @file
 * Shared operand-resolution helpers of the GEMM plan layer: the
 * cached popcount-profile pair of a request (borrowed, built from
 * matrices, or synthesized per seed), the per-request operand
 * summaries every cache key and derived product comes from, and the
 * density probes the analytic baselines estimate from. Both the
 * primitive backends (backends.cc) and the hybrid composer
 * (hybrid.cc) resolve operands through these — one
 * implementation, one set of cache keys, so a hybrid plan and a
 * dual-sparse plan of the same operands share their cache entries.
 */
#ifndef DSTC_CORE_GEMM_OPERANDS_H
#define DSTC_CORE_GEMM_OPERANDS_H

#include <memory>
#include <mutex>
#include <vector>

#include "core/backend.h"
#include "core/operand_summary.h"
#include "gemm/sparsity_profile.h"

namespace dstc {

class NarrowTileMatrix;

/** The profile pair of one synthetic GEMM operating point. Both
 *  sides share one generator stream (A drawn before B), so the pair
 *  is cached as a unit. */
struct GemmProfilePair
{
    SparsityProfile a;
    SparsityProfile b;

    /** Resident footprint, for the cache's byte-aware bound. */
    size_t
    encodedBytes() const
    {
        return (static_cast<size_t>(a.groups()) * a.k() +
                static_cast<size_t>(b.groups()) * b.k()) *
               sizeof(uint16_t);
    }
};

/**
 * Non-owning view of a GEMM request's profile pair. Caller-provided
 * profiles are referenced in place (no per-plan copy on the
 * spgemmTime path); cache-built pairs are kept alive through the
 * aliasing owner.
 */
struct GemmProfilesView
{
    std::shared_ptr<const SparsityProfile> a;
    std::shared_ptr<const SparsityProfile> b;

    explicit operator bool() const { return a && b; }

    static GemmProfilesView
    borrowed(const SparsityProfile *a, const SparsityProfile *b)
    {
        return {std::shared_ptr<const SparsityProfile>(
                    std::shared_ptr<const void>(), a),
                std::shared_ptr<const SparsityProfile>(
                    std::shared_ptr<const void>(), b)};
    }

    static GemmProfilesView
    owned(std::shared_ptr<const GemmProfilePair> pair)
    {
        GemmProfilesView v;
        v.a = std::shared_ptr<const SparsityProfile>(pair, &pair->a);
        v.b = std::shared_ptr<const SparsityProfile>(pair, &pair->b);
        return v;
    }
};

/**
 * The operand summaries of one request, shared by every plan of it:
 * KernelRegistry::plan hands one holder to all of Auto's candidate
 * plans through PlanContext::operands, and Hybrid routes it on to
 * its class sub-plans. Each concrete operand is summarized — digest,
 * non-zero bitmask and count, one streaming pass — on first use, and
 * every plan reads the same summary instead of re-reading the
 * floats. Thread-safe: concurrent first uses of one operand build
 * once.
 *
 * Operands are told apart by address (a request's operands outlive
 * its plans and do not change under them), so a Hybrid class slice
 * gets a summary of its own while sharing the full B operand's.
 */
class OperandDigests
{
  public:
    /** The summary of @p m, built on first use. */
    std::shared_ptr<const OperandSummary>
    summary(const Matrix<float> &m);

    /** summary(m)->digest(): the key of every encoding family. */
    uint64_t
    digest(const Matrix<float> &m)
    {
        return summary(m)->digest();
    }

  private:
    struct Slot
    {
        const Matrix<float> *src = nullptr;
        const float *data = nullptr;
        std::once_flag once;
        std::shared_ptr<const OperandSummary> value;
    };

    std::mutex mu_;
    std::vector<std::unique_ptr<Slot>> slots_;
};

/**
 * A plan's handle on its request's OperandDigests: the shared holder
 * from PlanContext::operands when there is one (KernelRegistry::plan
 * makes one per request with concrete operands), else a holder of the
 * plan's own. The fallback is a member, not a heap allocation, so a
 * timing-only request pays nothing for it.
 */
class PlanOperands
{
  public:
    explicit PlanOperands(const PlanContext &ctx) : shared_(ctx.operands)
    {
    }

    OperandDigests &operator*() { return shared_ ? *shared_ : own_; }
    OperandDigests *operator->() { return &**this; }

    /** The request's shared holder; null when the plan uses its own. */
    const std::shared_ptr<OperandDigests> &shared() const
    {
        return shared_;
    }

  private:
    std::shared_ptr<OperandDigests> shared_;
    OperandDigests own_;
};

/**
 * Key of the synthetic profile pair of a GEMM operating point (the
 * "gemm-profiles-synthetic" family): geometry, sparsities, clusters,
 * seed and the warp-tile edges the profiles are drawn at. Computable
 * without building the pair, so the timing-stats family can key on
 * it before (and instead of) resolving the profiles.
 */
uint64_t syntheticGemmProfileKey(const KernelRequest &req);

/** Key of the synthetic A-side profile pair of an SpMM operating
 *  point (the "spmm-profiles-synthetic" family). */
uint64_t syntheticSpmmProfileKey(const KernelRequest &req);

/**
 * Key of the timing-stats family. A timing-only dual-sparse plan's
 * KernelStats are a pure function of its operands — @p operand_key,
 * the key of the profile pair or conv encoding the plan would
 * resolve — the option fields the timing model reads (tile_m/n/k,
 * two_level, dtype, sparse_output) and the machine, so the family
 * folds exactly those. Unlike the operand families it must fold the
 * GpuConfig — as @p cfg_digest, its gpuConfigDigest computed once
 * per Session: Sessions over different devices share one cache, and
 * each (operating point, config) is timed once.
 */
uint64_t timingStatsKey(uint64_t operand_key, const SpGemmOptions &o,
                        uint64_t cfg_digest);

/** Resolve (or synthesize) the popcount profiles of a GEMM request.
 *  Returns an empty view when the request carries pre-encoded
 *  operands only (no profile view available without decoding). */
GemmProfilesView
resolveGemmProfiles(const KernelRequest &req, const PlanContext &ctx,
                    OperandDigests &digests, bool *hit);

/**
 * Cache-backed two-level encoding of a request's concrete A operand
 * (requires req.a), built by the word-parallel encoder at the
 * request's tiling (bitwise identical to the element-wise encode for
 * every ctx.encode_workers setting, so the key carries only the
 * operand digest and tiling). Keyed here, in one place, so a hybrid
 * class slice and a dual-sparse plan of the same operand share one
 * cache entry.
 */
std::shared_ptr<const TwoLevelBitmapMatrix>
resolveTwoLevelA(const KernelRequest &req, const PlanContext &ctx,
                 OperandDigests &digests, bool *hit);

/** B-operand counterpart of resolveTwoLevelA (requires req.b). */
std::shared_ptr<const TwoLevelBitmapMatrix>
resolveTwoLevelB(const KernelRequest &req, const PlanContext &ctx,
                 OperandDigests &digests, bool *hit);

/**
 * The A-side profile pair of one SpMM request: the strip-granular
 * (tile = 8) profile the narrow-format estimate runs on, and its
 * exact warp-tile (tile = 32) aggregation for the wide-format
 * estimate. Derived from one pattern — aggregation sums groups of
 * four strips — so the two format estimates always see the same
 * operand, synthetic points included.
 */
struct SpmmProfilePair
{
    SparsityProfile a8;
    SparsityProfile a32;

    /** Resident footprint, for the cache's byte-aware bound. */
    size_t
    encodedBytes() const
    {
        return (static_cast<size_t>(a8.groups()) * a8.k() +
                static_cast<size_t>(a32.groups()) * a32.k()) *
               sizeof(uint16_t);
    }
};

/** Non-owning view of an SpMM request's A-side profile pair. */
struct SpmmProfilesView
{
    std::shared_ptr<const SparsityProfile> a8;
    std::shared_ptr<const SparsityProfile> a32;

    explicit operator bool() const { return a8 && a32; }
};

/**
 * Exact warp-tile aggregation of a strip-granular A profile: group g
 * of the tile-32 result sums strips 4g .. 4g+3, so
 * aggregateSpmmProfile(fromMatrixAWord(a, 8)) equals
 * fromMatrixAWord(a, 32) count-for-count.
 */
SparsityProfile aggregateSpmmProfile(const SparsityProfile &a8);

/**
 * Resolve (or synthesize) the A-side profiles of an SpMM request:
 * caller-provided strip profiles are referenced in place (their
 * aggregation is built fresh — no digestable identity to cache by);
 * concrete and synthetic operands resolve through the cache.
 */
SpmmProfilesView
resolveSpmmProfiles(const KernelRequest &req, const PlanContext &ctx,
                    OperandDigests &digests, bool *hit);

/**
 * Cache-backed narrow-tile encoding of an SpMM request's concrete A
 * operand (requires req.a), built by the word-parallel encoder
 * (bitwise identical to the scalar NarrowTileMatrix::encode for
 * every ctx.encode_workers setting).
 */
std::shared_ptr<const NarrowTileMatrix>
resolveNarrowTileA(const KernelRequest &req, const PlanContext &ctx,
                   OperandDigests &digests, bool *hit);

/** Non-zero fraction of a profile over its true extent — the same
 *  geometry KernelRequest::gemm(profile, profile) reports as m/n, so
 *  density * m * k recovers the exact nnz for ragged shapes too. */
double profileDensity(const SparsityProfile &p);

/** Effective B-side (weight) sparsity of a GEMM request. Concrete
 *  operands read their summary's non-zero count (zhu / ampere plans
 *  call this in both estimate and run). */
double weightSparsity(const KernelRequest &req,
                      OperandDigests &digests);

/** Operand densities of a GEMM request (cuSPARSE baseline); concrete
 *  operands read their summary's non-zero count. */
void operandDensities(const KernelRequest &req,
                      OperandDigests &digests, double *da, double *db);

} // namespace dstc

#endif // DSTC_CORE_GEMM_OPERANDS_H
