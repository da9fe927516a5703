/**
 * @file
 * Shared operand-resolution helpers of the GEMM plan layer: the
 * cached popcount-profile pair of a request (borrowed, built from
 * matrices, or synthesized per seed), lazily-memoized operand
 * digests, and the density probes the analytic baselines estimate
 * from. Both the primitive backends (backends.cc) and the hybrid
 * composer (hybrid.cc) resolve operands through these — one
 * implementation, one set of cache keys, so a hybrid plan and a
 * dual-sparse plan of the same operands share their cache entries.
 */
#ifndef DSTC_CORE_GEMM_OPERANDS_H
#define DSTC_CORE_GEMM_OPERANDS_H

#include <memory>
#include <optional>

#include "core/backend.h"
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
 * Lazily-computed content digests of a request's concrete operands.
 * Hashing a large matrix is a full pass over its bytes, and a plan
 * needs the same operand under several encoding families (profiles,
 * two-level, CSR) — so each operand is digested once and the 64-bit
 * digest is folded into every family key.
 */
class OperandDigests
{
  public:
    uint64_t
    a(const Matrix<float> &m)
    {
        return digest(&m, &a_src_, &a_);
    }

    uint64_t
    b(const Matrix<float> &m)
    {
        return digest(&m, &b_src_, &b_);
    }

  private:
    /** Each slot memoizes exactly one matrix: a later call with a
     *  different object would silently reuse the wrong digest, so
     *  the identity is checked, not assumed. */
    static uint64_t
    digest(const Matrix<float> *m, const Matrix<float> **src,
           std::optional<uint64_t> *slot)
    {
        if (!*slot) {
            *src = m;
            *slot = CacheKey("operand-bytes").matrix(*m).value();
        }
        DSTC_ASSERT(*src == m,
                    "OperandDigests slot reused for a different "
                    "matrix");
        return **slot;
    }

    const Matrix<float> *a_src_ = nullptr;
    const Matrix<float> *b_src_ = nullptr;
    std::optional<uint64_t> a_;
    std::optional<uint64_t> b_;
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
 *  operands are probed by the branchless word count (zhu / ampere
 *  plans call this in both estimate and run). */
double weightSparsity(const KernelRequest &req);

/** Operand densities of a GEMM request (cuSPARSE baseline). */
void operandDensities(const KernelRequest &req, double *da,
                      double *db);

} // namespace dstc

#endif // DSTC_CORE_GEMM_OPERANDS_H
