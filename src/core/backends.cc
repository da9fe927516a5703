/**
 * @file
 * The five primitive backends: dual-side sparse Tensor Core, dense
 * CUTLASS-like, Zhu vector-wise sparse TC, Ampere 2:4 sparse TC and
 * the cuSPARSE-like CSR SpGEMM — each answering the uniform
 * KernelRequest -> plan() -> execute() -> KernelReport protocol.
 * The density-partitioned hybrid composer that routes tile classes
 * across them lives in hybrid.cc.
 *
 * Plans resolve operand encodings through the EncodingCache:
 * two-level bitmap construction for functional dual-sparse GEMM,
 * popcount-profile synthesis for the timing sweeps, CSR encoding for
 * the cuSPARSE baseline and the conv operand encodings of the im2col
 * paths. execute() then runs the timing (or functional) model over
 * the resolved operands. The timing-only dual-sparse and conv plans
 * first look their stats up in the timing-stats family and resolve
 * operands only on a miss.
 */
#include "core/backend.h"

#include "baselines/ampere_sparse_tc.h"
#include "baselines/cusparse_like.h"
#include "baselines/zhu_sparse_tc.h"
#include "conv/spconv.h"
#include "core/gemm_operands.h"
#include "core/method_map.h"
#include "gemm/dense_gemm.h"
#include "gemm/spgemm_device.h"
#include "gemm/spmm_device.h"
#include "sparse/word_encode.h"

namespace dstc {

namespace {

/** Per-matrix QuantSpec of one operand at the request datatype
 *  (integer scales are matrix-global: serial fabs-max). */
QuantSpec
specFor(DataType dtype, const Matrix<float> &m)
{
    return QuantSpec::forValues(dtype, m.data().data(),
                                m.data().size());
}

/** The conv pipeline executes FP16 only; quantized datatypes are a
 *  GEMM-path feature for now. */
bool
convDataTypeOk(const KernelRequest &req)
{
    return req.dataType() == DataType::Fp16;
}

CacheKey
convKey(const KernelRequest &req, ConvMethod cm)
{
    CacheKey key("conv-encoding");
    key.i32(static_cast<int32_t>(cm));
    key.i32(req.shape.batch)
        .i32(req.shape.in_c)
        .i32(req.shape.in_h)
        .i32(req.shape.in_w)
        .i32(req.shape.out_c)
        .i32(req.shape.kernel)
        .i32(req.shape.stride)
        .i32(req.shape.pad);
    key.f64(req.b_sparsity)
        .f64(req.a_sparsity)
        .f64(req.b_cluster)
        .f64(req.a_cluster)
        .u64(req.seed);
    return key;
}

// ===================================================================
// Dual-side sparse Tensor Core
// ===================================================================

class DualGemmPlan : public ExecutionPlan
{
  public:
    DualGemmPlan(const char *name, const KernelRequest &req,
                 const PlanContext &ctx)
        : ExecutionPlan(name, Method::DualSparse, req.tag), req_(req),
          cfg_(*ctx.cfg), cfg_digest_(ctx.configDigest()),
          cache_(ctx.cache), encode_workers_(ctx.encode_workers),
          operands_(ctx)
    {
    }

  protected:
    KernelReport
    run() override
    {
        SpGemmDevice device(cfg_);
        KernelReport report;
        if (req_.a && req_.b) {
            // Functional path: resolve the two-level encodings the
            // kernel consumes (encode-once across repeated
            // requests). Deferred to execution so a losing Auto
            // candidate never pays for the encode.
            resolveTwoLevel();
            SpGemmResult r = device.multiplyEncoded(
                *a_enc_, *b_enc_, req_.gemm_options);
            report.stats = r.stats;
            if (req_.gemm_options.functional)
                report.d = std::make_shared<const Matrix<float>>(
                    std::move(r.d));
        } else if (req_.a_encoded && req_.b_encoded) {
            SpGemmResult r = device.multiplyEncoded(
                *req_.a_encoded, *req_.b_encoded, req_.gemm_options);
            report.stats = r.stats;
            if (req_.gemm_options.functional)
                report.d = std::make_shared<const Matrix<float>>(
                    std::move(r.d));
        } else {
            report.stats = timingStats();
        }
        return report;
    }

    double
    estimate() override
    {
        // Functional requests estimate from a profile view so Auto
        // dispatch (and cluster cost-model placement) never runs a
        // candidate's kernel just to rank it; the timing-only shapes
        // share the memoized run, and so its timing-stats entry.
        if (req_.a_encoded && req_.b_encoded)
            return estimateEncoded();
        if (!(req_.a && req_.b))
            return ExecutionPlan::estimate();
        const GemmProfilesView &p = profiles();
        SpGemmDevice device(cfg_);
        return device.timeFromProfiles(*p.a, *p.b, req_.gemm_options)
            .timeUs();
    }

  private:
    /**
     * Stats of the timing-only shapes. A synthetic operating point
     * is memoized in the timing-stats family under a key computed
     * without building its profiles, so a hit skips the profile
     * lookup as well as the timing model; borrowed profiles have no
     * digestable identity and are timed afresh.
     */
    KernelStats
    timingStats()
    {
        auto time = [this] {
            const GemmProfilesView &p = profiles();
            return SpGemmDevice(cfg_).timeFromProfiles(
                *p.a, *p.b, req_.gemm_options);
        };
        if (req_.borrowsEncodings())
            return time();
        bool hit = false;
        const KernelStats stats = *cache_->getOrBuild<KernelStats>(
            timingStatsKey(syntheticGemmProfileKey(req_),
                           req_.gemm_options, cfg_digest_),
            time, &hit);
        cache_hit_ = cache_hit_ || hit;
        return stats;
    }

    /**
     * Estimate a pre-encoded request from profiles read off the
     * encodings (packing-offset reads, no value pass) — running the
     * real kernel here would make cost-ranking as expensive as
     * executing every candidate. The derived counts are exact, so
     * like every dual-sparse estimate this one equals the executed
     * stats. Tilings that disagree with the options fall back to the
     * memoized run (timeFromProfiles asserts the warp-tile edges).
     */
    double
    estimateEncoded()
    {
        SpGemmOptions o = req_.gemm_options;
        const TwoLevelBitmapMatrix &a = *req_.a_encoded;
        const TwoLevelBitmapMatrix &b = *req_.b_encoded;
        if (a.tileRows() != o.tile_m || a.tileCols() != o.tile_k ||
            b.tileRows() != o.tile_k || b.tileCols() != o.tile_n)
            return ExecutionPlan::estimate();
        // Pre-encoded operands carry the authoritative datatype (the
        // run path reads it off their specs); keep the estimate's
        // compute/traffic scaling consistent with execution.
        o.dtype = a.spec().dtype;
        SpGemmDevice device(cfg_);
        return device
            .timeFromProfiles(SparsityProfile::fromEncodedA(a),
                              SparsityProfile::fromEncodedB(b), o)
            .timeUs();
    }

    /**
     * The popcount-profile view of the operands, resolved on first
     * use: the timing path consumes it in run(), while functional
     * plans only need it when Auto dispatch asks for an estimate.
     * Empty for pre-encoded requests (no profile view available).
     */
    const GemmProfilesView &
    profiles()
    {
        if (!profiles_resolved_) {
            profiles_resolved_ = true;
            PlanContext ctx;
            ctx.cfg = &cfg_;
            ctx.cache = cache_;
            bool hit = false;
            profiles_ =
                resolveGemmProfiles(req_, ctx, *operands_, &hit);
            cache_hit_ = cache_hit_ || hit;
        }
        return profiles_;
    }

    /**
     * Cache-backed two-level encodings of concrete operands, via the
     * shared resolvers of gemm_operands.h (word-parallel encoder,
     * bitwise identical to the element-wise encode for every worker
     * count; one cache key per operand digest and tiling, shared
     * with the hybrid composer's class slices).
     */
    void
    resolveTwoLevel()
    {
        if (a_enc_)
            return;
        bool hit_a = false, hit_b = false;
        PlanContext ctx;
        ctx.cfg = &cfg_;
        ctx.cache = cache_;
        ctx.encode_workers = encode_workers_;
        a_enc_ = resolveTwoLevelA(req_, ctx, *operands_, &hit_a);
        b_enc_ = resolveTwoLevelB(req_, ctx, *operands_, &hit_b);
        cache_hit_ = cache_hit_ || hit_a || hit_b;
    }

    KernelRequest req_;
    GpuConfig cfg_;
    uint64_t cfg_digest_;
    EncodingCache *cache_;
    int encode_workers_ = 1;
    PlanOperands operands_;
    bool profiles_resolved_ = false;
    GemmProfilesView profiles_;
    std::shared_ptr<const TwoLevelBitmapMatrix> a_enc_;
    std::shared_ptr<const TwoLevelBitmapMatrix> b_enc_;
};

/**
 * Dual-side sparse SpMM plan: sparse A (narrow 8x1 or wide 32-wide
 * two-level encoding) against a dense streamed B. The format choice
 * is made at plan stage from the request's exact density profiles —
 * both estimates fold the same per-strip counts the executed kernels
 * fold, so the selection compares what execution would actually
 * cost. SpmmFormat::Narrow/Wide override the choice.
 */
class DualSpmmPlan : public ExecutionPlan
{
  public:
    DualSpmmPlan(const char *name, const KernelRequest &req,
                 const PlanContext &ctx)
        : ExecutionPlan(name, Method::DualSparse, req.tag), req_(req),
          cfg_(*ctx.cfg), cfg_digest_(ctx.configDigest()),
          cache_(ctx.cache), encode_workers_(ctx.encode_workers),
          operands_(ctx)
    {
    }

  protected:
    KernelReport
    run() override
    {
        KernelReport report;
        if (req_.a && req_.b) {
            SpmmDevice device(cfg_);
            const SpmmFormat format = chosenFormat();
            // Encodes are deferred to execution so a losing Auto
            // candidate (and the unchosen format) never pays for
            // them.
            PlanContext ctx;
            ctx.cfg = &cfg_;
            ctx.cache = cache_;
            ctx.encode_workers = encode_workers_;
            bool hit = false;
            const QuantSpec spec_b =
                specFor(req_.dataType(), *req_.b);
            SpmmResult r =
                format == SpmmFormat::Narrow
                    ? device.multiplyNarrow(
                          *resolveNarrowTileA(req_, ctx, *operands_,
                                              &hit),
                          *req_.b, spec_b, req_.gemm_options)
                    : device.multiplyWide(
                          *resolveTwoLevelA(req_, ctx, *operands_,
                                            &hit),
                          *req_.b, spec_b, req_.gemm_options);
            cache_hit_ = cache_hit_ || hit;
            report.stats = r.stats;
            if (req_.gemm_options.functional)
                report.d = std::make_shared<const Matrix<float>>(
                    std::move(r.d));
        } else {
            report.stats = timingStats();
        }
        return report;
    }

    double
    estimate() override
    {
        // The profile estimate of the chosen format — identical to
        // the executed stats by construction (shared count-folding
        // routine), so Auto ranks this plan at its true cost without
        // encoding anything. Timing-only plans share the memoized
        // run (and so the timing-stats entry).
        if (!(req_.a && req_.b))
            return ExecutionPlan::estimate();
        return formatStats(chosenFormat()).timeUs();
    }

  private:
    /**
     * Stats of a timing-only SpMM: the chosen format's profile
     * estimate, memoized for synthetic operating points in the
     * timing-stats family (keyed by the profile key, the dense
     * width and the format override, so a hit resolves no
     * profiles and makes no format choice).
     */
    KernelStats
    timingStats()
    {
        auto time = [this] { return formatStats(chosenFormat()); };
        if (req_.borrowsEncodings())
            return time();
        CacheKey operands("spmm-timing-operands");
        operands.u64(syntheticSpmmProfileKey(req_))
            .i64(req_.n)
            .i32(static_cast<int32_t>(req_.spmm_format));
        bool hit = false;
        const KernelStats stats = *cache_->getOrBuild<KernelStats>(
            timingStatsKey(operands.value(), req_.gemm_options,
                           cfg_digest_),
            time, &hit);
        cache_hit_ = cache_hit_ || hit;
        return stats;
    }

    SpmmFormat
    chosenFormat()
    {
        if (format_ == SpmmFormat::Auto) {
            if (req_.spmm_format != SpmmFormat::Auto)
                format_ = req_.spmm_format;
            else
                format_ = formatStats(SpmmFormat::Narrow).timeUs() <=
                                  formatStats(SpmmFormat::Wide)
                                      .timeUs()
                              ? SpmmFormat::Narrow
                              : SpmmFormat::Wide;
        }
        return format_;
    }

    KernelStats
    formatStats(SpmmFormat format)
    {
        const SpmmProfilesView &p = profiles();
        SpmmDevice device(cfg_);
        return format == SpmmFormat::Narrow
                   ? device.timeNarrowFromProfile(*p.a8, req_.n,
                                                  req_.gemm_options)
                   : device.timeWideFromProfile(*p.a32, req_.n,
                                                req_.gemm_options);
    }

    const SpmmProfilesView &
    profiles()
    {
        if (!profiles_resolved_) {
            profiles_resolved_ = true;
            PlanContext ctx;
            ctx.cfg = &cfg_;
            ctx.cache = cache_;
            bool hit = false;
            profiles_ =
                resolveSpmmProfiles(req_, ctx, *operands_, &hit);
            cache_hit_ = cache_hit_ || hit;
        }
        return profiles_;
    }

    KernelRequest req_;
    GpuConfig cfg_;
    uint64_t cfg_digest_;
    EncodingCache *cache_;
    int encode_workers_ = 1;
    PlanOperands operands_;
    SpmmFormat format_ = SpmmFormat::Auto; ///< Auto = not chosen yet
    bool profiles_resolved_ = false;
    SpmmProfilesView profiles_;
};

// -- shared conv plan (dual / dense / zhu) --------------------------

class ConvPlan : public ExecutionPlan
{
  public:
    ConvPlan(const char *name, Method method, const KernelRequest &req,
             const PlanContext &ctx)
        : ExecutionPlan(name, method, req.tag), req_(req),
          cfg_(*ctx.cfg), cfg_digest_(ctx.configDigest()),
          cache_(ctx.cache),
          conv_method_(toConvMethod(method, req.lowering))
    {
    }

  protected:
    KernelReport
    run() override
    {
        KernelReport report;
        if (req_.functional()) {
            ConvResult r = ConvExecutor(cfg_).run(
                *req_.input, *req_.b, req_.shape, conv_method_,
                req_.conv_options);
            report.stats = r.stats;
            report.output = std::make_shared<const Tensor4d>(
                std::move(r.output));
        } else {
            report.stats = timingStats();
        }
        return report;
    }

    double
    estimate() override
    {
        // Functional plans estimate from the operands' measured
        // sparsities instead of executing the convolution — Auto
        // dispatch must not run every candidate's functional path.
        if (!req_.functional())
            return ExecutionPlan::estimate();
        ConvExecutor executor(cfg_);
        return executor
            .timeOnly(req_.shape, conv_method_, req_.b->sparsity(),
                      req_.input->sparsity(), req_.seed,
                      req_.b_cluster, req_.a_cluster)
            .timeUs();
    }

  private:
    /**
     * Timing-only stats, memoized in the timing-stats family under
     * the conv encoding's key. The encoding is resolved only on a
     * stats miss, so a repeated layer (or a losing Auto candidate
     * seen before) never touches it. The conv timing model runs its
     * GEMM phase at the default SpGemmOptions whatever the request
     * carries, so those are the options the key folds.
     */
    KernelStats
    timingStats()
    {
        const uint64_t operand_key =
            convKey(req_, conv_method_).value();
        auto time = [this, operand_key] {
            const KernelRequest &r = req_;
            const ConvMethod cm = conv_method_;
            bool hit = false;
            const auto encoding =
                cache_->getOrBuild<ConvOperandEncoding>(
                    operand_key,
                    [&r, cm] {
                        return encodeConvOperands(
                            r.shape, cm, r.b_sparsity, r.a_sparsity,
                            r.seed, r.b_cluster, r.a_cluster);
                    },
                    &hit);
            cache_hit_ = cache_hit_ || hit;
            return ConvExecutor(cfg_).timeEncoded(r.shape, cm,
                                                  *encoding);
        };
        bool hit = false;
        const KernelStats stats = *cache_->getOrBuild<KernelStats>(
            timingStatsKey(operand_key, SpGemmOptions{}, cfg_digest_),
            time, &hit);
        cache_hit_ = cache_hit_ || hit;
        return stats;
    }

    KernelRequest req_;
    GpuConfig cfg_;
    uint64_t cfg_digest_;
    EncodingCache *cache_;
    ConvMethod conv_method_;
};

class DualSparseBackend : public Backend
{
  public:
    Method method() const override { return Method::DualSparse; }
    const char *name() const override { return "dual-sparse"; }

    bool
    supports(const KernelRequest &req) const override
    {
        switch (req.kind) {
        case KernelRequest::Kind::Gemm:
            // Pre-encoded operands must come as a pair (a
            // half-specified pair has no consistent execution).
            return !req.a_encoded == !req.b_encoded;
        case KernelRequest::Kind::Spmm:
            // SpMM resolves its own A-side encodings (narrow or
            // wide, chosen at plan stage); pre-encoded operands have
            // no entry point.
            return !req.a_encoded && !req.b_encoded;
        case KernelRequest::Kind::Conv:
            // The dual-side design is inherently implicit (the
            // bitmap im2col is part of the datapath, Sec. IV), and
            // the conv pipeline is FP16-only.
            return req.lowering == Lowering::Implicit &&
                   convDataTypeOk(req);
        }
        return false;
    }

    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &req,
         const PlanContext &ctx) const override
    {
        if (req.kind == KernelRequest::Kind::Conv)
            return std::make_unique<ConvPlan>(name(), method(), req,
                                              ctx);
        if (req.kind == KernelRequest::Kind::Spmm)
            return std::make_unique<DualSpmmPlan>(name(), req, ctx);
        return std::make_unique<DualGemmPlan>(name(), req, ctx);
    }
};

// -- shared analytic GEMM plan (dense / zhu / ampere) ---------------

/**
 * The analytic baselines answer a GEMM the same way: an analytic
 * (m, n, k, weight sparsity, dtype) kernel time, plus — when the
 * request carries concrete operands and asks for values — a
 * functional multiply over the spec-quantized operands.
 */
class AnalyticGemmPlan : public ExecutionPlan
{
  public:
    using TimeFn = KernelStats (*)(const GpuConfig &cfg,
                                   const KernelRequest &req,
                                   OperandDigests &operands);
    using MultiplyFn = Matrix<float> (*)(const GpuConfig &cfg,
                                         const KernelRequest &req,
                                         const QuantSpec &spec_a,
                                         const QuantSpec &spec_b);

    AnalyticGemmPlan(const char *name, Method method,
                     const KernelRequest &req, const PlanContext &ctx,
                     TimeFn time, MultiplyFn multiply)
        : ExecutionPlan(name, method, req.tag), req_(req),
          cfg_(*ctx.cfg), operands_(ctx), time_(time),
          multiply_(multiply)
    {
    }

  protected:
    KernelReport
    run() override
    {
        KernelReport report;
        report.stats = time_(cfg_, req_, *operands_);
        if (req_.a && req_.b && req_.gemm_options.functional) {
            const DataType dtype = req_.dataType();
            report.d = std::make_shared<const Matrix<float>>(
                multiply_(cfg_, req_, specFor(dtype, *req_.a),
                          specFor(dtype, *req_.b)));
        }
        return report;
    }

    double
    estimate() override
    {
        // Analytic, so Auto never runs a losing candidate's multiply.
        return time_(cfg_, req_, *operands_).timeUs();
    }

  private:
    KernelRequest req_;
    GpuConfig cfg_;
    PlanOperands operands_;
    TimeFn time_;
    MultiplyFn multiply_;
};

// ===================================================================
// Dense CUTLASS-like Tensor Core
// ===================================================================

/**
 * CUTLASS-like dense GEMM time (Sec. VI-A): the normalization
 * baseline of Fig. 21 and the Dense GEMM cases of Fig. 22. A
 * functional run reports the device kernel's own name.
 */
KernelStats
denseTime(const GpuConfig &cfg, const KernelRequest &req,
          OperandDigests &)
{
    KernelStats stats = DenseGemmDevice(cfg).timeOnly(
        req.m, req.n, req.k, req.dataType());
    if (!(req.a && req.b && req.gemm_options.functional))
        stats.name = "cutlass";
    return stats;
}

Matrix<float>
denseMultiply(const GpuConfig &cfg, const KernelRequest &req,
              const QuantSpec &spec_a, const QuantSpec &spec_b)
{
    return DenseGemmDevice(cfg)
        .multiply(*req.a, *req.b, req.outer_product, spec_a, spec_b)
        .d;
}

class DenseBackend : public Backend
{
  public:
    Method method() const override { return Method::Dense; }
    const char *name() const override { return "dense-cutlass"; }

    bool
    supports(const KernelRequest &req) const override
    {
        switch (req.kind) {
        case KernelRequest::Kind::Gemm:
        case KernelRequest::Kind::Spmm:
            // Dense GEMM answers SpMM by streaming A as a dense m x k
            // operand (zeros and all) — the format-insensitive
            // floor every sparse path must beat. Pre-encoded
            // two-level operands are only consumable by the
            // dual-sparse kernel.
            return !req.a_encoded;
        case KernelRequest::Kind::Conv:
            // Both conv lowerings, FP16-only conv pipeline.
            return convDataTypeOk(req);
        }
        return false;
    }

    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &req,
         const PlanContext &ctx) const override
    {
        if (req.kind == KernelRequest::Kind::Conv)
            return std::make_unique<ConvPlan>(name(), method(), req,
                                              ctx);
        // Kind::Spmm shares the dense GEMM plan: same geometry
        // fields, same kernel (A's sparsity is invisible to a dense
        // datapath).
        return std::make_unique<AnalyticGemmPlan>(
            name(), method(), req, ctx, denseTime, denseMultiply);
    }
};

// ===================================================================
// Zhu vector-wise sparse Tensor Core [72]
// ===================================================================

KernelStats
zhuTime(const GpuConfig &cfg, const KernelRequest &req,
        OperandDigests &operands)
{
    return zhuGemm(cfg, req.m, req.n, req.k,
                   weightSparsity(req, operands), req.dataType());
}

Matrix<float>
zhuMultiply(const GpuConfig &, const KernelRequest &req,
            const QuantSpec &spec_a, const QuantSpec &spec_b)
{
    return zhuGemmFunctional(*req.a, *req.b, 16, spec_a, spec_b);
}

class ZhuSparseBackend : public Backend
{
  public:
    Method method() const override { return Method::ZhuSparse; }
    const char *name() const override { return "zhu-vectorwise"; }

    bool
    exact(const KernelRequest &req) const override
    {
        // GEMM prunes B to the fixed 75% format; the explicit conv
        // strategy's timing presumes that prune too. Only the
        // implicit conv path times the weights' actual sparsity.
        return req.kind == KernelRequest::Kind::Conv &&
               req.lowering == Lowering::Implicit;
    }

    bool
    supports(const KernelRequest &req) const override
    {
        switch (req.kind) {
        case KernelRequest::Kind::Gemm:
            return !req.a_encoded; // no two-level consumption path
        case KernelRequest::Kind::Spmm:
            // The vector-wise format prunes B; SpMM's B side is
            // dense by definition, so the design has nothing to
            // exploit (and pruning dense B changes the numerics).
            return false;
        case KernelRequest::Kind::Conv:
            // Both Single Sparse conv lowerings, FP16 only.
            return convDataTypeOk(req);
        }
        return false;
    }

    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &req,
         const PlanContext &ctx) const override
    {
        if (req.kind == KernelRequest::Kind::Conv)
            return std::make_unique<ConvPlan>(name(), method(), req,
                                              ctx);
        return std::make_unique<AnalyticGemmPlan>(
            name(), method(), req, ctx, zhuTime, zhuMultiply);
    }
};

// ===================================================================
// Ampere 2:4 sparse Tensor Core
// ===================================================================

KernelStats
ampereTime(const GpuConfig &cfg, const KernelRequest &req,
           OperandDigests &operands)
{
    return ampereGemm(cfg, req.m, req.n, req.k,
                      weightSparsity(req, operands), req.dataType());
}

Matrix<float>
ampereMultiply(const GpuConfig &, const KernelRequest &req,
               const QuantSpec &spec_a, const QuantSpec &spec_b)
{
    return ampereGemmFunctional(*req.a, *req.b, spec_a, spec_b);
}

class AmpereSparseBackend : public Backend
{
  public:
    Method method() const override { return Method::AmpereSparse; }
    const char *name() const override { return "ampere-2to4"; }

    bool
    exact(const KernelRequest &req) const override
    {
        (void)req;
        return false; // 2:4 pruning always changes the numerics
    }

    bool
    supports(const KernelRequest &req) const override
    {
        // GEMM only: the 2:4 production design has no conv strategy
        // in the Fig. 22 comparison, and its 2:4 prune has no handle
        // on SpMM's dense B side.
        return req.kind == KernelRequest::Kind::Gemm &&
               !req.a_encoded;
    }

    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &req,
         const PlanContext &ctx) const override
    {
        return std::make_unique<AnalyticGemmPlan>(
            name(), method(), req, ctx, ampereTime, ampereMultiply);
    }
};

// ===================================================================
// cuSPARSE-like CSR SpGEMM
// ===================================================================

class CusparseGemmPlan : public ExecutionPlan
{
  public:
    CusparseGemmPlan(const char *name, const KernelRequest &req,
                     const PlanContext &ctx)
        : ExecutionPlan(name, Method::CusparseLike, req.tag),
          req_(req), cfg_(*ctx.cfg), cache_(ctx.cache),
          operands_(ctx)
    {
    }

  protected:
    KernelReport
    run() override
    {
        KernelReport report;
        if (req_.a && req_.b) {
            // CSR encode is deferred to execution so a losing Auto
            // candidate never pays for it. The CSR encodings stay
            // raw FP32 (dtype-invariant, shareable across request
            // datatypes); quantization happens per value inside the
            // multiply. The latency-limited timing model is
            // insensitive to the lane width.
            resolveCsr();
            const DataType dtype = req_.dataType();
            report.stats = cusparseGemmTime(cfg_, *a_csr_, *b_csr_);
            if (req_.gemm_options.functional)
                report.d = std::make_shared<const Matrix<float>>(
                    csrGemm(*a_csr_, *b_csr_,
                            specFor(dtype, *req_.a),
                            specFor(dtype, *req_.b))
                        .decode());
        } else {
            double da, db;
            operandDensities(req_, *operands_, &da, &db);
            report.stats = cusparseGemmTimeExpected(
                cfg_, req_.m, req_.n, req_.k, da, db);
        }
        return report;
    }

    double
    estimate() override
    {
        // Functional plans estimate from the expected-value model at
        // the operands' measured densities (operandDensities reads
        // the request's operand summaries); timing plans share the
        // memoized run.
        if (!(req_.a && req_.b))
            return ExecutionPlan::estimate();
        double da, db;
        operandDensities(req_, *operands_, &da, &db);
        return cusparseGemmTimeExpected(cfg_, req_.m, req_.n, req_.k,
                                        da, db)
            .timeUs();
    }

  private:
    void
    resolveCsr()
    {
        if (a_csr_)
            return;
        bool hit_a = false, hit_b = false;
        CacheKey ka("csr-a");
        ka.u64(operands_->digest(*req_.a));
        const Matrix<float> *a = req_.a;
        a_csr_ = cache_->getOrBuild<CsrMatrix>(
            ka.value(), [a] { return CsrMatrix::encode(*a); },
            &hit_a);
        CacheKey kb("csr-b");
        kb.u64(operands_->digest(*req_.b));
        const Matrix<float> *b = req_.b;
        b_csr_ = cache_->getOrBuild<CsrMatrix>(
            kb.value(), [b] { return CsrMatrix::encode(*b); },
            &hit_b);
        cache_hit_ = cache_hit_ || hit_a || hit_b;
    }

    KernelRequest req_;
    GpuConfig cfg_;
    EncodingCache *cache_;
    PlanOperands operands_;
    std::shared_ptr<const CsrMatrix> a_csr_;
    std::shared_ptr<const CsrMatrix> b_csr_;
};

/**
 * Library-style CSR SpMM plan (cusparseSpMM shape): one row-parallel
 * kernel. The functional path accumulates in ascending-k order from
 * spec-quantized operands, so its output is bitwise identical to the
 * dual-sparse SpMM paths — the baseline the gate compares against is
 * numerically the very same computation.
 */
class CusparseSpmmPlan : public ExecutionPlan
{
  public:
    CusparseSpmmPlan(const char *name, const KernelRequest &req,
                     const PlanContext &ctx)
        : ExecutionPlan(name, Method::CusparseLike, req.tag),
          req_(req), cfg_(*ctx.cfg), cache_(ctx.cache),
          operands_(ctx)
    {
    }

  protected:
    KernelReport
    run() override
    {
        KernelReport report;
        if (req_.a && req_.b) {
            resolveCsrA();
            const int64_t products =
                static_cast<int64_t>(a_csr_->nnz()) * req_.n;
            report.stats = cusparseSpmmTime(cfg_, req_.m, products,
                                            req_.m * req_.n);
            if (req_.gemm_options.functional) {
                const DataType dtype = req_.dataType();
                report.d = std::make_shared<const Matrix<float>>(
                    csrSpmm(*a_csr_, *req_.b,
                            specFor(dtype, *req_.a),
                            specFor(dtype, *req_.b)));
            }
        } else {
            report.stats = timeFromDensity();
        }
        return report;
    }

    double
    estimate() override
    {
        // The density probe reads the exact non-zero count (the
        // operand summary's for concrete A, profile totals
        // otherwise), and
        // the model depends on A only through that count — so this
        // estimate equals the executed stats without paying the CSR
        // encode.
        return timeFromDensity().timeUs();
    }

  private:
    KernelStats
    timeFromDensity()
    {
        double da, db;
        operandDensities(req_, *operands_, &da, &db);
        const double nnz_a =
            da * static_cast<double>(req_.m) * req_.k;
        return cusparseSpmmTime(
            cfg_, req_.m,
            static_cast<int64_t>(nnz_a) * req_.n,
            req_.m * req_.n);
    }

    void
    resolveCsrA()
    {
        if (a_csr_)
            return;
        bool hit = false;
        CacheKey key("csr-a");
        key.u64(operands_->digest(*req_.a));
        const Matrix<float> *a = req_.a;
        a_csr_ = cache_->getOrBuild<CsrMatrix>(
            key.value(), [a] { return CsrMatrix::encode(*a); }, &hit);
        cache_hit_ = cache_hit_ || hit;
    }

    KernelRequest req_;
    GpuConfig cfg_;
    EncodingCache *cache_;
    PlanOperands operands_;
    std::shared_ptr<const CsrMatrix> a_csr_;
};

class CusparseLikeBackend : public Backend
{
  public:
    Method method() const override { return Method::CusparseLike; }
    const char *name() const override { return "cusparse-like"; }

    bool
    supports(const KernelRequest &req) const override
    {
        return (req.kind == KernelRequest::Kind::Gemm ||
                req.kind == KernelRequest::Kind::Spmm) &&
               !req.a_encoded;
    }

    std::unique_ptr<ExecutionPlan>
    plan(const KernelRequest &req,
         const PlanContext &ctx) const override
    {
        if (req.kind == KernelRequest::Kind::Spmm)
            return std::make_unique<CusparseSpmmPlan>(name(), req,
                                                      ctx);
        return std::make_unique<CusparseGemmPlan>(name(), req, ctx);
    }
};

} // namespace

std::unique_ptr<Backend>
makeDualSparseBackend()
{
    return std::make_unique<DualSparseBackend>();
}

std::unique_ptr<Backend>
makeDenseBackend()
{
    return std::make_unique<DenseBackend>();
}

std::unique_ptr<Backend>
makeZhuSparseBackend()
{
    return std::make_unique<ZhuSparseBackend>();
}

std::unique_ptr<Backend>
makeAmpereSparseBackend()
{
    return std::make_unique<AmpereSparseBackend>();
}

std::unique_ptr<Backend>
makeCusparseLikeBackend()
{
    return std::make_unique<CusparseLikeBackend>();
}

} // namespace dstc
