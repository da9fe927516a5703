/**
 * @file
 * sparse-kernels: closed loop, one caller, functional ops on concrete
 * values, each on a fresh Session so encoding is paid every time:
 *
 *  - dual-side SpGEMM at 1024^3 (Method::Auto) over A/B sparsity
 *    points from 0.5 to 0.95, one clustered point and one int8 point,
 *    plus one Method::Hybrid mixed-density point;
 *  - SpMM (Method::Auto, Auto format) over the six corpus .mtx
 *    matrices at N = 32;
 *  - dual-sparse conv, ResNet-like 64x56x56 3x3, stride 1 and 2.
 *
 * The word encoders, the functional kernels, the im2col lowering and
 * large parallelFor loops do the work; serving, placement and cache
 * reuse do none.
 */
#include <algorithm>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <stdexcept>

#include "arith.h"
#include "common/rng.h"
#include "conv/spconv.h"
#include "core/gemm_operands.h"
#include "gemm/spmm_device.h"
#include "im2col/bitmap_im2col.h"
#include "model/sparsity_gen.h"
#include "serve/stats.h"
#include "sparse/mtx_io.h"
#include "sparse/word_encode.h"
#include "tensor/reference.h"
#include "timing/merge_model.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace dstc;

constexpr int kGemmDim = 1024;
constexpr int kSpmmN = 32;

/** A corpus matrix as loaded when the benchmark was defined. */
struct CorpusMatrix
{
    const char *file;
    int rows, cols;
    int64_t nnz;
    /** matrixDigest of the loaded matrix. */
    uint64_t digest;
};

/**
 * The SpMM inputs, fixed: a corpus file that is missing, or loads to
 * other dimensions, nonzeros or values, fails its op instead of
 * silently changing the workload.
 */
constexpr CorpusMatrix kCorpus[] = {
    {"circuit_like.mtx", 3072, 3072, 10385, 589417454899627335ull},
    {"cora_like.mtx", 2708, 2708, 30817, 11247470324918349324ull},
    {"ppi_like.mtx", 2048, 2048, 23744, 14157777921806368839ull},
    {"roadnet_like.mtx", 4096, 4096, 14940, 12923848468914090727ull},
    {"stencil5.mtx", 4096, 4096, 20224, 13287530260282948419ull},
    {"web_like.mtx", 3000, 3000, 23799, 17146433901299523986ull},
};

/** Largest |difference| an FP16 GEMM output may show against
 *  refGemmFp16 (same operands, different accumulation order). */
constexpr double kFp16Tolerance = 1e-3;

enum class OpKind
{
    Gemm,
    Spmm,
    Conv,
};

/** One functional op: its operands, its request and its Session. */
struct Op
{
    std::string name;
    OpKind kind = OpKind::Gemm;
    Matrix<float> a, b;
    Tensor4d input;
    /** SpMM: the corpus matrix A must be. */
    const CorpusMatrix *corpus = nullptr;
    KernelRequest request;
    std::unique_ptr<Session> session;
};

/** A with `dense_quarters` of every four 32-row groups dense and the
 *  rest 98% sparse: the mixed-density input Method::Hybrid splits. */
Matrix<float>
stripedA(int m, int k, int dense_quarters, Rng &rng)
{
    Matrix<float> a(m, k);
    for (int r = 0; r < m; ++r) {
        const double density = (r / 32) % 4 < dense_quarters ? 1.0 : 0.02;
        for (int c = 0; c < k; ++c) {
            if (rng.bernoulli(density)) {
                const float v = rng.uniformFloat(-1.0f, 1.0f);
                a.at(r, c) = v == 0.0f ? 0.5f : v;
            }
        }
    }
    return a;
}

/** FNV-1a over the position and value bits of every nonzero, in
 *  row-major order. */
uint64_t
matrixDigest(const Matrix<float> &m)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (word >> (8 * byte)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (int r = 0; r < m.rows(); ++r)
        for (int c = 0; c < m.cols(); ++c) {
            const float v = m.at(r, c);
            if (v == 0.0f)
                continue;
            uint32_t bits = 0;
            std::memcpy(&bits, &v, sizeof bits);
            mix((static_cast<uint64_t>(r) << 32) | static_cast<uint32_t>(c));
            mix(bits);
        }
    return h;
}

int64_t
nonzeros(const Matrix<float> &m)
{
    int64_t n = 0;
    for (float v : m.data())
        n += v != 0.0f;
    return n;
}

/** What the first untraced pass produced for one op, after it
 *  passed the reference checks. Later passes must match it bitwise. */
struct Expected
{
    KernelReport report;
    double dense_us = 0.0;
};

class SparseKernels : public Workload
{
  public:
    SparseKernels(uint64_t seed, std::string corpus_dir)
        : seed_(seed), corpus_dir_(std::move(corpus_dir))
    {
    }

    PassResult
    runPass(Tracer &tracer) override
    {
        PassResult pass;
        tracer.setOp(-1);
        const RegionClock setup;
        std::deque<Op> ops = buildOps(tracer);
        pass.setup_s = setup.wallMs() * 1e-3;
        pass.setup_cpu_s = setup.cpuSeconds();

        std::vector<double> op_sim_us;
        std::vector<double> speedups;
        auto &e = pass.exact;
        for (size_t i = 0; i < ops.size(); ++i) {
            Op &op = ops[i];
            tracer.setOp(static_cast<int64_t>(i));
            ++pass.attempted;
            KernelReport report;
            try {
                report = tracer.enabled()
                             ? tracedOp(tracer, op, &pass)
                             : timedRun(*op.session, op.request, i, &pass);
            } catch (const std::exception &ex) {
                pass.fail(op.name + " threw: " + ex.what());
                continue;
            }
            tracer.setOp(-1);
            if (op.request.method == Method::Auto)
                e["core.auto_candidates"] += static_cast<double>(
                    op.session->registry()
                        .candidates(op.request)
                        .size());
            if (!checkOp(op, i, report, &pass))
                continue;
            ++pass.ops;
            op_sim_us.push_back(report.timeUs());
            speedups.push_back(expected_.at(i).dense_us / report.timeUs());
            addKernelStats(report.stats, &e);
            if (!tracer.enabled())
                addCacheCounters(op.session->encodingCache(),
                                 &pass.untraced);
            op.session.reset(); // the op's encodings end with the op
        }
        tracer.setOp(-1);
        e["sim_speedup_vs_dense"] = geomean(speedups);
        e["sim_p99_us"] = nearestRank(op_sim_us, 99.0).value;
        e["sim_goodput_rpms"] =
            static_cast<double>(pass.ops) / (e["sim_us"] * 1e-3);
        finishKernelStats(&e);
        finishCacheCounters(&pass.untraced);
        e["timing.merge_memo_entries"] =
            static_cast<double>(MergeCostModel::memoRegistryEntries());
        return pass;
    }

  private:
    /** Every op's inputs, generated from the seed, and a fresh
     *  Session per op (the timed set-up). A deque, because requests
     *  point at their op's operands, which must not move. */
    std::deque<Op> buildOps(Tracer &tracer) const
    {
        std::deque<Op> ops;
        Rng rng(seed_);
        auto gemm = [&](std::string name, double sa, double sb,
                        bool clustered, DataType dtype) {
            Op op;
            op.name = std::move(name);
            if (clustered) {
                op.a = clusteredSparseMatrix(kGemmDim, kGemmDim, sa, 32,
                                             4.0, rng);
                op.b = clusteredSparseMatrix(kGemmDim, kGemmDim, sb, 32,
                                             4.0, rng);
            } else {
                op.a = uniformSparseMatrix(kGemmDim, kGemmDim, sa, rng);
                op.b = uniformSparseMatrix(kGemmDim, kGemmDim, sb, rng);
            }
            ops.push_back(std::move(op));
            ops.back().request = KernelRequest::gemm(ops.back().a,
                                                     ops.back().b)
                                     .withDataType(dtype)
                                     .withTag(ops.back().name);
        };
        gemm("spgemm_0.5_0.5", 0.5, 0.5, false, DataType::Fp16);
        gemm("spgemm_0.7_0.7", 0.7, 0.7, false, DataType::Fp16);
        gemm("spgemm_0.8_0.9", 0.8, 0.9, false, DataType::Fp16);
        gemm("spgemm_0.9_0.9", 0.9, 0.9, false, DataType::Fp16);
        gemm("spgemm_0.95_0.95", 0.95, 0.95, false, DataType::Fp16);
        gemm("spgemm_clustered_0.8_0.8", 0.8, 0.8, true, DataType::Fp16);
        gemm("spgemm_int8_0.8_0.8", 0.8, 0.8, false, DataType::Int8);
        {
            Op op;
            op.name = "hybrid_striped_0.7";
            op.a = stripedA(kGemmDim, kGemmDim, 2, rng);
            op.b = uniformSparseMatrix(kGemmDim, kGemmDim, 0.7, rng);
            ops.push_back(std::move(op));
            Op &h = ops.back();
            h.request = KernelRequest::gemm(h.a, h.b)
                            .withMethod(Method::Hybrid)
                            .withTag(h.name);
        }
        for (const CorpusMatrix &matrix : kCorpus) {
            const std::filesystem::path file =
                std::filesystem::path(corpus_dir_) / matrix.file;
            Op op;
            op.name = "spmm_" + file.stem().string();
            op.kind = OpKind::Spmm;
            op.corpus = &matrix;
            std::string error;
            bool loaded = false;
            {
                Tracer::Scope span(tracer, "sparse.mtx_load");
                loaded = loadMatrixMarket(file.string(), &op.a, &error);
            }
            if (!loaded)
                throw std::runtime_error(error);
            op.b = uniformSparseMatrix(op.a.cols(), kSpmmN, 0.0, rng);
            ops.push_back(std::move(op));
            Op &s = ops.back();
            s.request = KernelRequest::spmm(s.a, s.b).withTag(s.name);
        }
        for (int stride : {1, 2}) {
            Op op;
            op.name = "conv_64x56x56_3x3_s" + std::to_string(stride);
            op.kind = OpKind::Conv;
            ConvShape shape;
            shape.in_c = 64;
            shape.in_h = 56;
            shape.in_w = 56;
            shape.out_c = 64;
            shape.kernel = 3;
            shape.stride = stride;
            shape.pad = 1;
            op.input = reluActivationTensor(1, 64, 56, 56, 0.6, rng);
            op.b = uniformSparseMatrix(64, 64 * 9, 0.7, rng);
            ops.push_back(std::move(op));
            Op &c = ops.back();
            c.request = KernelRequest::conv(c.input, c.b, shape)
                            .withMethod(Method::DualSparse)
                            .withTag(c.name);
        }
        for (Op &op : ops)
            op.session = std::make_unique<Session>();
        return ops;
    }

    /**
     * Checks one op's report. The first untraced pass checks it
     * against the repository's references (computed here, outside
     * the timed region and set-up) and keeps it; every later pass,
     * traced or not, must reproduce that report bit for bit.
     */
    bool
    checkOp(const Op &op, size_t i, const KernelReport &report,
            PassResult *pass)
    {
        if (report.method == Method::DualSparse &&
            op.kind != OpKind::Conv && report.planned_us != report.timeUs()) {
            pass->fail(op.name + ": planned_us " +
                       std::to_string(report.planned_us) +
                       " != executed " + std::to_string(report.timeUs()));
            return false;
        }
        if (const auto it = expected_.find(i); it != expected_.end()) {
            const KernelReport &want = it->second.report;
            const bool same =
                statsBitwiseEqual(report.stats, want.stats) &&
                report.method == want.method &&
                (op.kind == OpKind::Conv
                     ? report.output && want.output &&
                           bitwiseEqual(report.output->data(),
                                        want.output->data())
                     : report.d && want.d &&
                           bitwiseEqual(report.d->data(), want.d->data()));
            if (!same)
                pass->fail(op.name + ": report differs from the first "
                                     "pass's checked report");
            return same;
        }
        std::string why;
        if (!matchesReference(op, report, &why)) {
            pass->fail(op.name + ": " + why);
            return false;
        }
        Expected exp;
        exp.report = report;
        exp.dense_us = denseTimeUs(op);
        expected_.emplace(i, std::move(exp));
        return true;
    }

    static bool
    matchesReference(const Op &op, const KernelReport &report,
                     std::string *why)
    {
        if (op.kind == OpKind::Conv) {
            const ConvResult ref = ConvExecutor(op.session->config())
                                       .runScalar(op.input, op.b,
                                                  op.request.shape,
                                                  ConvMethod::DualSparseImplicit,
                                                  op.request.conv_options);
            if (!report.output ||
                !bitwiseEqual(report.output->data(), ref.output.data())) {
                *why = "output differs from ConvExecutor::runScalar";
                return false;
            }
            if (!statsBitwiseEqual(report.stats, ref.stats)) {
                *why = "stats differ from ConvExecutor::runScalar";
                return false;
            }
            return true;
        }
        if (!report.d) {
            *why = "no functional output";
            return false;
        }
        const DataType dtype = op.request.dataType();
        if (op.kind == OpKind::Spmm) {
            const CorpusMatrix &want = *op.corpus;
            if (op.a.rows() != want.rows || op.a.cols() != want.cols ||
                nonzeros(op.a) != want.nnz ||
                matrixDigest(op.a) != want.digest) {
                *why = std::string(want.file) + " is not the recorded " +
                       "corpus matrix (" + std::to_string(op.a.rows()) +
                       "x" + std::to_string(op.a.cols()) + ", " +
                       std::to_string(nonzeros(op.a)) + " nonzeros, digest " +
                       std::to_string(matrixDigest(op.a)) + ")";
                return false;
            }
            const Matrix<float> ref = refSpmmNarrow(op.a, op.b, dtype);
            const bool exact_backend =
                report.method == Method::DualSparse ||
                report.method == Method::CusparseLike;
            if (exact_backend ? !bitwiseEqual(report.d->data(), ref.data())
                              : maxAbsDiff(*report.d, ref) > kFp16Tolerance) {
                *why = "output differs from refSpmmNarrow";
                return false;
            }
            return true;
        }
        if (dtype != DataType::Fp16) {
            const Matrix<float> ref = refGemmQuant(
                op.a, op.b,
                QuantSpec::forValues(dtype, op.a.data().data(),
                                     op.a.data().size()),
                QuantSpec::forValues(dtype, op.b.data().data(),
                                     op.b.data().size()));
            if (!bitwiseEqual(report.d->data(), ref.data())) {
                *why = "output differs from refGemmQuant";
                return false;
            }
            return true;
        }
        const double diff = maxAbsDiff(*report.d, refGemmFp16(op.a, op.b));
        if (diff > kFp16Tolerance) {
            *why = "max |output - refGemmFp16| = " + std::to_string(diff);
            return false;
        }
        return true;
    }

    /** The dense backend's time for the op's request (its plan-stage
     *  estimate, which is analytical: nothing executes). */
    static double
    denseTimeUs(const Op &op)
    {
        Session session(op.session->config());
        KernelRequest dense = op.request;
        dense.method = Method::Dense;
        return session.plan(dense)->estimatedTimeUs();
    }

    /**
     * One op through its layer calls, in the order Session composes
     * them. An Auto op lists the candidates, then estimates each one
     * in registry order (the dual-sparse candidate as its profile
     * calls and cost-model estimate, the others as their backend's
     * plan and estimate), keeps the first fastest like
     * KernelRegistry::plan, and executes it: the dual-sparse winner as
     * encode then kernel. A conv is ConvExecutor::run; its bitmap
     * im2col is reached only through it, so the lowering is also timed
     * on its own, as a probe outside the op. The hybrid op can only be
     * reached through Session::plan and ExecutionPlan::execute.
     */
    static KernelReport
    tracedOp(Tracer &tracer, Op &op, PassResult *pass)
    {
        KernelReport report;
        {
            Tracer::Scope root(tracer, "op");
            if (op.request.method == Method::Auto)
                report = tracedAuto(tracer, op, pass);
            else if (op.kind == OpKind::Conv)
                report = tracedConv(tracer, op);
            else {
                std::unique_ptr<ExecutionPlan> plan;
                {
                    Tracer::Scope span(tracer, "core.plan");
                    plan = op.session->plan(op.request);
                }
                Tracer::Scope span(tracer, "core.execute");
                report = plan->execute();
            }
        }
        if (op.kind == OpKind::Conv) {
            tracer.setOp(-1);
            Tracer::Scope probe(tracer, "probe");
            Tracer::Scope span(tracer, "im2col.lower");
            const BitmapFeatureMap fmap = BitmapFeatureMap::encode(op.input);
            im2colFromBitmap(fmap, op.request.shape);
        }
        return report;
    }

    /** The dual-sparse candidate's plan-stage work: operand profiles
     *  and the cost-model estimate (for SpMM, of both formats). */
    struct DualEstimate
    {
        SparsityProfile a{1, 1, 32}, b{1, 1, 32};
        bool narrow = false; ///< SpMM: the narrow format is cheaper
        double us = 0.0;
    };

    static KernelReport
    tracedAuto(Tracer &tracer, const Op &op, PassResult *pass)
    {
        Session &session = *op.session;
        std::vector<const Backend *> candidates;
        {
            Tracer::Scope span(tracer, "core.candidates");
            candidates = session.registry().candidates(op.request);
        }
        PlanContext ctx;
        ctx.cfg = &session.config();
        ctx.cache = &session.encodingCache();
        ctx.registry = &session.registry();
        DualEstimate dual;
        std::unique_ptr<ExecutionPlan> best_plan;
        bool have_best = false, best_is_dual = false;
        double best_us = 0.0;
        for (const Backend *backend : candidates) {
            const bool is_dual = backend->method() == Method::DualSparse;
            std::unique_ptr<ExecutionPlan> plan;
            double us = 0.0;
            if (is_dual) {
                dual = estimateDual(tracer, op);
                us = dual.us;
            } else {
                Tracer::Scope span(tracer, "core.estimate");
                plan = backend->plan(op.request, ctx);
                us = plan->estimatedTimeUs();
            }
            if (!have_best || us < best_us) {
                have_best = true;
                best_us = us;
                best_is_dual = is_dual;
                best_plan = std::move(plan);
            }
        }
        if (!have_best)
            throw std::runtime_error("no Auto candidate for " + op.name);
        if (!best_is_dual) {
            Tracer::Scope span(tracer, "core.execute");
            return best_plan->execute();
        }
        KernelReport report = executeDual(tracer, op, dual, pass);
        report.planned_us = best_us;
        return report;
    }

    static DualEstimate
    estimateDual(Tracer &tracer, const Op &op)
    {
        const SpGemmOptions &o = op.request.gemm_options;
        DualEstimate est;
        {
            // The dual plan keys its cache entries by a digest of each
            // operand's full contents (OperandDigests), once per plan.
            Tracer::Scope span(tracer, "core.digest");
            uint64_t digest = CacheKey("operand-bytes").matrix(op.a).value();
            if (op.kind == OpKind::Gemm)
                digest ^= CacheKey("operand-bytes").matrix(op.b).value();
            digest_sink_ = digest;
        }
        if (op.kind == OpKind::Gemm) {
            {
                Tracer::Scope span(tracer, "gemm.profile");
                est.a = SparsityProfile::fromMatrixAWord(op.a, o.tile_m);
                est.b = SparsityProfile::fromMatrixBWord(op.b, o.tile_n);
            }
            const SpGemmDevice device(op.session->config());
            Tracer::Scope span(tracer, "gemm.time_from_profiles");
            est.us = device.timeFromProfiles(est.a, est.b, o).timeUs();
            return est;
        }
        {
            Tracer::Scope span(tracer, "gemm.profile");
            est.a = SparsityProfile::fromMatrixAWord(op.a, 8);
            est.b = aggregateSpmmProfile(est.a);
        }
        const SpmmDevice device(op.session->config());
        Tracer::Scope span(tracer, "gemm.spmm_time_from_profile");
        const double narrow_us =
            device.timeNarrowFromProfile(est.a, op.request.n, o).timeUs();
        const double wide_us =
            device.timeWideFromProfile(est.b, op.request.n, o).timeUs();
        est.narrow = narrow_us <= wide_us;
        est.us = est.narrow ? narrow_us : wide_us;
        return est;
    }

    /** The dual-sparse winner's execution: encode (serially, as the
     *  Session's default encode_workers = 1 does), then the kernel. */
    static KernelReport
    executeDual(Tracer &tracer, const Op &op, const DualEstimate &est,
                PassResult *pass)
    {
        const SpGemmOptions &o = op.request.gemm_options;
        auto spec = [&o](const Matrix<float> &m) {
            return QuantSpec::forValues(o.dtype, m.data().data(),
                                        m.data().size());
        };
        KernelReport report;
        report.method = Method::DualSparse;
        auto keep = [&report](Matrix<float> d, const KernelStats &stats) {
            report.stats = stats;
            report.d = std::make_shared<const Matrix<float>>(std::move(d));
        };
        double &encoded_mb = pass->traced["sparse.encoded_mb"];
        if (op.kind == OpKind::Gemm) {
            TwoLevelBitmapMatrix ea, eb;
            {
                Tracer::Scope span(tracer, "sparse.encode");
                ea = wordEncodeTwoLevel(op.a, o.tile_m, o.tile_k,
                                        Major::Col, 1, spec(op.a));
                eb = wordEncodeTwoLevel(op.b, o.tile_k, o.tile_n,
                                        Major::Row, 1, spec(op.b));
            }
            encoded_mb +=
                static_cast<double>(ea.encodedBytes() + eb.encodedBytes()) *
                1e-6;
            const SpGemmDevice device(op.session->config());
            Tracer::Scope span(tracer, "gemm.spgemm");
            SpGemmResult r = device.multiplyEncoded(ea, eb, o);
            keep(std::move(r.d), r.stats);
            return report;
        }
        const SpmmDevice device(op.session->config());
        if (est.narrow) {
            NarrowTileMatrix enc;
            {
                Tracer::Scope span(tracer, "sparse.encode");
                enc = wordEncodeNarrowTile(op.a, 1, spec(op.a));
            }
            encoded_mb += static_cast<double>(enc.encodedBytes(o.dtype)) * 1e-6;
            Tracer::Scope span(tracer, "gemm.spmm");
            SpmmResult r = device.multiplyNarrow(enc, op.b, spec(op.b), o);
            keep(std::move(r.d), r.stats);
            return report;
        }
        TwoLevelBitmapMatrix enc;
        {
            Tracer::Scope span(tracer, "sparse.encode");
            enc = wordEncodeTwoLevel(op.a, o.tile_m, o.tile_k, Major::Col, 1,
                                     spec(op.a));
        }
        encoded_mb += static_cast<double>(enc.encodedBytes()) * 1e-6;
        Tracer::Scope span(tracer, "gemm.spmm");
        SpmmResult r = device.multiplyWide(enc, op.b, spec(op.b), o);
        keep(std::move(r.d), r.stats);
        return report;
    }

    static KernelReport
    tracedConv(Tracer &tracer, const Op &op)
    {
        KernelReport report;
        report.method = Method::DualSparse;
        const ConvExecutor executor(op.session->config());
        Tracer::Scope span(tracer, "conv.run");
        ConvResult r = executor.run(op.input, op.b, op.request.shape,
                                    ConvMethod::DualSparseImplicit,
                                    op.request.conv_options);
        report.stats = r.stats;
        report.output = std::make_shared<const Tensor4d>(std::move(r.output));
        return report;
    }

    /** Keeps the traced digests observable so they are computed. */
    static inline volatile uint64_t digest_sink_ = 0;

    uint64_t seed_;
    std::string corpus_dir_;
    /** Keyed by op index; filled by the first pass that checks an
     *  op against the references. */
    std::map<size_t, Expected> expected_;
};

} // namespace

std::unique_ptr<Workload>
makeSparseKernels(uint64_t seed, const std::string &corpus_dir)
{
    return std::make_unique<SparseKernels>(seed, corpus_dir);
}

} // namespace perfbench
