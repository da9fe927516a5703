/**
 * @file
 * Micro-benchmark of the word-parallel operand-encode layer — the
 * stage the paper argues must be cheap enough to run online on both
 * GEMM sides. Four kinds of point:
 *
 *  - "twolevel": dense -> two-level encode of a GEMM operand pair
 *    (A column-major + B row-major, exactly what a functional
 *    dual-sparse request encodes), three ways: the element-wise
 *    scalar reference (TwoLevelBitmapMatrix::encode), the
 *    word-parallel single-thread encoder, and the pooled parallel
 *    encoder (encode_workers = 0). Reports dense GB/s through the
 *    word encoder.
 *  - "request": end-to-end dense-GEMM request latency through a
 *    Session — cold (word encode + compute) vs the old pipeline's
 *    cost (scalar encode + the same cached-compute request). Each
 *    rep runs for a minimum wall time (one sub-millisecond request
 *    is too short to time alone), and the arms' reps interleave.
 *  - "digest": the content digest every cache lookup of a concrete
 *    operand pays first — CacheKey::matrix (the word-lane hash) over
 *    a GEMM operand pair, vs a byte-serial FNV-1a loop (the digest
 *    it replaced), and the pair digested on two pool workers.
 *  - "lowering": the strided conv im2col gather, word-parallel
 *    deinterleave vs the retained per-bit probe reference, at
 *    stride 2 and 3.
 *  - "ingest": everything an SpMM plan reads off its concrete A
 *    operand — the digest, the strip and warp-tile profiles, the
 *    density probe and the narrow encode — built as separate passes
 *    over the floats (each consumer on its own, as before the
 *    OperandSummary) vs derived from one OperandSummary; the pooled
 *    arm runs the narrow encode on the pool. The warm-cache columns
 *    time what a cache hit pays: the digest alone vs the whole
 *    summary pass.
 *
 * Results are written as JSON (default BENCH_encode.json; see the
 * bench_json CMake target) so every PR leaves a perf trajectory and
 * tools/check_bench.py can gate regressions in CI. `--quick` runs a
 * seconds-scale subset. Any bitwise divergence between the scalar
 * and word paths is fatal — the bench doubles as an equivalence
 * check.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/bitutil.h"
#include "core/gemm_operands.h"
#include "core/operand_summary.h"
#include "core/session.h"
#include "im2col/bitmap_im2col.h"
#include "model/sparsity_gen.h"
#include "sparse/word_encode.h"
#include "tensor/tensor4d.h"

using namespace dstc;
using bench::timeArmsMinMs;
using bench::timeMs;

namespace {

/** Minimum wall time of one rep of a sub-millisecond-scale point. */
constexpr double kMinRepMs = 25.0;

/** Receives the baseline digests, so the compiler keeps their loop. */
volatile uint64_t g_digest_sink = 0;

struct Point
{
    /// "twolevel" | "request" | "lowering" | "digest" | "ingest"
    std::string kind;
    int m = 0, k = 0;
    double sparsity = 0.0;
    int stride = 0; ///< lowering points only
    double scalar_ms = 0.0;
    double word_ms = 0.0;
    double parallel_ms = 0.0;
    double gbps = 0.0; ///< dense bytes through the word path
    bool bitwise_equal = false;
    /// ingest points: a cache hit's digest alone vs the whole summary
    double hit_digest_ms = 0.0;
    double hit_summary_ms = 0.0;
};

/** Bit-for-bit comparison of two one-level bitmaps. */
bool
identicalBitmap(const BitmapMatrix &a, const BitmapMatrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols() ||
        a.major() != b.major() || a.nnz() != b.nnz())
        return false;
    for (int line = 0; line < a.numLines(); ++line) {
        const auto wa = a.lineBits(line);
        const auto wb = b.lineBits(line);
        const auto va = a.lineValues(line);
        const auto vb = b.lineValues(line);
        const auto fa = a.lineValuesFp16(line);
        const auto fb = b.lineValuesFp16(line);
        if (wa.size() != wb.size() || va.size() != vb.size())
            return false;
        if (std::memcmp(wa.data(), wb.data(),
                        wa.size() * sizeof(uint64_t)) != 0 ||
            std::memcmp(va.data(), vb.data(),
                        va.size() * sizeof(float)) != 0 ||
            std::memcmp(fa.data(), fb.data(),
                        fa.size() * sizeof(float)) != 0)
            return false;
    }
    return true;
}

/** Bit-for-bit comparison of two two-level encodings. */
bool
identicalTwoLevel(const TwoLevelBitmapMatrix &a,
                  const TwoLevelBitmapMatrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols() ||
        a.numTileRows() != b.numTileRows() ||
        a.numTileCols() != b.numTileCols() || a.nnz() != b.nnz() ||
        a.nonEmptyTiles() != b.nonEmptyTiles())
        return false;
    for (int tr = 0; tr < a.numTileRows(); ++tr)
        for (int tc = 0; tc < a.numTileCols(); ++tc)
            if (a.tileNonEmpty(tr, tc) != b.tileNonEmpty(tr, tc) ||
                !identicalBitmap(a.tile(tr, tc), b.tile(tr, tc)))
                return false;
    return true;
}

/**
 * One datatype point of the encode precision axis: wall time of the
 * word-parallel encode filling that datatype's value lane, the
 * dtype-aware encoded footprint of the operand pair, and the bitwise
 * pin of the word encoder against the element-wise scalar encode
 * under the same QuantSpec (serial and pooled).
 */
struct PrecisionPoint
{
    int m = 0, k = 0;
    double sparsity = 0.0;
    DataType dtype = DataType::Fp16;
    double word_ms = 0.0;
    double encoded_mb = 0.0;
    bool bitwise_equal = false;
};

PrecisionPoint
runEncodePrecisionPoint(int size, double sparsity, DataType dtype,
                        int reps)
{
    PrecisionPoint p;
    p.m = p.k = size;
    p.sparsity = sparsity;
    p.dtype = dtype;

    Rng rng(0xe4c0de ^ (static_cast<uint64_t>(sparsity * 100) << 8) ^
            static_cast<uint64_t>(size));
    Matrix<float> a = randomSparseMatrix(size, size, sparsity, rng);
    Matrix<float> b = randomSparseMatrix(size, size, sparsity, rng);
    SpGemmOptions opts; // tile_m/k/n = 32

    const QuantSpec spec_a = QuantSpec::forValues(
        dtype, a.data().data(), a.data().size());
    const QuantSpec spec_b = QuantSpec::forValues(
        dtype, b.data().data(), b.data().size());

    p.word_ms = timeMs(reps, [&] {
        wordEncodeTwoLevel(a, opts.tile_m, opts.tile_k, Major::Col, 1,
                           spec_a);
        wordEncodeTwoLevel(b, opts.tile_k, opts.tile_n, Major::Row, 1,
                           spec_b);
    });

    TwoLevelBitmapMatrix a_word = wordEncodeTwoLevel(
        a, opts.tile_m, opts.tile_k, Major::Col, 1, spec_a);
    TwoLevelBitmapMatrix b_pooled = wordEncodeTwoLevel(
        b, opts.tile_k, opts.tile_n, Major::Row, 0, spec_b);
    TwoLevelBitmapMatrix a_scalar = TwoLevelBitmapMatrix::encode(
        a, opts.tile_m, opts.tile_k, Major::Col, spec_a);
    TwoLevelBitmapMatrix b_scalar = TwoLevelBitmapMatrix::encode(
        b, opts.tile_k, opts.tile_n, Major::Row, spec_b);
    p.encoded_mb = (a_scalar.encodedBytes() +
                    b_scalar.encodedBytes()) /
                   1e6;
    p.bitwise_equal = identicalTwoLevel(a_word, a_scalar) &&
                      identicalTwoLevel(b_pooled, b_scalar);
    return p;
}

Point
runTwoLevelPoint(int size, double sparsity, int reps)
{
    Point p;
    p.kind = "twolevel";
    p.m = p.k = size;
    p.sparsity = sparsity;

    Rng rng(0xe4c0de ^ (static_cast<uint64_t>(sparsity * 100) << 8) ^
            static_cast<uint64_t>(size));
    Matrix<float> a = randomSparseMatrix(size, size, sparsity, rng);
    Matrix<float> b = randomSparseMatrix(size, size, sparsity, rng);
    SpGemmOptions opts; // tile_m/k/n = 32

    p.scalar_ms = timeMs(reps, [&] {
        TwoLevelBitmapMatrix::encode(a, opts.tile_m, opts.tile_k,
                                     Major::Col);
        TwoLevelBitmapMatrix::encode(b, opts.tile_k, opts.tile_n,
                                     Major::Row);
    });
    p.word_ms = timeMs(reps, [&] {
        wordEncodeTwoLevel(a, opts.tile_m, opts.tile_k, Major::Col,
                           1);
        wordEncodeTwoLevel(b, opts.tile_k, opts.tile_n, Major::Row,
                           1);
    });
    p.parallel_ms = timeMs(reps, [&] {
        wordEncodeTwoLevel(a, opts.tile_m, opts.tile_k, Major::Col,
                           0);
        wordEncodeTwoLevel(b, opts.tile_k, opts.tile_n, Major::Row,
                           0);
    });
    p.gbps = 2.0 * static_cast<double>(size) * size *
             sizeof(float) / (p.word_ms * 1e6);
    p.bitwise_equal =
        identicalTwoLevel(
            wordEncodeTwoLevel(a, opts.tile_m, opts.tile_k,
                               Major::Col, 1),
            TwoLevelBitmapMatrix::encode(a, opts.tile_m, opts.tile_k,
                                         Major::Col)) &&
        identicalTwoLevel(
            wordEncodeTwoLevel(b, opts.tile_k, opts.tile_n,
                               Major::Row, 0),
            TwoLevelBitmapMatrix::encode(b, opts.tile_k, opts.tile_n,
                                         Major::Row));
    return p;
}

Point
runRequestPoint(int size, double sparsity, int reps)
{
    Point p;
    p.kind = "request";
    p.m = p.k = size;
    p.sparsity = sparsity;

    Rng rng(0x9e90 ^ static_cast<uint64_t>(size));
    Matrix<float> a = randomSparseMatrix(size, size, sparsity, rng);
    Matrix<float> b = randomSparseMatrix(size, size, sparsity, rng);

    Session session;
    SessionOptions pooled_opts;
    pooled_opts.resources.encode_workers = 0; // shared pool
    Session pooled(pooled_opts);
    KernelRequest req =
        KernelRequest::gemm(a, b).withMethod(Method::DualSparse);

    // Cold run = word encode + compute (the request latency a fresh
    // operand pays); warm run = the cached-compute part alone.
    // The warm arm follows the cold one, which left the cache full.
    std::shared_ptr<const Matrix<float>> d_cold;
    SpGemmOptions opts;
    const auto [cold_ms, pooled_ms, warm_ms, scalar_encode_ms] =
        timeArmsMinMs(
            reps, kMinRepMs,
            [&] {
                session.encodingCache().clear();
                d_cold = session.run(req).d;
            },
            [&] {
                pooled.encodingCache().clear();
                pooled.run(req);
            },
            [&] { session.run(req); },
            [&] {
                TwoLevelBitmapMatrix::encode(a, opts.tile_m,
                                             opts.tile_k, Major::Col);
                TwoLevelBitmapMatrix::encode(b, opts.tile_k,
                                             opts.tile_n, Major::Row);
            });
    p.word_ms = cold_ms;
    p.parallel_ms = pooled_ms;
    // What the same request cost before the word rebuild: the
    // element-wise encode plus the identical dispatch + compute.
    p.scalar_ms = scalar_encode_ms + warm_ms;

    // The functional output must match a multiply over the scalar
    // encodings exactly.
    SpGemmDevice device(session.config());
    TwoLevelBitmapMatrix a_enc = TwoLevelBitmapMatrix::encode(
        a, opts.tile_m, opts.tile_k, Major::Col);
    TwoLevelBitmapMatrix b_enc = TwoLevelBitmapMatrix::encode(
        b, opts.tile_k, opts.tile_n, Major::Row);
    Matrix<float> d_ref =
        device.multiplyEncoded(a_enc, b_enc, opts).d;
    p.bitwise_equal =
        d_cold && d_cold->rows() == d_ref.rows() &&
        std::memcmp(d_cold->data().data(), d_ref.data().data(),
                    d_ref.data().size() * sizeof(float)) == 0;
    return p;
}

Point
runLoweringPoint(int hw, int stride, double sparsity, int reps)
{
    Point p;
    p.kind = "lowering";
    p.m = hw;
    p.stride = stride;
    p.sparsity = sparsity;

    Rng rng(0x10e1 ^ (static_cast<uint64_t>(stride) << 12) ^
            static_cast<uint64_t>(sparsity * 100));
    ConvShape shape;
    shape.batch = 1;
    shape.in_c = 32;
    shape.in_h = shape.in_w = hw;
    shape.out_c = 32;
    shape.kernel = 3;
    shape.stride = stride;
    shape.pad = 1;
    Tensor4d input =
        randomSparseTensor(1, 32, hw, hw, sparsity, rng);
    BitmapFeatureMap fmap = BitmapFeatureMap::encode(input);

    LoweredFeatureMap word, scalar;
    p.scalar_ms = timeMs(reps, [&] {
        scalar = im2colFromBitmap(fmap, shape, true, 1, false);
    });
    p.word_ms = timeMs(reps, [&] {
        word = im2colFromBitmap(fmap, shape, true, 1, true);
    });
    p.parallel_ms = timeMs(reps, [&] {
        im2colFromBitmap(fmap, shape, true, 0, true);
    });
    p.gbps = static_cast<double>(shape.loweredRows()) *
             shape.loweredCols() * sizeof(float) /
             (p.word_ms * 1e6);

    p.bitwise_equal = word.cols == scalar.cols;
    for (int j = 0; p.bitwise_equal && j < word.cols; ++j)
        p.bitwise_equal =
            word.columns[j].bits == scalar.columns[j].bits &&
            word.columns[j].values == scalar.columns[j].values &&
            word.columns[j].values_fp16 ==
                scalar.columns[j].values_fp16;
    return p;
}

/** Byte-serial FNV-1a: the digest loop CacheKey ran over operand
 *  contents before the word-lane hash, kept as its baseline. */
uint64_t
byteSerialFnv(const Matrix<float> &m)
{
    const auto *p =
        reinterpret_cast<const unsigned char *>(m.data().data());
    const size_t len = m.data().size() * sizeof(float);
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

Point
runDigestPoint(int size, double sparsity, int reps)
{
    Point p;
    p.kind = "digest";
    p.m = p.k = size;
    p.sparsity = sparsity;

    Rng rng(0xd16e57 ^ static_cast<uint64_t>(size));
    const Matrix<float> a =
        randomSparseMatrix(size, size, sparsity, rng);
    const Matrix<float> b =
        randomSparseMatrix(size, size, sparsity, rng);
    const Matrix<float> *ops[2] = {&a, &b};
    auto digest = [](const Matrix<float> &m) {
        return CacheKey("operand-bytes").matrix(m).value();
    };

    uint64_t serial[2] = {0, 0}, pooled[2] = {0, 0};
    const auto [fnv_ms, lane_ms, pooled_ms] = timeArmsMinMs(
        reps, kMinRepMs,
        [&] { g_digest_sink = byteSerialFnv(a) ^ byteSerialFnv(b); },
        [&] {
            serial[0] = digest(a);
            serial[1] = digest(b);
        },
        [&] {
            parallelFor(&sharedThreadPool(), 2, 2, [&](int64_t i) {
                pooled[i] = digest(*ops[i]);
            });
        });
    p.scalar_ms = fnv_ms;
    p.word_ms = lane_ms;
    p.parallel_ms = pooled_ms;
    p.gbps = 2.0 * static_cast<double>(size) * size * sizeof(float) /
             (p.word_ms * 1e6);
    // The digest is a pure function of the contents: the pooled
    // pair, and a copy of each operand, digest to the same keys.
    const Matrix<float> a_copy = a, b_copy = b;
    p.bitwise_equal = serial[0] == pooled[0] &&
                      serial[1] == pooled[1] &&
                      serial[0] == digest(a_copy) &&
                      serial[1] == digest(b_copy);
    return p;
}

/** The density probe plans ran over a concrete operand before the
 *  summary: its own branchless mask + POPC pass over the floats. */
int64_t
separateNnzPass(const Matrix<float> &m)
{
    const float *data = m.data().data();
    const size_t n = m.size();
    int64_t count = 0;
    size_t i = 0;
    for (; i + 64 <= n; i += 64)
        count += popcount64(packNonzeroBits64(data + i));
    if (i < n)
        count += popcount64(
            packNonzeroBits(data + i, static_cast<int>(n - i)));
    return count;
}

/** What an SpMM plan derives from its concrete A operand. */
struct Ingest
{
    uint64_t digest = 0;
    int64_t nnz = 0;
    SparsityProfile a8{1, 1, 8}, a32{1, 1, 32};
    NarrowTileMatrix narrow;
};

bool
sameIngest(const Ingest &x, const Ingest &y)
{
    auto same_profile = [](const SparsityProfile &p,
                           const SparsityProfile &q) {
        if (p.groups() != q.groups() || p.k() != q.k())
            return false;
        for (int g = 0; g < p.groups(); ++g)
            for (int64_t kk = 0; kk < p.k(); ++kk)
                if (p.count(g, kk) != q.count(g, kk))
                    return false;
        return true;
    };
    const NarrowTileMatrix &a = x.narrow, &b = y.narrow;
    if (x.digest != y.digest || x.nnz != y.nnz ||
        !same_profile(x.a8, y.a8) || !same_profile(x.a32, y.a32) ||
        a.numVectors() != b.numVectors() || a.nnz() != b.nnz())
        return false;
    for (int s = 0; s < a.numStrips(); ++s)
        for (int w = 0; w < a.wordsPerStrip(); ++w)
            if (a.stripWord(s, w) != b.stripWord(s, w))
                return false;
    for (int64_t v = 0; v < a.numVectors(); ++v) {
        if (a.vectorMask(v) != b.vectorMask(v))
            return false;
        const auto va = a.vectorValues(v), vb = b.vectorValues(v);
        for (size_t i = 0; i < va.size(); ++i)
            if (va[i] != vb[i])
                return false;
    }
    return true;
}

Point
runIngestPoint(int size, double sparsity, int reps)
{
    Point p;
    p.kind = "ingest";
    p.m = p.k = size;
    p.sparsity = sparsity;

    Rng rng(0x19e57 ^ static_cast<uint64_t>(size));
    const Matrix<float> a =
        uniformSparseMatrix(size, size, sparsity, rng);
    const QuantSpec spec = QuantSpec::forValues(
        DataType::Fp16, a.data().data(), a.data().size());

    Ingest separate, fused, pooled;
    const auto [separate_ms, summary_ms, pooled_ms, digest_ms,
                pass_ms] =
        timeArmsMinMs(
            reps, kMinRepMs,
            [&] {
                separate.digest =
                    CacheKey("operand-bytes").matrix(a).value();
                separate.a8 = SparsityProfile::fromMatrixAWord(a, 8);
                separate.a32 = aggregateSpmmProfile(separate.a8);
                separate.nnz = separateNnzPass(a);
                separate.narrow = wordEncodeNarrowTile(a, 1, spec);
            },
            [&] {
                const OperandSummary s(a);
                fused.digest = s.digest();
                fused.a8 = s.profileA(8);
                fused.a32 = aggregateSpmmProfile(fused.a8);
                fused.nnz = s.nnz();
                fused.narrow = wordEncodeNarrowTile(a, s, 1, spec);
            },
            [&] {
                const OperandSummary s(a);
                pooled.digest = s.digest();
                pooled.a8 = s.profileA(8);
                pooled.a32 = aggregateSpmmProfile(pooled.a8);
                pooled.nnz = s.nnz();
                pooled.narrow = wordEncodeNarrowTile(a, s, 0, spec);
            },
            [&] {
                g_digest_sink =
                    CacheKey("operand-bytes").matrix(a).value();
            },
            [&] { g_digest_sink = OperandSummary(a).digest(); });
    p.scalar_ms = separate_ms;
    p.word_ms = summary_ms;
    p.parallel_ms = pooled_ms;
    p.hit_digest_ms = digest_ms;
    p.hit_summary_ms = pass_ms;
    p.gbps = static_cast<double>(size) * size * sizeof(float) /
             (p.word_ms * 1e6);
    p.bitwise_equal =
        sameIngest(separate, fused) && sameIngest(separate, pooled);
    return p;
}

void
writeJson(const char *path, const std::vector<Point> &points,
          const std::vector<PrecisionPoint> &precision, int reps,
          bool quick)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path);
        std::exit(1);
    }
    std::fprintf(f, "{\n  \"bench\": \"micro_encode\",\n");
    std::fprintf(f,
                 "  \"config\": {\"threads\": %d, "
                 "\"hardware_concurrency\": %u, \"reps\": %d, "
                 "\"quick\": %s,\n"
                 "    \"host_note\": \"recorded on %u hardware "
                 "threads (%s); wall-clock figures and "
                 "parallel_scaling are host time and reflect that "
                 "host\"},\n",
                 sharedThreadPool().numThreads(),
                 std::thread::hardware_concurrency(), reps,
                 quick ? "true" : "false",
                 std::thread::hardware_concurrency(),
                 bench::hostDescription().c_str());
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        std::fprintf(
            f,
            "    {\"kind\": \"%s\", \"m\": %d, \"k\": %d, "
            "\"sparsity\": %g, \"stride\": %d,\n"
            "     \"scalar_ms\": %.3f, \"word_ms\": %.3f, "
            "\"parallel_ms\": %.3f, \"gbps\": %.2f,\n"
            "     \"speedup_word_vs_scalar\": %.2f, "
            "\"parallel_scaling\": %.2f, \"bitwise_equal\": %s",
            p.kind.c_str(), p.m, p.k, p.sparsity, p.stride,
            p.scalar_ms, p.word_ms, p.parallel_ms, p.gbps,
            p.scalar_ms / p.word_ms, p.word_ms / p.parallel_ms,
            p.bitwise_equal ? "true" : "false");
        if (p.kind == "ingest")
            std::fprintf(f,
                         ",\n     \"hit_digest_ms\": %.3f, "
                         "\"hit_summary_ms\": %.3f",
                         p.hit_digest_ms, p.hit_summary_ms);
        std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"precision_points\": [\n");
    for (size_t i = 0; i < precision.size(); ++i) {
        const PrecisionPoint &p = precision[i];
        std::fprintf(
            f,
            "    {\"m\": %d, \"k\": %d, \"sparsity\": %.2f, "
            "\"dtype\": \"%s\",\n"
            "     \"word_ms\": %.3f, \"encoded_mb\": %.3f, "
            "\"bitwise_equal\": %s}%s\n",
            p.m, p.k, p.sparsity, dataTypeToken(p.dtype), p.word_ms,
            p.encoded_mb, p.bitwise_equal ? "true" : "false",
            i + 1 < precision.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args;
    args.out = "BENCH_encode.json";
    if (!bench::parseBenchArgs(argc, argv, "micro_encode", &args))
        return 2;
    const bool quick = args.quick;
    const int reps = args.reps;

    bench::warmProcessState(GpuConfig::v100());

    std::vector<Point> points;
    std::printf("%9s %5s %5s %7s | %9s %9s %9s | %7s %7s\n", "kind",
                "size", "sp", "stride", "scalar ms", "word ms",
                "par ms", "speedup", "GB/s");
    auto emit = [&](Point p) {
        std::printf(
            "%9s %5d %5.2f %7d | %9.3f %9.3f %9.3f | %6.2fx %7.2f%s\n",
            p.kind.c_str(), p.m, p.sparsity, p.stride, p.scalar_ms,
            p.word_ms, p.parallel_ms, p.scalar_ms / p.word_ms,
            p.gbps, p.bitwise_equal ? "" : "  [MISMATCH]");
        if (!p.bitwise_equal) {
            std::fprintf(stderr,
                         "FATAL: word-parallel encode diverges from "
                         "the scalar reference\n");
            std::exit(1);
        }
        if (p.kind == "ingest")
            std::printf("%9s %5s warm-cache hit: digest %.3f ms, "
                        "summary pass %.3f ms\n",
                        "", "", p.hit_digest_ms, p.hit_summary_ms);
        points.push_back(std::move(p));
    };

    if (quick) {
        // CI smoke: the headline operating points at a small size.
        emit(runTwoLevelPoint(512, 0.9, reps));
        emit(runRequestPoint(256, 0.9, reps));
        emit(runLoweringPoint(28, 2, 0.9, reps));
        emit(runDigestPoint(1024, 0.9, reps));
        emit(runIngestPoint(1024, 0.99, reps));
    } else {
        // Sparsity axis of the operand-pair encode (the paper's
        // online-encode premise lives or dies here).
        for (double sp : {0.5, 0.7, 0.9, 0.95})
            emit(runTwoLevelPoint(1024, sp, reps));
        // End-to-end dense-request latency, cold encode included.
        emit(runRequestPoint(256, 0.9, reps));
        emit(runRequestPoint(512, 0.9, reps));
        // Strided lowering: the deinterleave vs the per-bit probes.
        for (int stride : {2, 3})
            for (double sp : {0.5, 0.9})
                emit(runLoweringPoint(28, stride, sp, reps));
        // Content digest of an operand pair, at the sparse-kernels
        // GEMM size and at 4096^2 (64 MB per operand).
        for (int size : {1024, 4096})
            emit(runDigestPoint(size, 0.9, reps));
        // One ingest pass vs separate passes: a half-dense operand,
        // where the narrow encode's value gather dominates both arms,
        // a 99%-sparse one (the quick point) and a 99.9%-sparse one
        // at the corpus size.
        for (double sp : {0.5, 0.99})
            emit(runIngestPoint(1024, sp, reps));
        emit(runIngestPoint(4096, 0.999, reps));
    }

    // Precision axis: each datatype's value-lane encode, pinned
    // against the scalar encode under the same QuantSpec; the
    // footprint column shows the narrow lanes shrinking the operand
    // pair.
    std::vector<PrecisionPoint> precision;
    std::printf("\n%6s %5s %5s | %9s %10s | %6s\n", "dtype", "size",
                "sp", "word ms", "encoded MB", "equal");
    const int psize = quick ? 256 : 512;
    for (DataType dtype : {DataType::Fp16, DataType::Bf16,
                           DataType::Int8, DataType::Int4}) {
        PrecisionPoint p =
            runEncodePrecisionPoint(psize, 0.9, dtype, reps);
        precision.push_back(p);
        std::printf("%6s %5d %5.2f | %9.3f %10.3f | %6s%s\n",
                    dataTypeToken(p.dtype), p.m, p.sparsity,
                    p.word_ms, p.encoded_mb,
                    p.bitwise_equal ? "yes" : "NO",
                    p.bitwise_equal ? "" : "  [MISMATCH]");
        if (!p.bitwise_equal) {
            std::fprintf(stderr,
                         "FATAL: %s word encode diverges from the "
                         "scalar encode\n",
                         dataTypeToken(p.dtype));
            std::exit(1);
        }
    }

    writeJson(args.out, points, precision, reps, quick);
    std::printf("\nwrote %s\n", args.out);
    return 0;
}
