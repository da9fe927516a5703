/**
 * @file
 * Scalar reference of the convolution pipeline, compiled into the
 * test-only `dstc_reference` library. The conv equivalence tests and
 * bench/micro_spconv link this target to keep the bitwise pin:
 * ConvExecutor::run == runScalar (outputs and stats) for every
 * method, shape and worker count. Non-implicit-sparse methods
 * delegate to the lowered baseline path in the shipped library —
 * production and reference share that one definition.
 */
#include "conv/spconv.h"

#include "common/logging.h"
#include "gemm/spgemm_device.h"
#include "im2col/dense_im2col.h"
#include "sparse/two_level.h"
#include "tensor/reference.h"

namespace dstc {

namespace {

bool
isImplicitSparse(ConvMethod method)
{
    return method == ConvMethod::SingleSparseImplicit ||
           method == ConvMethod::DualSparseImplicit;
}

} // namespace

ConvResult
ConvExecutor::runScalar(const Tensor4d &input,
                        const Matrix<float> &weights,
                        const ConvShape &shape, ConvMethod method,
                        const ConvOptions &options) const
{
    // The explicit / dense-implicit baselines ARE the scalar path;
    // the library executes them through runLowered.
    if (!isImplicitSparse(method))
        return runLowered(input, weights, shape, method, options);

    DSTC_ASSERT(weights.rows() == shape.out_c &&
                weights.cols() == shape.loweredCols(),
                "weights must be out_c x (in_c*k*k)");

    const Matrix<float> wt = flattenWeightsTransposed(weights);

    // The reference lowering keeps the per-bit strided gather
    // (word_strided = false): run()'s word-parallel deinterleave is
    // pinned against this path bit for bit.
    BitmapFeatureMap fmap = BitmapFeatureMap::encode(input);
    LoweredFeatureMap lfm =
        im2colFromBitmap(fmap, shape, true, 1, false);
    Matrix<float> lowered = lfm.decode();
    const double input_bytes =
        static_cast<double>(fmap.encodedBytes());

    // Functional GEMM over operands re-encoded element by element
    // (the scalar TwoLevelBitmapMatrix::encode), so run()'s direct
    // re-tile and its word-parallel weight encode are pinned against
    // an independent encoder.
    SpGemmDevice spgemm(cfg_);
    SpGemmOptions opts;
    opts.functional = true;
    opts.num_workers = options.num_workers;
    const QuantSpec spec_a = QuantSpec::forValues(
        opts.dtype, lowered.data().data(), lowered.data().size());
    const QuantSpec spec_b = QuantSpec::forValues(
        opts.dtype, wt.data().data(), wt.data().size());
    const TwoLevelBitmapMatrix a_enc = TwoLevelBitmapMatrix::encode(
        lowered, opts.tile_m, opts.tile_k, Major::Col, spec_a);
    const TwoLevelBitmapMatrix b_enc = TwoLevelBitmapMatrix::encode(
        wt, opts.tile_k, opts.tile_n, Major::Row, spec_b);
    Matrix<float> d = spgemm.multiplyEncoded(a_enc, b_enc, opts).d;

    // Timing from the actual data's sparsity.
    SparsityProfile a_profile =
        method == ConvMethod::DualSparseImplicit
            ? SparsityProfile::fromMatrixA(lowered, 32)
            : SparsityProfile::denseA(shape.loweredRows(),
                                      shape.loweredCols(), 32);
    SparsityProfile b_profile = SparsityProfile::fromMatrixB(wt, 32);
    const double weight_bytes =
        static_cast<double>(b_profile.encodedBytes(32));

    ConvResult result;
    result.stats = timeGemmPhase(shape, method, &a_profile, &b_profile,
                                 input_bytes, weight_bytes);
    result.output = foldLoweredOutput(d, shape);
    return result;
}

} // namespace dstc
