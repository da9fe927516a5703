#include "baselines/cusparse_like.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gemm/dense_gemm.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

TEST(CsrGemm, FunctionalMatchesReference)
{
    Rng rng(141);
    Matrix<float> a = randomSparseMatrix(40, 30, 0.8, rng);
    Matrix<float> b = randomSparseMatrix(30, 50, 0.7, rng);
    CsrMatrix d = csrGemm(CsrMatrix::encode(a), CsrMatrix::encode(b));
    EXPECT_LT(maxAbsDiff(d.decode(), refGemm(a, b)), 1e-4);
}

TEST(CsrGemm, EmptyOperands)
{
    Matrix<float> zero(8, 8);
    Rng rng(142);
    Matrix<float> b = randomSparseMatrix(8, 8, 0.5, rng);
    CsrMatrix d =
        csrGemm(CsrMatrix::encode(zero), CsrMatrix::encode(b));
    EXPECT_EQ(d.nnz(), 0);
}

TEST(CusparseTime, MatchesCountedTrace)
{
    GpuConfig cfg = GpuConfig::v100();
    Rng rng(143);
    Matrix<float> a = randomSparseMatrix(64, 64, 0.9, rng);
    Matrix<float> b = randomSparseMatrix(64, 64, 0.9, rng);
    const KernelStats counted =
        cusparseGemmTime(cfg, CsrMatrix::encode(a),
                         CsrMatrix::encode(b));
    EXPECT_GT(counted.timeUs(), 0.0);
}

TEST(CusparseTime, PaperCrossoverShape)
{
    // The paper's observations for 4096^3 with B at 99% sparsity
    // (Sec. VI-C): ~1.75x slower than dense at A=90%, break-even
    // around A~95%, only ~1.67x faster at A=99.9%.
    GpuConfig cfg = GpuConfig::v100();
    const double dense_us =
        DenseGemmDevice(cfg).timeOnly(4096, 4096, 4096).timeUs();

    const double t90 =
        cusparseGemmTimeExpected(cfg, 4096, 4096, 4096, 0.10, 0.01)
            .timeUs();
    const double t95 =
        cusparseGemmTimeExpected(cfg, 4096, 4096, 4096, 0.05, 0.01)
            .timeUs();
    const double t999 =
        cusparseGemmTimeExpected(cfg, 4096, 4096, 4096, 0.001, 0.01)
            .timeUs();

    EXPECT_GT(t90 / dense_us, 1.4); // clearly slower than dense
    EXPECT_LT(t90 / dense_us, 2.2);
    EXPECT_NEAR(t95 / dense_us, 1.0, 0.35); // near break-even
    EXPECT_GT(dense_us / t999, 1.2); // faster, but modestly
    EXPECT_LT(dense_us / t999, 2.4);
}

TEST(CusparseTime, MonotonicInDensity)
{
    GpuConfig cfg = GpuConfig::v100();
    double prev = 0.0;
    for (double density : {0.001, 0.01, 0.05, 0.1, 0.5}) {
        const double t = cusparseGemmTimeExpected(cfg, 2048, 2048,
                                                  2048, density, 0.01)
                             .timeUs();
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(CusparseTime, ExpectedModelTracksCountedModel)
{
    GpuConfig cfg = GpuConfig::v100();
    Rng rng(144);
    const double da = 0.05, db = 0.05;
    Matrix<float> a = randomSparseMatrix(512, 512, 1.0 - da, rng);
    Matrix<float> b = randomSparseMatrix(512, 512, 1.0 - db, rng);
    const double counted =
        cusparseGemmTime(cfg, CsrMatrix::encode(a),
                         CsrMatrix::encode(b))
            .timeUs();
    const double expected =
        cusparseGemmTimeExpected(cfg, 512, 512, 512, da, db).timeUs();
    EXPECT_NEAR(expected, counted, counted * 0.2);
}

} // namespace
} // namespace dstc
