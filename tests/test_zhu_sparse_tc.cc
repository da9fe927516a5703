#include "baselines/zhu_sparse_tc.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gemm/dense_gemm.h"
#include "model/pruning.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

TEST(ZhuSparseTc, FixedSpeedupOverDense)
{
    GpuConfig cfg = GpuConfig::v100();
    const double dense =
        DenseGemmDevice(cfg).timeOnly(4096, 4096, 4096).timeUs();
    const double zhu =
        zhuGemm(cfg, 4096, 4096, 4096, 0.75).timeUs();
    // Fig. 21: a fixed ~1.86x line regardless of actual sparsity.
    EXPECT_NEAR(dense / zhu, kZhuEffectiveSpeedup, 0.25);
}

TEST(ZhuSparseTc, CannotExploitExtraSparsity)
{
    GpuConfig cfg = GpuConfig::v100();
    const double at75 = zhuGemm(cfg, 2048, 2048, 2048, 0.75).timeUs();
    const double at95 = zhuGemm(cfg, 2048, 2048, 2048, 0.95).timeUs();
    EXPECT_DOUBLE_EQ(at75, at95); // hard format limit (Sec. VI-D)
}

TEST(ZhuSparseTc, FunctionalEqualsDenseOnPrunedWeights)
{
    Rng rng(151);
    Matrix<float> a = randomSparseMatrix(32, 32, 0.0, rng);
    Matrix<float> b = randomSparseMatrix(32, 32, 0.0, rng);
    Matrix<float> pruned = vectorWisePrune(b, 16, kZhuPruneRatio);
    EXPECT_LT(maxAbsDiff(zhuGemmFunctional(a, b),
                         refGemmFp16(a, pruned)),
              1e-6);
    // The pruned operand really is 75% sparse.
    EXPECT_NEAR(pruned.sparsity(), kZhuPruneRatio, 0.01);
}

TEST(ZhuSparseTc, WeightTrafficIsCondensed)
{
    GpuConfig cfg = GpuConfig::v100();
    KernelStats zhu = zhuGemm(cfg, 512, 512, 4096, 0.75);
    KernelStats dense = DenseGemmDevice(cfg).timeOnly(512, 512, 4096);
    EXPECT_LT(zhu.dram_bytes, dense.dram_bytes);
}

} // namespace
} // namespace dstc
