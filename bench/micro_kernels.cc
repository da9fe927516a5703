/**
 * @file
 * Micro-benchmarks (google-benchmark) of the substrate kernels:
 * bitmap encode/decode, popcount profiling, warp-tile SpGEMM, and
 * the cycle-accurate accumulation-buffer simulator.
 */
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "gemm/sparsity_profile.h"
#include "gemm/spgemm_warp.h"
#include "sparse/bitmap.h"
#include "sparse/two_level.h"
#include "tensor/matrix.h"
#include "timing/accum_buffer.h"

using namespace dstc;

namespace {

Matrix<float>
input(int n, double sparsity)
{
    Rng rng(static_cast<uint64_t>(n) * 31 +
            static_cast<uint64_t>(sparsity * 100));
    return randomSparseMatrix(n, n, sparsity, rng);
}

void
benchBitmapEncode(benchmark::State &state)
{
    Matrix<float> m = input(512, state.range(0) / 100.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(BitmapMatrix::encode(m, Major::Col));
    state.SetItemsProcessed(state.iterations() * m.size());
}

void
benchBitmapDecode(benchmark::State &state)
{
    BitmapMatrix bm = BitmapMatrix::encode(
        input(512, state.range(0) / 100.0), Major::Col);
    for (auto _ : state)
        benchmark::DoNotOptimize(bm.decode());
}

void
benchTwoLevelEncode(benchmark::State &state)
{
    Matrix<float> m = input(512, state.range(0) / 100.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            TwoLevelBitmapMatrix::encode(m, 32, 32, Major::Col));
}

void
benchProfileExtraction(benchmark::State &state)
{
    Matrix<float> m = input(1024, 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(SparsityProfile::fromMatrixA(m, 32));
}

void
benchWarpTile(benchmark::State &state)
{
    GpuConfig cfg = GpuConfig::v100();
    SpGemmWarpEngine engine(cfg);
    Matrix<float> a = input(32, state.range(0) / 100.0);
    Matrix<float> b = input(32, state.range(0) / 100.0);
    BitmapMatrix a_bm = BitmapMatrix::encode(a, Major::Col);
    BitmapMatrix b_bm = BitmapMatrix::encode(b, Major::Row);
    Matrix<float> accum(32, 32);
    for (auto _ : state) {
        accum.fill(0.0f);
        benchmark::DoNotOptimize(
            engine.computeTile(a_bm, b_bm, &accum));
    }
}

void
benchAccumBufferSim(benchmark::State &state)
{
    Rng rng(7);
    MergeTrace trace;
    for (int i = 0; i < 128; ++i) {
        std::vector<int> addrs;
        for (int j = 0; j < 64; ++j)
            addrs.push_back(static_cast<int>(rng.uniformInt(1024)));
        trace.instr_addrs.push_back(std::move(addrs));
    }
    AccumBufferSim sim(128, state.range(0) != 0, 8);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.simulateSparse(trace));
}

} // namespace

BENCHMARK(benchBitmapEncode)->Arg(0)->Arg(50)->Arg(90);
BENCHMARK(benchBitmapDecode)->Arg(0)->Arg(90);
BENCHMARK(benchTwoLevelEncode)->Arg(50)->Arg(99);
BENCHMARK(benchProfileExtraction);
BENCHMARK(benchWarpTile)->Arg(0)->Arg(50)->Arg(90);
BENCHMARK(benchAccumBufferSim)->Arg(0)->Arg(1);

BENCHMARK_MAIN();
