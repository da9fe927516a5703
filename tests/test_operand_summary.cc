/**
 * @file
 * Property gate of OperandSummary, the one ingest pass per concrete
 * operand: over random ragged shapes (rows and columns off every
 * multiple of 8, 32 and 64), densities from empty to full, and
 * matrices seeded with -0.0f, NaN and denormals, the summary must
 * agree with the element-wise ground truth it replaces:
 *
 *  - its digest equals CacheKey("operand-bytes").matrix(m), the key
 *    every encoding family folds;
 *  - its non-zero count equals an element count (-0.0 is zero, NaN
 *    and denormals are not);
 *  - the profiles derived from its mask equal the scalar
 *    SparsityProfile::fromMatrixA/B at tiles 8 and 32;
 *  - the narrow encoding built from it equals the scalar
 *    NarrowTileMatrix::encode for every encode_workers setting.
 *
 * The per-request holder (OperandDigests) must hand every caller of
 * one operand the same summary, from any thread.
 */
#include "core/operand_summary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/encoding_cache.h"
#include "core/gemm_operands.h"
#include "sparse/narrow_tile.h"
#include "sparse/word_encode.h"

namespace dstc {
namespace {

uint32_t
bitsOf(float v)
{
    uint32_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** @p rows x @p cols with each element non-zero at @p density; when
 *  @p special, some zeros become -0.0f and some non-zeros NaN or a
 *  denormal. */
Matrix<float>
randomOperand(int rows, int cols, double density, bool special,
              Rng &rng)
{
    Matrix<float> m(rows, cols);
    for (float &x : m.data()) {
        if (rng.bernoulli(density)) {
            const float v = rng.uniformFloat(-1.0f, 1.0f);
            x = v == 0.0f ? 0.25f : v;
            if (special && rng.bernoulli(0.1))
                x = std::numeric_limits<float>::quiet_NaN();
            else if (special && rng.bernoulli(0.1))
                x = std::numeric_limits<float>::denorm_min() *
                    static_cast<float>(1 + rng.uniformInt(100));
        } else if (special && rng.bernoulli(0.2)) {
            x = -0.0f;
        }
    }
    return m;
}

struct Case
{
    std::string label;
    Matrix<float> m;
};

std::vector<Case>
cases()
{
    Rng rng(0x5a11);
    std::vector<Case> out;
    const std::pair<int, int> shapes[] = {
        {1, 1}, {7, 13}, {9, 63}, {37, 65}, {65, 127}, {130, 71},
        {33, 200}};
    for (const auto &[rows, cols] : shapes)
        for (double density : {0.0, 1e-4, 0.01, 0.5, 1.0})
            for (bool special : {false, true})
                out.push_back(
                    {std::to_string(rows) + "x" +
                         std::to_string(cols) + " d=" +
                         std::to_string(density) +
                         (special ? " special" : ""),
                     randomOperand(rows, cols, density, special,
                                   rng)});
    // Dense and sparse row groups in one operand: each profile group
    // picks its own counting strategy.
    Matrix<float> mixed(100, 90);
    for (int r = 0; r < mixed.rows(); ++r) {
        const double density = (r / 8) % 2 ? 0.9 : 0.02;
        for (int c = 0; c < mixed.cols(); ++c)
            if (rng.bernoulli(density))
                mixed.at(r, c) = rng.uniformFloat(0.5f, 1.0f);
    }
    out.push_back({"mixed-density 100x90", std::move(mixed)});
    return out;
}

void
expectProfilesEqual(const SparsityProfile &got,
                    const SparsityProfile &want,
                    const std::string &label)
{
    ASSERT_EQ(got.groups(), want.groups()) << label;
    ASSERT_EQ(got.k(), want.k()) << label;
    ASSERT_EQ(got.tile(), want.tile()) << label;
    ASSERT_EQ(got.extent(), want.extent()) << label;
    for (int g = 0; g < want.groups(); ++g)
        for (int64_t kk = 0; kk < want.k(); ++kk)
            ASSERT_EQ(got.count(g, kk), want.count(g, kk))
                << label << " g=" << g << " k=" << kk;
}

/** Bit-for-bit narrow encodings (values compared as bit patterns,
 *  so NaN payloads count). */
void
expectNarrowIdentical(const NarrowTileMatrix &a,
                      const NarrowTileMatrix &b,
                      const std::string &label)
{
    ASSERT_EQ(a.rows(), b.rows()) << label;
    ASSERT_EQ(a.cols(), b.cols()) << label;
    ASSERT_EQ(a.numStrips(), b.numStrips()) << label;
    ASSERT_EQ(a.wordsPerStrip(), b.wordsPerStrip()) << label;
    ASSERT_EQ(a.numVectors(), b.numVectors()) << label;
    ASSERT_EQ(a.nnz(), b.nnz()) << label;
    for (int s = 0; s < a.numStrips(); ++s) {
        ASSERT_EQ(a.stripOffset(s), b.stripOffset(s)) << label;
        for (int w = 0; w < a.wordsPerStrip(); ++w)
            ASSERT_EQ(a.stripWord(s, w), b.stripWord(s, w))
                << label << " strip " << s << " word " << w;
    }
    for (int64_t v = 0; v < a.numVectors(); ++v) {
        ASSERT_EQ(a.vectorMask(v), b.vectorMask(v)) << label;
        const auto va = a.vectorValues(v), vb = b.vectorValues(v);
        const auto qa = a.vectorValuesQuant(v);
        const auto qb = b.vectorValuesQuant(v);
        ASSERT_EQ(va.size(), vb.size()) << label;
        for (size_t i = 0; i < va.size(); ++i) {
            ASSERT_EQ(bitsOf(va[i]), bitsOf(vb[i])) << label;
            ASSERT_EQ(bitsOf(qa[i]), bitsOf(qb[i])) << label;
        }
    }
}

TEST(OperandSummary, DigestEqualsMatrixKey)
{
    for (const Case &c : cases())
        EXPECT_EQ(OperandSummary(c.m).digest(),
                  CacheKey("operand-bytes").matrix(c.m).value())
            << c.label;
    // Empty operands digest their shape alone.
    for (const auto &[rows, cols] :
         {std::pair{0, 0}, std::pair{0, 5}, std::pair{5, 0}}) {
        const Matrix<float> empty(rows, cols);
        const OperandSummary s(empty);
        EXPECT_EQ(s.digest(),
                  CacheKey("operand-bytes").matrix(empty).value());
        EXPECT_EQ(s.nnz(), 0);
        EXPECT_EQ(s.sparsity(), 0.0);
    }
}

TEST(OperandSummary, NnzAndMaskMatchElementTest)
{
    for (const Case &c : cases()) {
        const OperandSummary s(c.m);
        int64_t nnz = 0;
        for (int r = 0; r < c.m.rows(); ++r)
            for (int col = 0; col < c.m.cols(); ++col) {
                const bool nz = c.m.at(r, col) != 0.0f;
                nnz += nz;
                const uint64_t word = s.rowWords(r)[col >> 6];
                ASSERT_EQ(((word >> (col & 63)) & 1) != 0, nz)
                    << c.label << " (" << r << ", " << col << ")";
            }
        EXPECT_EQ(s.nnz(), nnz) << c.label;
        EXPECT_EQ(s.sparsity(), c.m.sparsity()) << c.label;
        // Bits past the last column stay clear.
        const int tail = c.m.cols() & 63;
        if (tail != 0) {
            for (int r = 0; r < c.m.rows(); ++r)
                ASSERT_EQ(s.rowWords(r)[s.wordsPerRow() - 1] >> tail,
                          0u)
                    << c.label;
        }
    }
}

TEST(OperandSummary, ProfilesMatchScalarExtraction)
{
    for (const Case &c : cases()) {
        const OperandSummary s(c.m);
        for (int tile : {8, 32}) {
            const std::string label =
                c.label + " tile " + std::to_string(tile);
            expectProfilesEqual(s.profileA(tile),
                                SparsityProfile::fromMatrixA(c.m, tile),
                                label + " A");
            expectProfilesEqual(s.profileB(tile),
                                SparsityProfile::fromMatrixB(c.m, tile),
                                label + " B");
            expectProfilesEqual(
                SparsityProfile::fromMatrixAWord(c.m, tile),
                SparsityProfile::fromMatrixA(c.m, tile),
                label + " A word");
        }
        // The SpMM pair: the aggregated strip profile is the tile-32
        // profile.
        expectProfilesEqual(aggregateSpmmProfile(s.profileA(8)),
                            s.profileA(32), c.label + " aggregate");
    }
}

TEST(OperandSummary, NarrowEncodeMatchesScalarEveryWorkerCount)
{
    for (const Case &c : cases()) {
        const OperandSummary s(c.m);
        const NarrowTileMatrix scalar = NarrowTileMatrix::encode(c.m);
        for (int workers : {0, 1, 2, 3, 4}) {
            const std::string label =
                c.label + " workers " + std::to_string(workers);
            expectNarrowIdentical(
                wordEncodeNarrowTile(c.m, s, workers), scalar, label);
        }
        expectNarrowIdentical(wordEncodeNarrowTile(c.m, 2), scalar,
                              c.label + " fresh summary");
    }
}

TEST(OperandSummary, HolderSharesOneSummaryPerOperand)
{
    Rng rng(0x401d);
    const Matrix<float> a = randomOperand(70, 90, 0.3, false, rng);
    const Matrix<float> b = randomOperand(90, 40, 0.3, false, rng);
    OperandDigests holder;
    std::vector<std::shared_ptr<const OperandSummary>> seen(8);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < seen.size(); ++t)
        threads.emplace_back([&, t] {
            seen[t] = holder.summary(t % 2 ? b : a);
        });
    for (std::thread &t : threads)
        t.join();
    for (size_t t = 0; t < seen.size(); ++t)
        EXPECT_EQ(seen[t].get(), seen[t % 2].get()) << t;
    EXPECT_NE(seen[0].get(), seen[1].get());
    EXPECT_EQ(holder.digest(a),
              CacheKey("operand-bytes").matrix(a).value());
    EXPECT_EQ(holder.digest(b),
              CacheKey("operand-bytes").matrix(b).value());
}

} // namespace
} // namespace dstc
