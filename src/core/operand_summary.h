/**
 * @file
 * One ingest pass per concrete operand.
 *
 * A plan needs three things from a dense Matrix<float> operand before
 * it can do anything: its content digest (to key the EncodingCache),
 * which elements are non-zero (to profile and encode it) and how many
 * (for the density-driven baselines). OperandSummary reads the floats
 * once, in one serial streaming pass, and keeps all three: the
 * digest, a row-major non-zero bitmask (1 bit per element) and the
 * non-zero counts. Everything else a plan derives from a concrete
 * operand — the popcount profiles, the density probes and the
 * two-level and narrow 8x1 encodings' bitmaps — is read off the
 * bitmask, which is 1/32 of the float bytes, instead of off the
 * floats again.
 *
 * The bitmask is the paper's own bitmap encoding of the operand, row
 * major, so it is also what every A- and B-side profile, the
 * two-level warp tiles' bitmaps and the narrow-tile level-1 vector
 * bitmaps are built from.
 */
#ifndef DSTC_CORE_OPERAND_SUMMARY_H
#define DSTC_CORE_OPERAND_SUMMARY_H

#include <cstdint>
#include <vector>

#include "gemm/sparsity_profile.h"
#include "tensor/matrix.h"

namespace dstc {

/** Digest, non-zero bitmask and non-zero count of one operand. */
class OperandSummary
{
  public:
    /**
     * The one streaming pass over @p m: each block of a row is
     * packed into mask words (packNonzeroBits64 semantics: -0.0 is
     * zero, NaN and denormals are non-zero) and, while it is still
     * in L1, folded into the digest's 32-byte stripes.
     */
    explicit OperandSummary(const Matrix<float> &m);

    /** Equal to CacheKey("operand-bytes").matrix(m).value(): the
     *  key every encoding family of a concrete operand folds. */
    uint64_t digest() const { return digest_; }

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    /** Non-zero elements. */
    int64_t nnz() const { return nnz_; }

    /** Matrix::sparsity() from the count: 1 - nnz / size, 0 for an
     *  empty matrix. */
    double sparsity() const;

    /** Mask words per row: ceil(cols / 64). */
    int wordsPerRow() const { return words_per_row_; }

    /** Mask words of row @p r: bit b of word w is set iff element
     *  (r, 64 w + b) is non-zero; bits past cols are clear. */
    const uint64_t *
    rowWords(int r) const
    {
        return bits_.data() + static_cast<size_t>(r) * words_per_row_;
    }

    /**
     * A-side popcount profile (lines are @p tile-row column slices):
     * SparsityProfile::fromMatrixA count for count. Row-streamed
     * group counters over the mask — set bits are walked in sparse
     * groups, dense groups add their row words into vertical
     * bit-sliced counters — so no column bitmap is ever built.
     */
    SparsityProfile profileA(int tile) const;

    /** B-side popcount profile (lines are @p tile-column row
     *  slices): one masked POPC per line, SparsityProfile::
     *  fromMatrixB count for count. */
    SparsityProfile profileB(int tile) const;

  private:
    int rows_ = 0, cols_ = 0;
    int words_per_row_ = 0;
    int64_t nnz_ = 0;
    uint64_t digest_ = 0;
    std::vector<uint64_t> bits_;   ///< words_per_row_ per row
    std::vector<int32_t> row_nnz_; ///< non-zeros per row
};

} // namespace dstc

#endif // DSTC_CORE_OPERAND_SUMMARY_H
