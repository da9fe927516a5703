#include "core/operand_summary.h"

#include <algorithm>
#include <bit>

#include "common/bitutil.h"
#include "core/encoding_cache.h"

namespace dstc {

namespace {

/** Floats packed per step of the pass before their stripes are
 *  hashed: 8 KB, so the hash re-reads them from L1. A multiple of
 *  64, so mask words never straddle two blocks. */
constexpr int kBlockFloats = 2048;

constexpr size_t kStripeFloats =
    LaneHash::kStripeBytes / sizeof(float);

} // namespace

OperandSummary::OperandSummary(const Matrix<float> &m)
    : rows_(m.rows()), cols_(m.cols()),
      words_per_row_(ceilDiv(m.cols(), 64)),
      bits_(static_cast<size_t>(m.rows()) * ceilDiv(m.cols(), 64)),
      row_nnz_(static_cast<size_t>(m.rows()), 0)
{
    const float *data = m.data().data();
    const auto *bytes = reinterpret_cast<const unsigned char *>(data);
    LaneHash lanes(
        CacheKey("operand-bytes").i32(rows_).i32(cols_).value(),
        m.size() * sizeof(float));
    size_t hashed = 0; // floats folded, a multiple of kStripeFloats
    for (int r = 0; r < rows_; ++r) {
        const size_t row_base = static_cast<size_t>(r) * cols_;
        uint64_t *words = bits_.data() +
                          static_cast<size_t>(r) * words_per_row_;
        int32_t count = 0;
        for (int c0 = 0; c0 < cols_; c0 += kBlockFloats) {
            const int c1 = std::min(cols_, c0 + kBlockFloats);
            for (int c = c0; c < c1; c += 64) {
                const uint64_t w = packNonzeroBits(
                    data + row_base + c, std::min(64, cols_ - c));
                words[c >> 6] = w;
                count += popcount64(w);
            }
            const size_t done = (row_base + c1) / kStripeFloats *
                                kStripeFloats;
            lanes.stripes(bytes + hashed * sizeof(float),
                          (done - hashed) / kStripeFloats);
            hashed = done;
        }
        row_nnz_[static_cast<size_t>(r)] = count;
        nnz_ += count;
    }
    digest_ = lanes.finish(bytes + hashed * sizeof(float));
}

double
OperandSummary::sparsity() const
{
    const size_t total = static_cast<size_t>(rows_) * cols_;
    if (total == 0)
        return 0.0;
    return 1.0 -
           static_cast<double>(nnz_) / static_cast<double>(total);
}

SparsityProfile
OperandSummary::profileA(int tile) const
{
    const int groups = ceilDiv(rows_, tile);
    SparsityProfile profile(groups, cols_, tile, rows_);
    // Vertical counters need bit_width(tile) planes to hold a count
    // of up to tile rows.
    const int planes = std::bit_width(static_cast<unsigned>(tile));
    DSTC_ASSERT(planes <= 16, "profile tile ", tile, " too tall");
    for (int g = 0; g < groups; ++g) {
        const int r0 = g * tile;
        const int r1 = std::min(rows_, r0 + tile);
        int64_t group_nnz = 0;
        for (int r = r0; r < r1; ++r)
            group_nnz += row_nnz_[static_cast<size_t>(r)];
        if (group_nnz * 8 < static_cast<int64_t>(r1 - r0) * cols_) {
            // Sparse group (< 1/8 dense): one increment per set bit.
            for (int r = r0; r < r1; ++r) {
                const uint64_t *words = rowWords(r);
                for (int w = 0; w < words_per_row_; ++w) {
                    for (uint64_t word = words[w]; word;
                         word &= word - 1) {
                        const int c =
                            (w << 6) + std::countr_zero(word);
                        profile.setCount(g, c,
                                         profile.count(g, c) + 1);
                    }
                }
            }
            continue;
        }
        // Dense group: ripple-carry add each row word into bit
        // planes (plane i holds bit i of all 64 column counts), then
        // read every column's count off the planes.
        for (int w = 0; w < words_per_row_; ++w) {
            uint64_t plane[16] = {};
            uint64_t any = 0;
            for (int r = r0; r < r1; ++r) {
                uint64_t carry = rowWords(r)[w];
                any |= carry;
                for (int i = 0; carry; ++i) {
                    const uint64_t next = plane[i] & carry;
                    plane[i] ^= carry;
                    carry = next;
                }
            }
            for (; any; any &= any - 1) {
                const int b = std::countr_zero(any);
                int cnt = 0;
                for (int i = 0; i < planes; ++i)
                    cnt |= static_cast<int>((plane[i] >> b) & 1)
                           << i;
                profile.setCount(g, (w << 6) + b, cnt);
            }
        }
    }
    return profile;
}

SparsityProfile
OperandSummary::profileB(int tile) const
{
    const int groups = ceilDiv(cols_, tile);
    SparsityProfile profile(groups, rows_, tile, cols_);
    for (int kk = 0; kk < rows_; ++kk) {
        const size_t base =
            static_cast<size_t>(kk) * words_per_row_ * 64;
        for (int g = 0; g < groups; ++g) {
            const int c0 = g * tile;
            const int c1 = std::min(cols_, c0 + tile);
            profile.setCount(g, kk,
                             popcountRange(bits_, base + c0, base + c1));
        }
    }
    return profile;
}

} // namespace dstc
