#include "sparse/word_encode.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/logging.h"
#include "core/operand_summary.h"
#include "core/thread_pool.h"

namespace dstc {

namespace {

/**
 * Column-major bitmap words from the row-major ones (@p wpl_row words
 * per row) via 64x64 block transposes — no per-element column probes
 * anywhere.
 */
std::vector<uint64_t>
transposeBits(const uint64_t *row_bits, int rows, int cols, int wpl_row,
              int wpl_col)
{
    std::vector<uint64_t> bits(static_cast<size_t>(cols) * wpl_col,
                               0);
    uint64_t blk[64];
    for (int r0 = 0; r0 < rows; r0 += 64) {
        const int block_rows = std::min(64, rows - r0);
        for (int cw = 0; cw < wpl_row; ++cw) {
            for (int j = 0; j < block_rows; ++j)
                blk[j] =
                    row_bits[static_cast<size_t>(r0 + j) * wpl_row +
                             cw];
            for (int j = block_rows; j < 64; ++j)
                blk[j] = 0;
            transpose64x64(blk);
            const int span = std::min(64, cols - cw * 64);
            for (int i = 0; i < span; ++i)
                bits[static_cast<size_t>(cw * 64 + i) * wpl_col +
                     (r0 >> 6)] = blk[i];
        }
    }
    return bits;
}

/**
 * Bits [e0, e0 + len) of a bitmap line into ceil(len / 64) words,
 * LSB-first: each output word shifts and merges the (at most two)
 * line words it spans, masked to the chunk length.
 */
void
extractBits(const uint64_t *line, int e0, int len, uint64_t *out)
{
    for (int t = 0; t < len; t += 64) {
        const int src = e0 + t;
        const int w = src >> 6, off = src & 63;
        const int n = std::min(64, len - t);
        uint64_t chunk = line[w] >> off;
        if (off + n > 64)
            chunk |= line[w + 1] << (64 - off);
        out[t >> 6] = chunk & lowMask64(n);
    }
}

} // namespace

TwoLevelBitmapMatrix
wordEncodeTwoLevel(const Matrix<float> &dense,
                   const OperandSummary &summary, int tile_rows,
                   int tile_cols, Major major, int num_workers,
                   const QuantSpec &spec)
{
    DSTC_ASSERT(tile_rows > 0 && tile_cols > 0);
    const int rows = dense.rows(), cols = dense.cols();
    DSTC_ASSERT(summary.rows() == rows && summary.cols() == cols,
                "summary of a ", summary.rows(), "x", summary.cols(),
                " operand used for a ", rows, "x", cols, " one");
    const int n_tile_rows = ceilDiv(rows, tile_rows);
    const int n_tile_cols = ceilDiv(cols, tile_cols);
    const int wps = summary.wordsPerRow();
    const float *data = dense.data().data();
    const bool col = major == Major::Col;

    // Row-major tile lines are cut from the summary's row words,
    // column-major ones from one block transpose of them.
    const int wpl_col = ceilDiv(rows, 64);
    const std::vector<uint64_t> col_bits =
        col ? transposeBits(summary.rowWords(0), rows, cols, wps,
                            wpl_col)
            : std::vector<uint64_t>();
    // Each column's tile column: a lookup per non-zero, not a divide.
    std::vector<int> tile_of(static_cast<size_t>(cols));
    for (int c = 0; c < cols; ++c)
        tile_of[static_cast<size_t>(c)] = c / tile_cols;

    std::vector<BitmapMatrix> tiles(static_cast<size_t>(n_tile_rows) *
                                    n_tile_cols);

    // One tile-row band per task: the band owns its row of tiles, so
    // bands partition over workers with every write disjoint.
    auto run_band = [&](int64_t trl) {
        const int tr = static_cast<int>(trl);
        const int r0 = tr * tile_rows;
        const int band_rows = std::min(tile_rows, rows - r0);

        // Bits pass: every tile line's chunk, its POPC prefix giving
        // the line offsets; a column's cursor starts at its line.
        std::vector<std::vector<uint64_t>> t_bits(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<int>> t_offsets(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<float>> t_values(
            static_cast<size_t>(n_tile_cols));
        std::vector<float *> dst(static_cast<size_t>(n_tile_cols));
        std::vector<int> cursor(col ? static_cast<size_t>(cols) : 0);
        for (int tc = 0; tc < n_tile_cols; ++tc) {
            const int c0 = tc * tile_cols;
            const int t_cols = std::min(tile_cols, cols - c0);
            const int lines = col ? t_cols : band_rows;
            const int len = col ? band_rows : t_cols;
            const int wpl_t = ceilDiv(len, 64);
            auto &bits = t_bits[static_cast<size_t>(tc)];
            auto &offsets = t_offsets[static_cast<size_t>(tc)];
            bits.resize(static_cast<size_t>(lines) * wpl_t);
            offsets.assign(static_cast<size_t>(lines) + 1, 0);
            for (int l = 0; l < lines; ++l) {
                uint64_t *out =
                    bits.data() + static_cast<size_t>(l) * wpl_t;
                if (col)
                    extractBits(col_bits.data() +
                                    static_cast<size_t>(c0 + l) *
                                        wpl_col,
                                r0, len, out);
                else
                    extractBits(summary.rowWords(r0 + l), c0, len,
                                out);
                int cnt = 0;
                for (int w = 0; w < wpl_t; ++w)
                    cnt += popcount64(out[w]);
                offsets[static_cast<size_t>(l) + 1] =
                    offsets[static_cast<size_t>(l)] + cnt;
            }
            if (col)
                std::copy(offsets.begin(), offsets.end() - 1,
                          cursor.begin() + c0);
            t_values[static_cast<size_t>(tc)].resize(
                static_cast<size_t>(offsets.back()));
            dst[static_cast<size_t>(tc)] =
                t_values[static_cast<size_t>(tc)].data();
        }

        // Values pass: the band's row words walked once, row-major,
        // so the floats are read at the non-zeros alone. A
        // column-major tile drops each value behind its column's
        // cursor (rows ascending keep every column line in order). A
        // row-major tile's line is the row: the value lands at the
        // line's start plus its rank in the row minus the row's
        // non-zeros in earlier tiles (delta), so no cursor is stored.
        std::vector<int> delta(
            col ? 0 : static_cast<size_t>(n_tile_cols));
        for (int r = r0; r < r0 + band_rows; ++r) {
            const uint64_t *rw = summary.rowWords(r);
            const float *row = data + static_cast<size_t>(r) * cols;
            int before = 0;
            for (size_t tc = 0; tc < delta.size(); ++tc) {
                const int *line = t_offsets[tc].data() + (r - r0);
                delta[tc] = line[0] - before;
                before += line[1] - line[0];
            }
            int rank = 0;
            for (int w = 0; w < wps; ++w) {
                uint64_t word = rw[w];
                while (word) {
                    const int c = (w << 6) + std::countr_zero(word);
                    word &= word - 1;
                    const size_t tc = static_cast<size_t>(
                        tile_of[static_cast<size_t>(c)]);
                    const int at =
                        col ? cursor[static_cast<size_t>(c)]++
                            : delta[tc] + rank++;
                    dst[tc][at] = row[c];
                }
            }
        }

        // Quantized mirrors in one contiguous pass per tile, then
        // assemble.
        for (int tc = 0; tc < n_tile_cols; ++tc) {
            auto &values = t_values[static_cast<size_t>(tc)];
            std::vector<float> quant(values.size());
            for (size_t i = 0; i < values.size(); ++i)
                quant[i] = spec.apply(values[i]);
            const int t_cols =
                std::min(tile_cols, cols - tc * tile_cols);
            tiles[static_cast<size_t>(tr) * n_tile_cols + tc] =
                BitmapMatrix::fromPacked(
                    band_rows, t_cols, major,
                    std::move(t_bits[static_cast<size_t>(tc)]),
                    std::move(values), std::move(quant),
                    std::move(t_offsets[static_cast<size_t>(tc)]));
        }
    };

    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(num_workers, &max_workers);
    parallelFor(pool, n_tile_rows, max_workers, run_band);

    return TwoLevelBitmapMatrix::fromTiles(rows, cols, tile_rows,
                                           tile_cols, major,
                                           std::move(tiles), spec);
}

TwoLevelBitmapMatrix
wordEncodeTwoLevel(const Matrix<float> &dense, int tile_rows,
                   int tile_cols, Major major, int num_workers,
                   const QuantSpec &spec)
{
    return wordEncodeTwoLevel(dense, OperandSummary(dense), tile_rows,
                              tile_cols, major, num_workers, spec);
}

NarrowTileMatrix
wordEncodeNarrowTile(const Matrix<float> &dense, int num_workers,
                     const QuantSpec &spec)
{
    return wordEncodeNarrowTile(dense, OperandSummary(dense),
                                num_workers, spec);
}

NarrowTileMatrix
wordEncodeNarrowTile(const Matrix<float> &dense,
                     const OperandSummary &summary, int num_workers,
                     const QuantSpec &spec)
{
    constexpr int kStrip = NarrowTileMatrix::kStripRows;
    const int rows = dense.rows(), cols = dense.cols();
    DSTC_ASSERT(summary.rows() == rows && summary.cols() == cols,
                "summary of a ", summary.rows(), "x", summary.cols(),
                " operand used for a ", rows, "x", cols, " one");
    const int n_strips = ceilDiv(rows, kStrip);
    const int wps = summary.wordsPerRow();
    const float *data = dense.data().data();

    // Sizing pass: per strip, OR the 8 row mask words of each
    // 64-column chunk into the level-1 word, and count vectors (POPC
    // of the OR) and non-zeros (POPC of each row word).
    std::vector<uint64_t> vector_bits(
        static_cast<size_t>(n_strips) * wps, 0);
    std::vector<int64_t> strip_vectors(
        static_cast<size_t>(n_strips), 0);
    std::vector<int64_t> strip_nnz(static_cast<size_t>(n_strips), 0);

    auto size_strip = [&](int64_t sl) {
        const int s = static_cast<int>(sl);
        const int r0 = s * kStrip;
        const int span = std::min(kStrip, rows - r0);
        uint64_t *level1 =
            vector_bits.data() + static_cast<size_t>(s) * wps;
        int64_t nv = 0, nnz = 0;
        for (int j = 0; j < span; ++j) {
            const uint64_t *row = summary.rowWords(r0 + j);
            for (int w = 0; w < wps; ++w) {
                level1[w] |= row[w];
                nnz += popcount64(row[w]);
            }
        }
        for (int w = 0; w < wps; ++w)
            nv += popcount64(level1[w]);
        strip_vectors[static_cast<size_t>(s)] = nv;
        strip_nnz[static_cast<size_t>(s)] = nnz;
    };

    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(num_workers, &max_workers);
    parallelFor(pool, n_strips, max_workers, size_strip);

    // Serial prefix scans give every strip a disjoint slice of the
    // vector and value arrays.
    std::vector<int64_t> strip_offsets(
        static_cast<size_t>(n_strips) + 1, 0);
    std::vector<int64_t> value_base(static_cast<size_t>(n_strips) + 1,
                                    0);
    for (int s = 0; s < n_strips; ++s) {
        strip_offsets[static_cast<size_t>(s) + 1] =
            strip_offsets[static_cast<size_t>(s)] +
            strip_vectors[static_cast<size_t>(s)];
        value_base[static_cast<size_t>(s) + 1] =
            value_base[static_cast<size_t>(s)] +
            strip_nnz[static_cast<size_t>(s)];
    }
    const int64_t total_vectors =
        strip_offsets[static_cast<size_t>(n_strips)];
    const int64_t total_nnz = value_base[static_cast<size_t>(n_strips)];

    std::vector<uint8_t> masks(static_cast<size_t>(total_vectors));
    std::vector<int64_t> value_offsets(
        static_cast<size_t>(total_vectors) + 1, 0);
    std::vector<float> values(static_cast<size_t>(total_nnz));
    std::vector<float> values_quant(static_cast<size_t>(total_nnz));

    // Fill pass: only the non-zero level-1 words are visited. Each
    // one's set bits are walked by ctz in ascending column order,
    // and each vector's mask and values gathered ascending row — the
    // dense floats are read at the non-zeros alone.
    auto fill_strip = [&](int64_t sl) {
        const int s = static_cast<int>(sl);
        const int r0 = s * kStrip;
        const int span = std::min(kStrip, rows - r0);
        const uint64_t *level1 =
            vector_bits.data() + static_cast<size_t>(s) * wps;
        int64_t v = strip_offsets[static_cast<size_t>(s)];
        int64_t at = value_base[static_cast<size_t>(s)];
        for (int w = 0; w < wps; ++w) {
            uint64_t combined = level1[w];
            if (!combined)
                continue;
            uint64_t row_words[kStrip];
            for (int j = 0; j < span; ++j)
                row_words[j] = summary.rowWords(r0 + j)[w];
            while (combined) {
                const int b = std::countr_zero(combined);
                combined &= combined - 1;
                const int c = (w << 6) + b;
                uint8_t mask = 0;
                for (int j = 0; j < span; ++j)
                    if ((row_words[j] >> b) & 1) {
                        mask |= static_cast<uint8_t>(1u << j);
                        values[static_cast<size_t>(at++)] =
                            data[static_cast<size_t>(r0 + j) * cols +
                                 c];
                    }
                masks[static_cast<size_t>(v)] = mask;
                value_offsets[static_cast<size_t>(v) + 1] = at;
                ++v;
            }
        }
        // Quantize this strip's contiguous value slice.
        for (int64_t i = value_base[static_cast<size_t>(s)]; i < at;
             ++i)
            values_quant[static_cast<size_t>(i)] =
                spec.apply(values[static_cast<size_t>(i)]);
    };
    parallelFor(pool, n_strips, max_workers, fill_strip);

    return NarrowTileMatrix::fromParts(
        rows, cols, spec, std::move(vector_bits),
        std::move(strip_offsets), std::move(masks),
        std::move(value_offsets), std::move(values),
        std::move(values_quant));
}

} // namespace dstc
