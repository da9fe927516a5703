#include "sparse/word_encode.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/fp16.h"
#include "common/logging.h"
#include "core/operand_summary.h"
#include "core/thread_pool.h"

namespace dstc {

namespace {

/**
 * Column-major bitmap words from the row-major ones via 64x64 block
 * transposes — no per-element column probes anywhere.
 */
std::vector<uint64_t>
transposeBits(const std::vector<uint64_t> &row_bits, int rows,
              int cols, int wpl_row, int wpl_col)
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

} // namespace

BitmapMatrix
wordEncodeBitmap(const Matrix<float> &dense, Major major,
                 const QuantSpec &spec)
{
    const int rows = dense.rows(), cols = dense.cols();
    if (major == Major::Row)
        return BitmapMatrix::encodePlane(dense.data().data(), rows,
                                         cols, spec);

    // Pass 1, fused: row bitmap words plus the non-zeros packed in
    // row-major order (packRowsAndGatherValues) — the dense matrix
    // streams through exactly once.
    const int wpl_row = ceilDiv(cols, 64);
    const int wpl = ceilDiv(rows, 64);
    std::vector<uint64_t> row_bits(
        static_cast<size_t>(rows) * wpl_row, 0);
    std::vector<float> rm_values;
    rm_values.reserve(static_cast<size_t>(rows) * cols / 4);
    packRowsAndGatherValues(dense.data().data(), rows, cols, wpl_row,
                            row_bits.data(), rm_values, nullptr);
    std::vector<uint64_t> bits =
        transposeBits(row_bits, rows, cols, wpl_row, wpl);

    // Column-line values are the non-zeros in (col, ascending row)
    // order. Offsets fall out of the column words by POPC; the
    // values then land by counting-sort permutation of the packed
    // row-major array — pass 2 touches only the bitmap words and
    // the condensed arrays (a few percent of the dense bytes), never
    // the dense matrix again.
    std::vector<int> offsets(static_cast<size_t>(cols) + 1, 0);
    for (int c = 0; c < cols; ++c) {
        const uint64_t *words =
            bits.data() + static_cast<size_t>(c) * wpl;
        int cnt = 0;
        for (int w = 0; w < wpl; ++w)
            cnt += popcount64(words[w]);
        offsets[static_cast<size_t>(c) + 1] =
            offsets[static_cast<size_t>(c)] + cnt;
    }
    const int nnz = offsets[static_cast<size_t>(cols)];
    std::vector<float> values(static_cast<size_t>(nnz));
    std::vector<float> fp16(static_cast<size_t>(nnz));
    std::vector<int> cursor(offsets.begin(), offsets.end() - 1);
    size_t src = 0;
    for (int r = 0; r < rows; ++r) {
        const uint64_t *words =
            row_bits.data() + static_cast<size_t>(r) * wpl_row;
        for (int w = 0; w < wpl_row; ++w) {
            uint64_t word = words[w];
            const int base = w << 6;
            while (word) {
                const int c = base + std::countr_zero(word);
                word &= word - 1;
                values[static_cast<size_t>(
                    cursor[static_cast<size_t>(c)]++)] =
                    rm_values[src++];
            }
        }
    }
    // Quantize in one contiguous pass (independent iterations
    // pipeline; the permute loop stays store-bound).
    for (int i = 0; i < nnz; ++i)
        fp16[static_cast<size_t>(i)] =
            spec.apply(values[static_cast<size_t>(i)]);
    return BitmapMatrix::fromPacked(rows, cols, Major::Col,
                                    std::move(bits),
                                    std::move(values), std::move(fp16),
                                    std::move(offsets));
}

namespace {

/**
 * Row-major two-level encode with the production 32-wide tile,
 * built directly from the dense rows: each tile-row group packs its
 * row words (64 compares per word), splits every word into its two
 * 32-bit tile chunks, and gathers each chunk's values straight from
 * the still-cache-resident dense row into the owning tile's arrays.
 * No full-matrix bitmap intermediate, no second value copy — the
 * dense matrix streams through twice (sizing + fill) while the
 * group's rows stay hot.
 */
TwoLevelBitmapMatrix
wordEncodeTwoLevelRow32(const Matrix<float> &dense, int tile_rows,
                        int num_workers, const QuantSpec &spec)
{
    constexpr int kTileCols = 32;
    const int rows = dense.rows(), cols = dense.cols();
    const int n_tile_rows = ceilDiv(rows, tile_rows);
    const int n_tile_cols = ceilDiv(cols, kTileCols);
    const int wpl_row = ceilDiv(cols, 64);
    const float *data = dense.data().data();

    std::vector<BitmapMatrix> tiles(static_cast<size_t>(n_tile_rows) *
                                    n_tile_cols);

    auto run_group = [&](int64_t gl) {
        const int g = static_cast<int>(gl);
        const int r0 = g * tile_rows;
        const int r1 = std::min(rows, r0 + tile_rows);
        const int g_rows = r1 - r0;

        // Sizing pass: build the group's row words once and
        // accumulate each tile column's nnz from the word halves.
        std::vector<uint64_t> words(
            static_cast<size_t>(g_rows) * wpl_row);
        std::vector<int> tile_nnz(
            static_cast<size_t>(n_tile_cols), 0);
        for (int r = r0; r < r1; ++r) {
            const float *row = data + static_cast<size_t>(r) * cols;
            uint64_t *rw = words.data() +
                           static_cast<size_t>(r - r0) * wpl_row;
            for (int c0 = 0; c0 < cols; c0 += 64) {
                const uint64_t word = packNonzeroBits(
                    row + c0, std::min(64, cols - c0));
                rw[c0 >> 6] = word;
                const int p = c0 >> 5;
                tile_nnz[static_cast<size_t>(p)] +=
                    popcount64(word & 0xffffffffu);
                if (p + 1 < n_tile_cols)
                    tile_nnz[static_cast<size_t>(p) + 1] +=
                        popcount64(word >> 32);
            }
        }

        std::vector<std::vector<uint64_t>> t_bits(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<int>> t_offsets(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<float>> t_values(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<float>> t_fp16(
            static_cast<size_t>(n_tile_cols));
        std::vector<int> vi(static_cast<size_t>(n_tile_cols), 0);
        for (int p = 0; p < n_tile_cols; ++p) {
            const size_t nnz = static_cast<size_t>(
                tile_nnz[static_cast<size_t>(p)]);
            t_bits[static_cast<size_t>(p)].resize(
                static_cast<size_t>(g_rows));
            t_offsets[static_cast<size_t>(p)].assign(
                static_cast<size_t>(g_rows) + 1, 0);
            t_values[static_cast<size_t>(p)].resize(nnz);
            t_fp16[static_cast<size_t>(p)].resize(nnz);
        }

        // Fill pass: split each row word into its two tile chunks
        // and gather the chunk's values from the dense row by ctz.
        for (int r = r0; r < r1; ++r) {
            const float *row = data + static_cast<size_t>(r) * cols;
            const uint64_t *rw =
                words.data() +
                static_cast<size_t>(r - r0) * wpl_row;
            for (int p = 0; p < n_tile_cols; ++p) {
                const uint64_t word =
                    rw[static_cast<size_t>(p) >> 1];
                uint64_t chunk = (p & 1) ? word >> 32
                                         : word & 0xffffffffu;
                t_bits[static_cast<size_t>(p)]
                      [static_cast<size_t>(r - r0)] = chunk;
                float *values =
                    t_values[static_cast<size_t>(p)].data();
                int at = vi[static_cast<size_t>(p)];
                const int c_base = p * kTileCols;
                while (chunk) {
                    const int b = std::countr_zero(chunk);
                    chunk &= chunk - 1;
                    values[at++] = row[c_base + b];
                }
                vi[static_cast<size_t>(p)] = at;
                t_offsets[static_cast<size_t>(p)]
                         [static_cast<size_t>(r - r0) + 1] = at;
            }
        }

        // Quantized mirrors in contiguous per-tile passes, then
        // assemble.
        for (int p = 0; p < n_tile_cols; ++p) {
            auto &values = t_values[static_cast<size_t>(p)];
            auto &fp16 = t_fp16[static_cast<size_t>(p)];
            for (size_t i = 0; i < values.size(); ++i)
                fp16[i] = spec.apply(values[i]);
            const int t_cols =
                std::min(kTileCols, cols - p * kTileCols);
            tiles[static_cast<size_t>(g) * n_tile_cols + p] =
                BitmapMatrix::fromPacked(
                    g_rows, t_cols, Major::Row,
                    std::move(t_bits[static_cast<size_t>(p)]),
                    std::move(t_values[static_cast<size_t>(p)]),
                    std::move(t_fp16[static_cast<size_t>(p)]),
                    std::move(t_offsets[static_cast<size_t>(p)]));
        }
    };

    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(num_workers, &max_workers);
    parallelFor(pool, n_tile_rows, max_workers, run_group);

    return TwoLevelBitmapMatrix::fromTiles(rows, cols, tile_rows,
                                           kTileCols, Major::Row,
                                           std::move(tiles), spec);
}

/**
 * Column-major two-level encode with the production 32-row tile,
 * built without the full-matrix bitmap intermediate: one fused pass
 * packs row words and the non-zeros in row-major order, the block
 * transpose yields the column words, and a counting-sort permute
 * then drops every value straight into its owning tile's arrays
 * (cursor per (column, tile-row)) — the second full-matrix value
 * copy of the generic path never happens. Tile rows are
 * independent: each owns its rows' permute span (per-row source
 * offsets from pass 1), its tiles and its cursors, so the group
 * loop partitions over workers with every write disjoint.
 */
TwoLevelBitmapMatrix
wordEncodeTwoLevelCol32(const Matrix<float> &dense, int tile_cols,
                        int num_workers, const QuantSpec &spec)
{
    constexpr int kTileRows = 32;
    const int rows = dense.rows(), cols = dense.cols();
    const int n_tile_rows = ceilDiv(rows, kTileRows);
    const int n_tile_cols = ceilDiv(cols, tile_cols);
    const int wpl_row = ceilDiv(cols, 64);
    const int wpl_col = ceilDiv(rows, 64);
    const float *data = dense.data().data();

    // Fused pass: row words + row-major packed values + per-row
    // source offsets (packRowsAndGatherValues; the dense matrix
    // streams through once).
    std::vector<uint64_t> row_bits(
        static_cast<size_t>(rows) * wpl_row, 0);
    std::vector<float> rm_values;
    rm_values.reserve(static_cast<size_t>(rows) * cols / 4);
    std::vector<int> row_start(static_cast<size_t>(rows) + 1, 0);
    packRowsAndGatherValues(data, rows, cols, wpl_row,
                            row_bits.data(), rm_values,
                            row_start.data());
    const std::vector<uint64_t> col_bits =
        transposeBits(row_bits, rows, cols, wpl_row, wpl_col);

    std::vector<BitmapMatrix> tiles(static_cast<size_t>(n_tile_rows) *
                                    n_tile_cols);

    auto run_group = [&](int64_t trl) {
        const int tr = static_cast<int>(trl);
        const int r0 = tr * kTileRows;
        const int r1 = std::min(rows, r0 + kTileRows);
        const int t_rows = r1 - r0;

        // Per-line counts from the column-word halves, accumulated
        // into per-tile offsets and the permute cursors.
        std::vector<std::vector<uint64_t>> t_bits(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<int>> t_offsets(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<float>> t_values(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<float>> t_fp16(
            static_cast<size_t>(n_tile_cols));
        std::vector<int> cursor(static_cast<size_t>(cols), 0);
        std::vector<float *> values_ptr(
            static_cast<size_t>(n_tile_cols));
        for (int tc = 0; tc < n_tile_cols; ++tc) {
            const int c0 = tc * tile_cols;
            const int c1 = std::min(cols, c0 + tile_cols);
            const int g_cols = c1 - c0;
            auto &bits = t_bits[static_cast<size_t>(tc)];
            auto &offsets = t_offsets[static_cast<size_t>(tc)];
            bits.resize(static_cast<size_t>(g_cols));
            offsets.assign(static_cast<size_t>(g_cols) + 1, 0);
            int nnz = 0;
            for (int c = c0; c < c1; ++c) {
                const uint64_t word =
                    col_bits[static_cast<size_t>(c) * wpl_col +
                             (static_cast<size_t>(tr) >> 1)];
                const uint64_t chunk = (tr & 1)
                                           ? word >> 32
                                           : word & 0xffffffffu;
                bits[static_cast<size_t>(c - c0)] = chunk;
                cursor[static_cast<size_t>(c)] = nnz;
                nnz += popcount64(chunk);
                offsets[static_cast<size_t>(c - c0) + 1] = nnz;
            }
            t_values[static_cast<size_t>(tc)].resize(
                static_cast<size_t>(nnz));
            t_fp16[static_cast<size_t>(tc)].resize(
                static_cast<size_t>(nnz));
            values_ptr[static_cast<size_t>(tc)] =
                t_values[static_cast<size_t>(tc)].data();
        }

        // Permute this tile row's span of the packed values: rows
        // ascending keeps each (column, tile-row) run in source
        // order, which is exactly the tile's line order.
        int src = row_start[static_cast<size_t>(r0)];
        for (int r = r0; r < r1; ++r) {
            const uint64_t *words =
                row_bits.data() + static_cast<size_t>(r) * wpl_row;
            for (int w = 0; w < wpl_row; ++w) {
                uint64_t word = words[w];
                const int base = w << 6;
                while (word) {
                    const int c = base + std::countr_zero(word);
                    word &= word - 1;
                    values_ptr[static_cast<size_t>(c / tile_cols)]
                              [static_cast<size_t>(
                                  cursor[static_cast<size_t>(c)]++)] =
                                  rm_values[static_cast<size_t>(
                                      src++)];
                }
            }
        }
        DSTC_ASSERT(src == row_start[static_cast<size_t>(r1)]);

        for (int tc = 0; tc < n_tile_cols; ++tc) {
            auto &values = t_values[static_cast<size_t>(tc)];
            auto &fp16 = t_fp16[static_cast<size_t>(tc)];
            for (size_t i = 0; i < values.size(); ++i)
                fp16[i] = spec.apply(values[i]);
            const int g_cols =
                std::min(tile_cols, cols - tc * tile_cols);
            tiles[static_cast<size_t>(tr) * n_tile_cols + tc] =
                BitmapMatrix::fromPacked(
                    t_rows, g_cols, Major::Col,
                    std::move(t_bits[static_cast<size_t>(tc)]),
                    std::move(t_values[static_cast<size_t>(tc)]),
                    std::move(t_fp16[static_cast<size_t>(tc)]),
                    std::move(t_offsets[static_cast<size_t>(tc)]));
        }
    };

    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(num_workers, &max_workers);
    parallelFor(pool, n_tile_rows, max_workers, run_group);

    return TwoLevelBitmapMatrix::fromTiles(rows, cols, kTileRows,
                                           tile_cols, Major::Col,
                                           std::move(tiles), spec);
}

} // namespace

TwoLevelBitmapMatrix
wordEncodeTwoLevel(const Matrix<float> &dense, int tile_rows,
                   int tile_cols, Major major, int num_workers,
                   const QuantSpec &spec)
{
    DSTC_ASSERT(tile_rows > 0 && tile_cols > 0);
    const int rows = dense.rows(), cols = dense.cols();
    const int n_tile_rows = ceilDiv(rows, tile_rows);
    const int n_tile_cols = ceilDiv(cols, tile_cols);

    if (major == Major::Row && tile_cols == 32)
        return wordEncodeTwoLevelRow32(dense, tile_rows, num_workers,
                                       spec);
    if (major == Major::Col && tile_rows == 32)
        return wordEncodeTwoLevelCol32(dense, tile_cols, num_workers,
                                       spec);

    const BitmapMatrix full = wordEncodeBitmap(dense, major, spec);

    // The line axis of the tiling: tile columns for Major::Col
    // (lines are matrix columns), tile rows for Major::Row. Each
    // line group fills a disjoint row/column of tiles, so groups
    // partition over workers with every tile written exactly once.
    const bool col = major == Major::Col;
    const int line_groups = col ? n_tile_cols : n_tile_rows;
    const int lines_per_group = col ? tile_cols : tile_rows;
    const int perp_tiles = col ? n_tile_rows : n_tile_cols;
    const int perp_tile = col ? tile_rows : tile_cols;
    const int line_len = full.lineLength();
    const int num_lines = full.numLines();

    std::vector<BitmapMatrix> tiles(static_cast<size_t>(n_tile_rows) *
                                    n_tile_cols);

    // Two passes per group, mirroring LoweredFeatureMap::toTwoLevel:
    // the word-extract pass records every (line, perp-tile) chunk and
    // its popcount, then the fill pass copies each tile's parts into
    // exactly-sized arrays — the condensed values of a chunk are the
    // next `cnt` entries of the line's packed arrays (the
    // prefix-popcount address-offset trick, per tile boundary).
    auto run_group = [&](int64_t gl) {
        const int g = static_cast<int>(gl);
        const int l0 = g * lines_per_group;
        const int l1 = std::min(num_lines, l0 + lines_per_group);
        const int g_lines = l1 - l0;
        const int wpl_t = ceilDiv(perp_tile, 64);

        std::vector<uint64_t> chunks(static_cast<size_t>(g_lines) *
                                         perp_tiles * wpl_t,
                                     0);
        std::vector<int> counts(
            static_cast<size_t>(g_lines) * perp_tiles, 0);
        std::vector<int> src_offsets(
            static_cast<size_t>(g_lines) * perp_tiles, 0);
        std::vector<int64_t> tile_nnz(
            static_cast<size_t>(perp_tiles), 0);
        for (int l = l0; l < l1; ++l) {
            const auto words = full.lineBits(l);
            auto word_at = [&](size_t w) -> uint64_t {
                return w < words.size() ? words[w] : 0;
            };
            const size_t base =
                static_cast<size_t>(l - l0) * perp_tiles;
            int prefix = 0;
            for (int p = 0; p < perp_tiles; ++p) {
                const int e0 = p * perp_tile;
                const int t_len = std::min(perp_tile, line_len - e0);
                int cnt = 0;
                for (int t = 0; t < t_len; t += 64) {
                    const int src = e0 + t;
                    const int off = src & 63;
                    uint64_t chunk = word_at(src >> 6) >> off;
                    if (off != 0)
                        chunk |= word_at((src >> 6) + 1)
                                 << (64 - off);
                    chunk &= lowMask64(std::min(64, t_len - t));
                    chunks[(base + p) * wpl_t + (t >> 6)] = chunk;
                    cnt += popcount64(chunk);
                }
                counts[base + p] = cnt;
                src_offsets[base + p] = prefix;
                tile_nnz[static_cast<size_t>(p)] += cnt;
                prefix += cnt;
            }
            DSTC_ASSERT(prefix == full.lineNnz(l));
        }

        // Fill pass, line-outer: one span fetch per line serves all
        // of the line's tile chunks (fetching per (line, tile) slot
        // would cost more than the handful-of-values copies it
        // feeds). Each tile's parts accumulate behind a cursor.
        std::vector<std::vector<uint64_t>> t_bits(
            static_cast<size_t>(perp_tiles));
        std::vector<std::vector<int>> t_offsets(
            static_cast<size_t>(perp_tiles));
        std::vector<std::vector<float>> t_values(
            static_cast<size_t>(perp_tiles));
        std::vector<std::vector<float>> t_fp16(
            static_cast<size_t>(perp_tiles));
        std::vector<size_t> vi(static_cast<size_t>(perp_tiles), 0);
        std::vector<uint64_t *> bits_ptr(
            static_cast<size_t>(perp_tiles));
        std::vector<float *> values_ptr(
            static_cast<size_t>(perp_tiles));
        std::vector<float *> fp16_ptr(
            static_cast<size_t>(perp_tiles));
        std::vector<int *> offsets_ptr(
            static_cast<size_t>(perp_tiles));
        std::vector<int> t_wpls(static_cast<size_t>(perp_tiles));
        for (int p = 0; p < perp_tiles; ++p) {
            const int t_len =
                std::min(perp_tile, line_len - p * perp_tile);
            const size_t nnz = static_cast<size_t>(
                tile_nnz[static_cast<size_t>(p)]);
            t_bits[static_cast<size_t>(p)].resize(
                static_cast<size_t>(g_lines) * ceilDiv(t_len, 64));
            t_offsets[static_cast<size_t>(p)].assign(
                static_cast<size_t>(g_lines) + 1, 0);
            t_values[static_cast<size_t>(p)].resize(nnz);
            t_fp16[static_cast<size_t>(p)].resize(nnz);
            bits_ptr[static_cast<size_t>(p)] =
                t_bits[static_cast<size_t>(p)].data();
            values_ptr[static_cast<size_t>(p)] =
                t_values[static_cast<size_t>(p)].data();
            fp16_ptr[static_cast<size_t>(p)] =
                t_fp16[static_cast<size_t>(p)].data();
            offsets_ptr[static_cast<size_t>(p)] =
                t_offsets[static_cast<size_t>(p)].data();
            t_wpls[static_cast<size_t>(p)] = ceilDiv(t_len, 64);
        }
        for (int l = l0; l < l1; ++l) {
            const auto vals = full.lineValues(l);
            const auto vals16 = full.lineValuesFp16(l);
            const size_t base =
                static_cast<size_t>(l - l0) * perp_tiles;
            for (int p = 0; p < perp_tiles; ++p) {
                const int t_wpl = t_wpls[static_cast<size_t>(p)];
                const size_t slot = base + p;
                uint64_t *bits =
                    bits_ptr[static_cast<size_t>(p)] +
                    static_cast<size_t>(l - l0) * t_wpl;
                for (int w = 0; w < t_wpl; ++w)
                    bits[w] = chunks[slot * wpl_t + w];
                const int cnt = counts[slot];
                const int src = src_offsets[slot];
                float *values = values_ptr[static_cast<size_t>(p)];
                float *fp16 = fp16_ptr[static_cast<size_t>(p)];
                size_t &at = vi[static_cast<size_t>(p)];
                for (int i = 0; i < cnt; ++i) {
                    values[at + i] = vals[src + i];
                    fp16[at + i] = vals16[src + i];
                }
                at += static_cast<size_t>(cnt);
                offsets_ptr[static_cast<size_t>(p)]
                           [static_cast<size_t>(l - l0) + 1] =
                               static_cast<int>(at);
            }
        }
        for (int p = 0; p < perp_tiles; ++p) {
            const int t_len =
                std::min(perp_tile, line_len - p * perp_tile);
            const int tile_r = col ? p : g;
            const int tile_c = col ? g : p;
            const int t_rows = col ? t_len : g_lines;
            const int t_cols = col ? g_lines : t_len;
            tiles[static_cast<size_t>(tile_r) * n_tile_cols +
                  tile_c] =
                BitmapMatrix::fromPacked(
                    t_rows, t_cols, major,
                    std::move(t_bits[static_cast<size_t>(p)]),
                    std::move(t_values[static_cast<size_t>(p)]),
                    std::move(t_fp16[static_cast<size_t>(p)]),
                    std::move(t_offsets[static_cast<size_t>(p)]));
        }
    };

    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(num_workers, &max_workers);
    parallelFor(pool, line_groups, max_workers, run_group);

    return TwoLevelBitmapMatrix::fromTiles(rows, cols, tile_rows,
                                           tile_cols, major,
                                           std::move(tiles), spec);
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
