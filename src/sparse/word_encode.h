/**
 * @file
 * Word-parallel dense-operand encoders: the online encode stage the
 * paper assumes is cheap enough to run on both GEMM sides (Sec. VI).
 *
 * Every function here is bitwise identical to its element-wise
 * counterpart (BitmapMatrix::encode / TwoLevelBitmapMatrix::encode /
 * NarrowTileMatrix::encode), which stay as the test references.
 * The difference is purely mechanical: bits are built 64 elements
 * per word with branchless compares, column-major bitmaps come out
 * of 64x64 block transposes instead of per-element probes, values
 * are packed by ctz walks over the words (FP16-rounded once, at
 * encode time), and warp tiles are split off the full-matrix bitmap
 * by pure word extraction + condensed-value slicing — the same
 * machinery the implicit im2col uses (encodePlane / fromPacked).
 */
#ifndef DSTC_SPARSE_WORD_ENCODE_H
#define DSTC_SPARSE_WORD_ENCODE_H

#include <cstdint>
#include <vector>

#include "sparse/bitmap.h"
#include "sparse/narrow_tile.h"
#include "sparse/two_level.h"
#include "tensor/matrix.h"

namespace dstc {

class OperandSummary;

/**
 * Word-parallel BitmapMatrix::encode: bitmap words built 64
 * elements at a time, values packed via ctz walks. Bitwise identical
 * to encode(dense, major, spec) in bits, values, the quantized
 * mirror and the line offsets.
 */
BitmapMatrix wordEncodeBitmap(const Matrix<float> &dense, Major major,
                              const QuantSpec &spec = {});

/**
 * Word-parallel TwoLevelBitmapMatrix::encode: the full matrix is
 * bitmap-encoded once (64 elements/word), then split into
 * tile_rows x tile_cols warp tiles by word extraction on the line
 * bitmaps and contiguous slices of the packed value arrays (the
 * prefix-popcount address-offset trick, per tile boundary). No dense
 * staging, no per-element probes, no re-rounding — the FP16 mirror
 * is sliced alongside the FP32 values.
 *
 * @param num_workers partitions the independent tile line groups
 *        over the shared pool (SpGemmOptions::num_workers contract:
 *        0 = all hardware threads, 1 = serial in the caller). Tiles
 *        are disjoint, so the result is bitwise identical to the
 *        element-wise encode for every worker count.
 * @param spec fills the quantized value lane (FP16 default). The
 *        spec applies per element, so worker partitioning cannot
 *        change it; integer specs carry the matrix-global scale
 *        computed by the caller (QuantSpec::forValues).
 */
TwoLevelBitmapMatrix wordEncodeTwoLevel(const Matrix<float> &dense,
                                        int tile_rows, int tile_cols,
                                        Major major,
                                        int num_workers = 1,
                                        const QuantSpec &spec = {});

/**
 * Word-parallel NarrowTileMatrix::encode over the operand's
 * OperandSummary: each 8-row strip ORs its row mask words into the
 * strip's level-1 vector-bitmap words, then gathers vector masks and
 * values by ctz walks over the non-zero level-1 words only, reading
 * the dense floats at the non-zeros alone — a sizing pass then a
 * fill pass, both over the mask. Strips are disjoint, so the result
 * is bitwise identical to the scalar NarrowTileMatrix::encode for
 * every worker count (same num_workers contract as
 * wordEncodeTwoLevel). @p summary must be OperandSummary(dense).
 */
NarrowTileMatrix wordEncodeNarrowTile(const Matrix<float> &dense,
                                      const OperandSummary &summary,
                                      int num_workers = 1,
                                      const QuantSpec &spec = {});

/** wordEncodeNarrowTile of a fresh OperandSummary(dense): for
 *  callers that do not hold the summary already. */
NarrowTileMatrix wordEncodeNarrowTile(const Matrix<float> &dense,
                                      int num_workers = 1,
                                      const QuantSpec &spec = {});

} // namespace dstc

#endif // DSTC_SPARSE_WORD_ENCODE_H
