/**
 * @file
 * Word-parallel dense-operand encoders: the online encode stage the
 * paper assumes is cheap enough to run on both GEMM sides (Sec. VI).
 *
 * Both encoders are bitwise identical to their element-wise
 * counterparts (TwoLevelBitmapMatrix::encode / NarrowTileMatrix::
 * encode), which stay as the test references. Neither builds bits
 * from the floats: the operand's OperandSummary already holds its
 * row-major non-zero bitmap, so tile bitmaps are cut out of those
 * mask words (column-major ones out of one 64x64 block transpose of
 * them) and the dense floats are read at the non-zeros alone, by
 * ctz walks over the words. The quantized value lane is filled once,
 * at encode time.
 */
#ifndef DSTC_SPARSE_WORD_ENCODE_H
#define DSTC_SPARSE_WORD_ENCODE_H

#include <cstdint>
#include <vector>

#include "sparse/narrow_tile.h"
#include "sparse/two_level.h"
#include "tensor/matrix.h"

namespace dstc {

class OperandSummary;

/**
 * Word-parallel TwoLevelBitmapMatrix::encode over the operand's
 * OperandSummary, for any tile shape and either major. Each
 * tile_rows-row band cuts its tiles' line bitmaps out of the
 * summary's row words (row-major tiles) or out of a block transpose
 * of them (column-major tiles), with the line offsets from their
 * POPC prefixes. It then walks its row words once, row-major, and
 * gathers each non-zero's float into its tile: appended to the
 * row's line, or dropped behind the column's cursor. No dense
 * staging, no per-element probes; the quantized lane is one
 * contiguous pass per tile.
 *
 * @param summary must be OperandSummary(dense).
 * @param num_workers partitions the tile-row bands over the shared
 *        pool (SpGemmOptions::num_workers contract: 0 = all hardware
 *        threads, 1 = serial in the caller). Bands own disjoint
 *        tiles, so the result is bitwise identical to the
 *        element-wise encode for every worker count.
 * @param spec fills the quantized value lane (FP16 default). The
 *        spec applies per element, so worker partitioning cannot
 *        change it; integer specs carry the matrix-global scale
 *        computed by the caller (QuantSpec::forValues).
 */
TwoLevelBitmapMatrix wordEncodeTwoLevel(const Matrix<float> &dense,
                                        const OperandSummary &summary,
                                        int tile_rows, int tile_cols,
                                        Major major,
                                        int num_workers = 1,
                                        const QuantSpec &spec = {});

/** wordEncodeTwoLevel of a fresh OperandSummary(dense): for callers
 *  that do not hold the summary already. */
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
