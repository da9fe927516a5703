/**
 * @file
 * Small bit-manipulation helpers shared by the bitmap formats, the
 * POPC-based predication logic, and the accumulation-buffer model.
 */
#ifndef DSTC_COMMON_BITUTIL_H
#define DSTC_COMMON_BITUTIL_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__BMI2__)
#include <immintrin.h>
#endif
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace dstc {

/** Number of set bits in a 64-bit word (the hardware POPC primitive). */
inline int
popcount64(uint64_t word)
{
    return std::popcount(word);
}

/** Integer ceiling division; the OHMMA-chunk arithmetic of Fig. 15. */
template <typename T>
constexpr T
ceilDiv(T value, T divisor)
{
    return (value + divisor - 1) / divisor;
}

/** Round @p value up to the next multiple of @p align. */
template <typename T>
constexpr T
alignUp(T value, T align)
{
    return ceilDiv(value, align) * align;
}

/** Mask with the low @p n bits set (n in [0, 64]). */
inline uint64_t
lowMask64(int n)
{
    return n >= 64 ? ~uint64_t{0} : ((uint64_t{1} << n) - 1);
}

/**
 * Parallel bit extract with a fixed mask (the BMI2 PEXT primitive):
 * apply() compacts the bits of a word at the mask's set positions
 * LSB-first. This is the word-parallel deinterleave behind the
 * strided im2col gather — every stride-s window bit of a 64-bit
 * source word drops into place in one operation. Hardware PEXT when
 * available; the portable path precomputes the parallel-suffix move
 * masks (Hacker's Delight 7-4) at construction, so a compressor
 * built once per (phase, stride) costs six shift-or rounds per
 * word, independent of the mask's population.
 */
class Pext64
{
  public:
    Pext64() = default;

    explicit Pext64(uint64_t mask) : mask_(mask)
    {
#if !defined(__BMI2__)
        uint64_t m = mask;
        uint64_t mk = ~m << 1; // bits to the left of each 0 in m
        for (int i = 0; i < 6; ++i) {
            uint64_t mp = mk ^ (mk << 1); // parallel suffix of mk
            mp ^= mp << 2;
            mp ^= mp << 4;
            mp ^= mp << 8;
            mp ^= mp << 16;
            mp ^= mp << 32;
            const uint64_t mv = mp & m; // bits to move this round
            mv_[i] = mv;
            m = (m ^ mv) | (mv >> (1 << i));
            mk &= ~mp;
        }
#endif
    }

    uint64_t
    apply(uint64_t value) const
    {
#if defined(__BMI2__)
        return _pext_u64(value, mask_);
#else
        uint64_t x = value & mask_;
        for (int i = 0; i < 6; ++i) {
            const uint64_t t = x & mv_[i];
            x = (x ^ t) | (t >> (1 << i));
        }
        return x;
#endif
    }

    uint64_t mask() const { return mask_; }

  private:
    uint64_t mask_ = 0;
#if !defined(__BMI2__)
    uint64_t mv_[6] = {};
#endif
};

/** One-shot parallel bit extract; prefer a reused Pext64 when the
 *  mask is applied to many words. */
inline uint64_t
pext64(uint64_t value, uint64_t mask)
{
    return Pext64(mask).apply(value);
}

/**
 * Bitmap word of 64 contiguous floats: bit b set iff p[b] != 0
 * (±0 and only ±0 have an all-zero significand+exponent, so the
 * test runs on the integer view; NaN is non-zero). This is the
 * inner primitive of every word-parallel encoder and of the operand
 * summary pass. On x86-64 sixteen floats are compared per step and
 * narrowed to one 16-bit movemask; elsewhere the compares are
 * byte-packed in eight groups of eight so the compiler vectorizes
 * them.
 */
inline uint64_t
packNonzeroBits64(const float *p)
{
#if defined(__SSE2__)
    const __m128i magnitude = _mm_set1_epi32(0x7fffffff);
    const __m128i zero = _mm_setzero_si128();
    uint64_t zeros = 0;
    for (int q = 0; q < 4; ++q) {
        __m128i z[4];
        for (int i = 0; i < 4; ++i)
            z[i] = _mm_cmpeq_epi32(
                _mm_and_si128(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        p + 16 * q + 4 * i)),
                    magnitude),
                zero);
        // Saturating packs keep each lane's all-ones/all-zeros and
        // its order: 4 x (4 x i32) -> 16 x i8.
        const __m128i bytes =
            _mm_packs_epi16(_mm_packs_epi32(z[0], z[1]),
                            _mm_packs_epi32(z[2], z[3]));
        zeros |= static_cast<uint64_t>(static_cast<uint16_t>(
                     _mm_movemask_epi8(bytes)))
                 << (16 * q);
    }
    return ~zeros;
#else
    uint32_t iv[64];
    static_assert(sizeof(iv) == 64 * sizeof(float));
    __builtin_memcpy(iv, p, sizeof(iv));
    uint64_t word = 0;
    for (int g = 0; g < 8; ++g) {
        uint64_t byte = 0;
        for (int b = 0; b < 8; ++b)
            byte |= static_cast<uint64_t>(
                        (iv[g * 8 + b] & 0x7fffffffu) != 0)
                    << b;
        word |= byte << (g * 8);
    }
    return word;
#endif
}

/** packNonzeroBits64 for a partial word of @p span < 64 floats. */
inline uint64_t
packNonzeroBits(const float *p, int span)
{
    if (span == 64)
        return packNonzeroBits64(p);
    uint64_t word = 0;
    for (int b = 0; b < span; ++b)
        word |= static_cast<uint64_t>(p[b] != 0.0f) << b;
    return word;
}

/**
 * Mask with bits set at positions phase, phase + stride,
 * phase + 2*stride, ... below 64 — the per-word selection pattern of
 * a stride-s gather (phase in [0, 64), stride >= 1).
 */
inline uint64_t
strideMask64(int phase, int stride)
{
    if (stride == 1)
        return ~uint64_t{0} << phase;
    uint64_t mask = 0;
    for (int b = phase; b < 64; b += stride)
        mask |= uint64_t{1} << b;
    return mask;
}

/**
 * In-place transpose of a 64x64 bit matrix held as 64 words, LSB
 * first: bit c of word r moves to bit r of word c. The block step of
 * the word-parallel column-major bitmap encode (a row-major scan
 * yields row words; the transpose turns them into column words
 * without per-bit probes). Hacker's Delight 7-3, mask-and-swap in
 * log2(64) rounds.
 */
inline void
transpose64x64(uint64_t a[64])
{
    uint64_t m = 0x00000000ffffffffull;
    for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
            const uint64_t t = (a[k] ^ (a[k | j] << j)) & (m << j);
            a[k] ^= t;
            a[k | j] ^= t >> j;
        }
    }
}

/** Read bit @p pos from a packed bit vector. */
inline bool
getBit(const std::vector<uint64_t> &bits, size_t pos)
{
    return (bits[pos >> 6] >> (pos & 63)) & 1;
}

/** Set bit @p pos in a packed bit vector. */
inline void
setBit(std::vector<uint64_t> &bits, size_t pos)
{
    bits[pos >> 6] |= uint64_t{1} << (pos & 63);
}

/** Clear bit @p pos in a packed bit vector. */
inline void
clearBit(std::vector<uint64_t> &bits, size_t pos)
{
    bits[pos >> 6] &= ~(uint64_t{1} << (pos & 63));
}

/**
 * Count set bits in the half-open bit range [lo, hi) of a packed bit
 * vector. This is the hardware POPC over a k-step chunk of a bitmap
 * line.
 */
int popcountRange(const std::vector<uint64_t> &bits, size_t lo, size_t hi);

/**
 * Invoke @p fn(bit_index) for every set bit in the half-open range
 * [lo, hi) of a packed bit vector, in increasing index order.
 */
template <typename Fn>
void
forEachSetBit(const std::vector<uint64_t> &bits, size_t lo, size_t hi,
              Fn &&fn)
{
    for (size_t w = lo >> 6; w <= (hi ? (hi - 1) >> 6 : 0); ++w) {
        if (w >= bits.size())
            break;
        uint64_t word = bits[w];
        if (w == (lo >> 6))
            word &= ~lowMask64(static_cast<int>(lo & 63));
        size_t hi_in_word = hi - (w << 6);
        if (hi_in_word < 64)
            word &= lowMask64(static_cast<int>(hi_in_word));
        while (word) {
            int b = std::countr_zero(word);
            fn((w << 6) + b);
            word &= word - 1;
        }
    }
}

inline int
popcountRange(const std::vector<uint64_t> &bits, size_t lo, size_t hi)
{
    if (hi <= lo)
        return 0;
    size_t w_lo = lo >> 6;
    size_t w_hi = (hi - 1) >> 6;
    int count = 0;
    for (size_t w = w_lo; w <= w_hi && w < bits.size(); ++w) {
        uint64_t word = bits[w];
        if (w == w_lo)
            word &= ~lowMask64(static_cast<int>(lo & 63));
        size_t hi_in_word = hi - (w << 6);
        if (hi_in_word < 64)
            word &= lowMask64(static_cast<int>(hi_in_word));
        count += std::popcount(word);
    }
    return count;
}

} // namespace dstc

#endif // DSTC_COMMON_BITUTIL_H
