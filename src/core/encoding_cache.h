/**
 * @file
 * Content-hash-keyed cache of encoded operands.
 *
 * Encoding a GEMM operand into the two-level bitmap format, or
 * synthesizing the popcount profiles of a model layer's operating
 * point, is pure: the result is a function of the operand contents
 * (or generation parameters) alone. The cache exploits that purity —
 * repeated layers and repeated requests over the same operands skip
 * re-encoding entirely, across serial and batched execution alike.
 *
 * Keys are 64-bit digests built by the call sites from the operand
 * contents / generation parameters plus a kind tag (see CacheKey):
 * scalar fields fold byte by byte with FNV-1a, bulk operand contents
 * with a word-lane hash that runs at memory speed. Key values only
 * name cache entries; they are not stable across versions. Values
 * are immutable and shared: concurrent lookups of the same key build
 * once and everyone holds the same object.
 */
#ifndef DSTC_CORE_ENCODING_CACHE_H
#define DSTC_CORE_ENCODING_CACHE_H

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <list>
#include <memory>
#include <mutex>
#include <typeinfo>
#include <unordered_map>

#include "common/logging.h"
#include "tensor/matrix.h"
#include "tensor/tensor4d.h"
#include "timing/gpu_config.h"

namespace dstc {

/**
 * The word-lane bulk hash behind CacheKey::bytes, as a stream: four
 * independent 64-bit multiply-rotate lanes over 32-byte stripes (the
 * xxh64 construction), then the lanes, the tail bytes and the length
 * merged and run through a full avalanche finalizer. The caller
 * feeds the len / 32 complete stripes in order, in as many stripes()
 * calls as it likes, then finish()es with the len % 32 tail bytes —
 * so a pass that reads an operand for another purpose
 * (OperandSummary) folds the digest into the same read.
 */
class LaneHash
{
  public:
    static constexpr size_t kStripeBytes = 32;

    /** @param seed the digest so far; @param len total bytes. */
    LaneHash(uint64_t seed, size_t len)
        : v1_(seed + kP1 + kP2), v2_(seed + kP2), v3_(seed),
          v4_(seed - kP1), seed_(seed), len_(len)
    {
    }

    /** Fold @p n complete stripes starting at @p p. */
    void
    stripes(const unsigned char *p, size_t n)
    {
        // Four independent lanes: one stripe is four multiply chains
        // the core overlaps, not one serial chain.
        uint64_t v1 = v1_, v2 = v2_, v3 = v3_, v4 = v4_;
        for (const unsigned char *const end = p + n * kStripeBytes;
             p != end; p += kStripeBytes) {
            v1 = mixWord(v1, load64(p));
            v2 = mixWord(v2, load64(p + 8));
            v3 = mixWord(v3, load64(p + 16));
            v4 = mixWord(v4, load64(p + 24));
        }
        v1_ = v1;
        v2_ = v2;
        v3_ = v3;
        v4_ = v4;
    }

    /** The digest, given the len % 32 tail bytes at @p p (every
     *  complete stripe already fed). */
    uint64_t
    finish(const unsigned char *p) const
    {
        const unsigned char *const end = p + len_ % kStripeBytes;
        uint64_t h;
        if (len_ >= kStripeBytes) {
            h = rotl(v1_, 1) + rotl(v2_, 7) + rotl(v3_, 12) +
                rotl(v4_, 18);
            for (uint64_t lane : {v1_, v2_, v3_, v4_})
                h = mergeLane(h, lane);
        } else {
            h = seed_ + kP5;
        }
        h += static_cast<uint64_t>(len_);
        for (; end - p >= 8; p += 8)
            h = rotl(h ^ mixWord(0, load64(p)), 27) * kP1 + kP4;
        if (end - p >= 4) {
            h = rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
            p += 4;
        }
        for (; p < end; ++p)
            h = rotl(h ^ (*p * kP5), 11) * kP1;
        // Avalanche: every input bit reaches every output bit.
        h ^= h >> 33;
        h *= kP2;
        h ^= h >> 29;
        h *= kP3;
        return h ^ (h >> 32);
    }

  private:
    static constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
    static constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
    static constexpr uint64_t kP3 = 0x165667b19e3779f9ull;
    static constexpr uint64_t kP4 = 0x85ebca77c2b2ae63ull;
    static constexpr uint64_t kP5 = 0x27d4eb2f165667c5ull;

    static uint64_t
    rotl(uint64_t x, int r)
    {
        return (x << r) | (x >> (64 - r));
    }

    static uint64_t
    load64(const unsigned char *p)
    {
        uint64_t v;
        std::memcpy(&v, p, sizeof(v));
        return v;
    }

    static uint64_t
    load32(const unsigned char *p)
    {
        uint32_t v;
        std::memcpy(&v, p, sizeof(v));
        return v;
    }

    static uint64_t
    mixWord(uint64_t acc, uint64_t word)
    {
        return rotl(acc + word * kP2, 31) * kP1;
    }

    static uint64_t
    mergeLane(uint64_t h, uint64_t lane)
    {
        return (h ^ mixWord(0, lane)) * kP1 + kP4;
    }

    uint64_t v1_, v2_, v3_, v4_;
    uint64_t seed_;
    size_t len_;
};

/**
 * Incremental 64-bit digest used for cache keys. Two folds share one
 * running value:
 *
 *  - scalar fields (str, i32, i64, f64, u64, gpuConfig) fold byte by
 *    byte with FNV-1a — a few bytes each, so per-byte cost does not
 *    matter, and a key built only from scalars (requestShardKey,
 *    which places StaticShard requests) keeps its value;
 *  - bulk contents (bytes, matrix, tensor) fold through LaneHash,
 *    seeded with the digest so far. It is a pure function of the
 *    running digest and the bytes — no thread-count or alignment
 *    dependence — and reads a large operand at memory speed instead
 *    of one multiply per byte.
 *
 * Key values only name cache entries and are not stable across
 * versions. The one value a test pins is requestShardKey's, built
 * from scalar fields alone, because it places StaticShard requests.
 */
class CacheKey
{
  public:
    /** @param kind a distinct tag per encoding family, folded into
     *         the digest so families never collide. */
    explicit CacheKey(const char *kind) { str(kind); }

    /** Fold in a block of bulk contents (the word-lane hash). */
    CacheKey &
    bytes(const void *data, size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        LaneHash lanes(hash_, len);
        lanes.stripes(p, len / LaneHash::kStripeBytes);
        hash_ = lanes.finish(p + (len & ~(LaneHash::kStripeBytes - 1)));
        return *this;
    }

    /** Fold in a string and its terminator (no concat ambiguity). */
    CacheKey &str(const char *s) { return fnv(s, std::strlen(s) + 1); }

    CacheKey &u64(uint64_t v) { return fnv(&v, sizeof(v)); }
    CacheKey &i64(int64_t v) { return fnv(&v, sizeof(v)); }
    CacheKey &i32(int32_t v) { return fnv(&v, sizeof(v)); }
    CacheKey &f64(double v) { return fnv(&v, sizeof(v)); }

    /** Fold in a matrix's dimensions and full contents. */
    CacheKey &
    matrix(const Matrix<float> &m)
    {
        i32(m.rows()).i32(m.cols());
        return bytes(m.data().data(), m.data().size() * sizeof(float));
    }

    /** Fold in a tensor's dimensions and full contents. */
    CacheKey &
    tensor(const Tensor4d &t)
    {
        i32(t.n()).i32(t.c()).i32(t.h()).i32(t.w());
        return bytes(t.data().data(), t.data().size() * sizeof(float));
    }

    /**
     * Fold in every machine parameter of a GpuConfig — the
     * config-dependent bits of cache families whose values embed
     * machine-derived results (e.g. the cluster scheduler's
     * plan-stage time estimates). Operand *encodings* are pure in
     * the operand contents and must NOT fold this in: leaving the
     * config out of their keys is what lets Sessions over different
     * devices share one cache and encode each operand once. Hot
     * keys fold the once-computed gpuConfigDigest() instead.
     */
    CacheKey &
    gpuConfig(const GpuConfig &cfg)
    {
        i32(cfg.num_sms).i32(cfg.subcores_per_sm);
        f64(cfg.clock_ghz);
        i32(cfg.ohmma_macs);
        f64(cfg.dense_gemm_efficiency);
        f64(cfg.sparse_issue_efficiency);
        f64(cfg.dram_bw_gbps).f64(cfg.dram_efficiency);
        f64(cfg.l2_bytes).f64(cfg.l2_hit_rate);
        f64(cfg.kernel_launch_us);
        i32(cfg.accum_banks).i32(cfg.accum_bytes);
        i32(cfg.operand_collector ? 1 : 0);
        i32(cfg.collector_window);
        return f64(cfg.fp32_tflops);
    }

    uint64_t value() const { return hash_; }

  private:
    CacheKey &
    fnv(const void *data, size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < len; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
        return *this;
    }

    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** The GpuConfig fold (CacheKey::gpuConfig) as one 64-bit value. A
 *  Session computes it once and config-dependent keys fold it, so a
 *  per-request key never re-walks the config's fields. */
inline uint64_t
gpuConfigDigest(const GpuConfig &cfg)
{
    return CacheKey("gpu-config").gpuConfig(cfg).value();
}

/**
 * Approximate resident bytes of a cached value, used by the cache's
 * optional byte-aware bound. Encodings report their real footprint
 * through encodedBytes(); anything else is charged its object size.
 */
template <typename T>
size_t
cachedValueBytes(const T &value)
{
    if constexpr (requires { value.encodedBytes(); })
        return static_cast<size_t>(value.encodedBytes());
    else
        return sizeof(T);
}

/**
 * Shared cache of encoded operands, keyed by content hash. Bounded
 * two ways: an entry-count capacity, and an optional byte bound over
 * the values' reported footprints. Eviction is LRU — every hit
 * refreshes the entry — and in-flight users keep evicted values
 * alive through the shared_ptr; only the cache's reference drops.
 */
class EncodingCache
{
  public:
    static constexpr size_t kDefaultCapacity = 1024;

    /**
     * @param capacity       maximum entry count (>= 1)
     * @param capacity_bytes maximum total value bytes; 0 = unbounded.
     *        A single value larger than the bound is still cached
     *        (evicting everything else) — the bound sheds history,
     *        it never refuses work.
     */
    explicit EncodingCache(size_t capacity = kDefaultCapacity,
                           size_t capacity_bytes = 0)
        : capacity_(capacity == 0 ? 1 : capacity),
          capacity_bytes_(capacity_bytes)
    {
    }

    struct Counters
    {
        int64_t hits = 0;
        int64_t misses = 0;
        int64_t evictions = 0;
    };

    /**
     * Return the cached value for @p key, building it with @p build
     * on first use. Thread-safe; concurrent first lookups of one key
     * build once (later arrivals block until the value is ready).
     *
     * @param hit optional out-flag: true iff the entry pre-existed.
     */
    template <typename T, typename BuildFn>
    std::shared_ptr<const T>
    getOrBuild(uint64_t key, BuildFn &&build, bool *hit = nullptr)
    {
        std::shared_ptr<Entry> entry;
        bool existed;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto &slot = entries_[key];
            existed = slot != nullptr;
            if (!existed) {
                slot = std::make_shared<Entry>();
                lru_order_.push_back(key);
                slot->lru_it = std::prev(lru_order_.end());
                while (entries_.size() > capacity_)
                    evictOldestLocked();
            } else {
                // Refresh recency: move to the back of the LRU list.
                lru_order_.splice(lru_order_.end(), lru_order_,
                                  slot->lru_it);
            }
            entry = slot;
            ++(existed ? counters_.hits : counters_.misses);
        }
        if (hit)
            *hit = existed;
        bool built = false;
        std::call_once(entry->once, [&] {
            entry->value = std::static_pointer_cast<const void>(
                std::make_shared<const T>(build()));
            entry->type = typeid(T).hash_code();
            entry->bytes = cachedValueBytes(
                *std::static_pointer_cast<const T>(entry->value));
            built = true;
        });
        DSTC_ASSERT(entry->type == typeid(T).hash_code(),
                    "EncodingCache key collision across types");
        if (built) {
            // The value's size is only known after the build (which
            // runs outside the lock); charge it now and apply the
            // byte bound. The entry may already have been evicted by
            // a concurrent insert — then there is nothing to charge.
            std::lock_guard<std::mutex> lock(mu_);
            auto it = entries_.find(key);
            if (it != entries_.end() && it->second == entry) {
                entry->charged = true;
                total_bytes_ += entry->bytes;
                if (capacity_bytes_ > 0)
                    while (total_bytes_ > capacity_bytes_ &&
                           entries_.size() > 1) {
                        if (lru_order_.front() == key) {
                            // Never evict the just-built entry: it
                            // can sit at the LRU front when every
                            // other entry was touched after its
                            // insert. Rotate it to the back (it is
                            // the most recent use anyway) and keep
                            // shedding the next-oldest.
                            lru_order_.splice(lru_order_.end(),
                                              lru_order_,
                                              lru_order_.begin());
                            continue;
                        }
                        evictOldestLocked();
                    }
            }
        }
        return std::static_pointer_cast<const T>(entry->value);
    }

    Counters
    counters() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return counters_;
    }

    size_t
    entries() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return entries_.size();
    }

    /** Total reported bytes of the resident (charged) values. */
    size_t
    totalBytes() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return total_bytes_;
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.clear();
        lru_order_.clear();
        total_bytes_ = 0;
        counters_ = Counters{};
    }

    size_t capacity() const { return capacity_; }
    size_t capacityBytes() const { return capacity_bytes_; }

  private:
    struct Entry
    {
        std::once_flag once;
        std::shared_ptr<const void> value;
        size_t type = 0;
        size_t bytes = 0;
        bool charged = false; ///< bytes counted in total_bytes_
        std::list<uint64_t>::iterator lru_it;
    };

    /** Drop the least-recently-used entry. Caller holds mu_. */
    void
    evictOldestLocked()
    {
        const uint64_t victim = lru_order_.front();
        auto it = entries_.find(victim);
        if (it != entries_.end()) {
            if (it->second->charged)
                total_bytes_ -= it->second->bytes;
            entries_.erase(it);
        }
        lru_order_.pop_front();
        ++counters_.evictions;
    }

    mutable std::mutex mu_;
    size_t capacity_;
    size_t capacity_bytes_;
    size_t total_bytes_ = 0;
    std::unordered_map<uint64_t, std::shared_ptr<Entry>> entries_;
    std::list<uint64_t> lru_order_;
    Counters counters_;
};

} // namespace dstc

#endif // DSTC_CORE_ENCODING_CACHE_H
