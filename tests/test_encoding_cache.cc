#include "core/encoding_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "core/session.h"
#include "gemm/sparsity_profile.h"
#include "sparse/csr.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

TEST(CacheKeyTest, DistinctInputsDistinctKeys)
{
    EXPECT_NE(CacheKey("a").value(), CacheKey("b").value());
    EXPECT_NE(CacheKey("k").i64(1).value(),
              CacheKey("k").i64(2).value());
    EXPECT_NE(CacheKey("k").f64(0.5).value(),
              CacheKey("k").f64(0.25).value());
    // Tag/field boundaries are terminated: "ab"+"c" != "a"+"bc".
    EXPECT_NE(CacheKey("ab").str("c").value(),
              CacheKey("a").str("bc").value());

    Matrix<float> m1(4, 4), m2(4, 4);
    m2.at(3, 3) = 1.0f;
    EXPECT_NE(CacheKey("m").matrix(m1).value(),
              CacheKey("m").matrix(m2).value());
    EXPECT_EQ(CacheKey("m").matrix(m1).value(),
              CacheKey("m").matrix(m1).value());
}

TEST(CacheKeyTest, BulkHashSeesEveryBitFlip)
{
    // Lengths 0-100 cover every tail length (0-31 bytes past the
    // last 32-byte stripe) and the stripe boundaries at 32, 64, 96.
    std::vector<unsigned char> buf(100);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(i * 37 + 11);
    int missed = 0;
    for (size_t len = 0; len <= buf.size(); ++len) {
        const uint64_t base =
            CacheKey("bulk").bytes(buf.data(), len).value();
        for (size_t pos = 0; pos < len; ++pos)
            for (int bit = 0; bit < 8; ++bit) {
                buf[pos] ^= static_cast<unsigned char>(1u << bit);
                const uint64_t flipped =
                    CacheKey("bulk").bytes(buf.data(), len).value();
                buf[pos] ^= static_cast<unsigned char>(1u << bit);
                if (flipped == base) {
                    ADD_FAILURE() << "len " << len << " byte " << pos
                                  << " bit " << bit;
                    ++missed;
                }
            }
    }
    EXPECT_EQ(missed, 0);
}

TEST(CacheKeyTest, BulkHashFoldsLengthNotAlignment)
{
    // Zero runs of different lengths differ: the length is folded.
    const std::vector<unsigned char> zeros(100, 0);
    std::vector<uint64_t> keys;
    for (size_t len = 0; len <= zeros.size(); ++len)
        keys.push_back(CacheKey("bulk").bytes(zeros.data(), len).value());
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());

    // The same bytes at every alignment give one key.
    std::vector<unsigned char> buf(100 + 8);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(i * 13 + 5);
    const std::vector<unsigned char> ref(buf.begin(), buf.begin() + 100);
    const uint64_t want = CacheKey("bulk").bytes(ref.data(), 100).value();
    for (size_t off = 1; off < 8; ++off) {
        std::copy(ref.begin(), ref.end(), buf.begin() + off);
        EXPECT_EQ(CacheKey("bulk").bytes(buf.data() + off, 100).value(),
                  want)
            << "offset " << off;
    }
}

TEST(CacheKeyTest, MatrixKeyFoldsShapeAndExactBits)
{
    // The same eight floats at three shapes: three keys.
    Matrix<float> wide(1, 8), tall(8, 1), block(2, 4);
    for (int i = 0; i < 8; ++i) {
        wide.at(0, i) = static_cast<float>(i + 1);
        tall.at(i, 0) = static_cast<float>(i + 1);
        block.at(i / 4, i % 4) = static_cast<float>(i + 1);
    }
    const uint64_t k_wide = CacheKey("m").matrix(wide).value();
    const uint64_t k_tall = CacheKey("m").matrix(tall).value();
    const uint64_t k_block = CacheKey("m").matrix(block).value();
    EXPECT_NE(k_wide, k_tall);
    EXPECT_NE(k_wide, k_block);
    EXPECT_NE(k_tall, k_block);

    // Keys see bits, not values: +0.0f and -0.0f differ.
    Matrix<float> pos(2, 2), neg(2, 2);
    neg.at(1, 1) = -0.0f;
    EXPECT_NE(CacheKey("m").matrix(pos).value(),
              CacheKey("m").matrix(neg).value());

    // Two distinct objects with equal contents share one key.
    Rng rng(5);
    Matrix<float> a = randomSparseMatrix(37, 29, 0.5, rng);
    const Matrix<float> copy = a;
    ASSERT_NE(copy.data().data(), a.data().data());
    EXPECT_EQ(CacheKey("m").matrix(a).value(),
              CacheKey("m").matrix(copy).value());

    // Tensors fold their four dimensions the same way.
    const Tensor4d t1(1, 2, 3, 4), t2(1, 3, 2, 4);
    EXPECT_NE(CacheKey("t").tensor(t1).value(),
              CacheKey("t").tensor(t2).value());
}

TEST(CacheKeyTest, ShardKeysKeepTheirValues)
{
    // requestShardKey folds scalar fields only, so its values — and
    // with them StaticShard placement — are pinned: these are the
    // values the byte-wise FNV-1a fold has always produced.
    const KernelRequest gemm =
        KernelRequest::gemm(1024, 512, 256, 0.7, 0.8)
            .withMethod(Method::DualSparse);
    ConvShape s;
    s.batch = 1;
    s.in_c = 64;
    s.in_h = s.in_w = 56;
    s.out_c = 64;
    s.kernel = 3;
    s.stride = 1;
    s.pad = 1;
    const KernelRequest conv = KernelRequest::conv(s, 0.9, 0.5);
    EXPECT_EQ(requestShardKey(gemm), 0x426e934818632c4aull);
    EXPECT_EQ(requestShardKey(conv), 0x21c94910a8e0339dull);
}

TEST(EncodingCacheTest, BuildsOnceThenHits)
{
    EncodingCache cache;
    int builds = 0;
    auto build = [&builds] {
        ++builds;
        return 42;
    };

    bool hit = true;
    auto first = cache.getOrBuild<int>(1, build, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(*first, 42);
    EXPECT_EQ(builds, 1);

    auto second = cache.getOrBuild<int>(1, build, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.get(), second.get()); // same shared object

    EXPECT_EQ(cache.counters().hits, 1);
    EXPECT_EQ(cache.counters().misses, 1);
    EXPECT_EQ(cache.entries(), 1u);

    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.counters().hits, 0);
    cache.getOrBuild<int>(1, build, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(builds, 2);
}

TEST(EncodingCacheTest, CapacityBoundsEntriesLru)
{
    EncodingCache cache(4);
    EXPECT_EQ(cache.capacity(), 4u);
    for (uint64_t k = 0; k < 10; ++k)
        cache.getOrBuild<uint64_t>(k, [k] { return k; });
    EXPECT_LE(cache.entries(), 4u);
    EXPECT_EQ(cache.counters().evictions, 6);

    // Least-recently-used entries were evicted and rebuild; newest
    // still hit.
    bool hit = true;
    cache.getOrBuild<uint64_t>(0, [] { return uint64_t{0}; }, &hit);
    EXPECT_FALSE(hit);
    cache.getOrBuild<uint64_t>(9, [] { return uint64_t{9}; }, &hit);
    EXPECT_TRUE(hit);
}

TEST(EncodingCacheTest, HitsRefreshLruRecency)
{
    EncodingCache cache(3);
    for (uint64_t k = 1; k <= 3; ++k)
        cache.getOrBuild<uint64_t>(k, [k] { return k; });

    // Touch the oldest entry, then insert two new keys: the
    // refreshed entry survives while the untouched ones evict.
    cache.getOrBuild<uint64_t>(1, [] { return uint64_t{1}; });
    cache.getOrBuild<uint64_t>(4, [] { return uint64_t{4}; });
    cache.getOrBuild<uint64_t>(5, [] { return uint64_t{5}; });

    bool hit = false;
    cache.getOrBuild<uint64_t>(1, [] { return uint64_t{1}; }, &hit);
    EXPECT_TRUE(hit) << "refreshed entry was evicted";
    cache.getOrBuild<uint64_t>(2, [] { return uint64_t{2}; }, &hit);
    EXPECT_FALSE(hit) << "stale entry should have been evicted";
}

TEST(EncodingCacheTest, ByteBoundEvictsUntilUnderBudget)
{
    // Values report their footprint via encodedBytes(); CSR matrices
    // do. Bound the cache to ~2.5 of them.
    Rng rng(23);
    Matrix<float> dense = randomSparseMatrix(64, 64, 0.5, rng);
    const size_t one = CsrMatrix::encode(dense).encodedBytes();
    EncodingCache cache(1024, one * 5 / 2);

    for (uint64_t k = 0; k < 4; ++k)
        cache.getOrBuild<CsrMatrix>(
            k, [&] { return CsrMatrix::encode(dense); });
    EXPECT_LE(cache.totalBytes(), one * 5 / 2);
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.counters().evictions, 2);

    // The newest entries are the survivors.
    bool hit = false;
    cache.getOrBuild<CsrMatrix>(
        3, [&] { return CsrMatrix::encode(dense); }, &hit);
    EXPECT_TRUE(hit);
    cache.getOrBuild<CsrMatrix>(
        0, [&] { return CsrMatrix::encode(dense); }, &hit);
    EXPECT_FALSE(hit);
}

TEST(EncodingCacheTest, OversizedSingleValueIsStillCached)
{
    // A value bigger than the whole byte budget caches anyway (the
    // bound sheds history, it never refuses work).
    Rng rng(24);
    Matrix<float> dense = randomSparseMatrix(64, 64, 0.2, rng);
    EncodingCache cache(1024, 16);
    bool hit = true;
    cache.getOrBuild<CsrMatrix>(
        7, [&] { return CsrMatrix::encode(dense); }, &hit);
    EXPECT_FALSE(hit);
    cache.getOrBuild<CsrMatrix>(
        7, [&] { return CsrMatrix::encode(dense); }, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(EncodingCacheTest, SessionHonorsByteBound)
{
    SessionOptions options;
    options.cache_capacity_bytes = 1; // evict everything evictable
    Session session(options);
    EXPECT_EQ(session.encodingCache().capacityBytes(), 1u);

    Rng rng(25);
    Matrix<float> a = randomSparseMatrix(64, 64, 0.7, rng);
    Matrix<float> b = randomSparseMatrix(64, 64, 0.7, rng);
    KernelRequest req = KernelRequest::gemm(a, b);
    req.method = Method::DualSparse;
    session.run(req);
    // With a 1-byte budget at most the newest (uncharged/last) entry
    // survives per insertion round.
    EXPECT_LE(session.encodingCache().entries(), 2u);
    EXPECT_GT(session.encodingCache().counters().evictions, 0);
}

TEST(EncodingCacheTest, ConcurrentLookupsBuildOnce)
{
    EncodingCache cache;
    std::atomic<int> builds{0};
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const int>> results(8);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            results[t] = cache.getOrBuild<int>(7, [&builds] {
                ++builds;
                return 99;
            });
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(builds.load(), 1);
    for (const auto &r : results)
        EXPECT_EQ(*r, 99);
}

TEST(EncodingCacheTest, RepeatedSyntheticRequestHitsCache)
{
    Session session;
    KernelRequest req = KernelRequest::gemm(512, 512, 512, 0.7, 0.8);
    req.method = Method::DualSparse;

    KernelReport first = session.run(req);
    EXPECT_FALSE(first.encode_cache_hit);
    KernelReport second = session.run(req);
    EXPECT_TRUE(second.encode_cache_hit);
    // The cached profiles are the same objects, so the stats match
    // exactly.
    EXPECT_DOUBLE_EQ(first.timeUs(), second.timeUs());
    EXPECT_EQ(first.stats.mix.ohmma_issued,
              second.stats.mix.ohmma_issued);
    EXPECT_GE(session.encodingCache().counters().hits, 1);
}

TEST(EncodingCacheTest, DifferentOperatingPointsMissCache)
{
    Session session;
    KernelRequest req = KernelRequest::gemm(512, 512, 512, 0.7, 0.8);
    req.method = Method::DualSparse;
    session.run(req);

    KernelRequest other = req;
    other.seed = 2;
    EXPECT_FALSE(session.run(other).encode_cache_hit);
    other = req;
    other.b_sparsity = 0.9;
    EXPECT_FALSE(session.run(other).encode_cache_hit);
}

TEST(EncodingCacheTest, FunctionalOperandEncodingsAreReused)
{
    Session session;
    Rng rng(17);
    Matrix<float> a = randomSparseMatrix(128, 128, 0.7, rng);
    Matrix<float> b = randomSparseMatrix(128, 128, 0.7, rng);
    KernelRequest req = KernelRequest::gemm(a, b);
    req.method = Method::DualSparse;

    KernelReport first = session.run(req);
    KernelReport second = session.run(req);
    EXPECT_FALSE(first.encode_cache_hit);
    EXPECT_TRUE(second.encode_cache_hit);
    EXPECT_DOUBLE_EQ(first.timeUs(), second.timeUs());
    EXPECT_LT(maxAbsDiff(*second.d, refGemmFp16(a, b)), 1e-4);

    // The same operand content in a *different* Matrix object also
    // hits: keys are content hashes, not pointers.
    Matrix<float> a_copy = a;
    Matrix<float> b_copy = b;
    KernelRequest copy_req = KernelRequest::gemm(a_copy, b_copy);
    copy_req.method = Method::DualSparse;
    EXPECT_TRUE(session.run(copy_req).encode_cache_hit);
}

TEST(EncodingCacheTest, ConvEncodingReusedAcrossRepeatedLayers)
{
    Session session;
    ConvShape shape;
    shape.in_c = 32;
    shape.in_h = shape.in_w = 14;
    shape.out_c = 32;
    KernelRequest req = KernelRequest::conv(shape, 0.8, 0.6);
    req.method = Method::DualSparse;

    EXPECT_FALSE(session.run(req).encode_cache_hit);
    EXPECT_TRUE(session.run(req).encode_cache_hit);

    // Same shape under a different strategy encodes separately.
    KernelRequest dense = req;
    dense.method = Method::Dense;
    EXPECT_FALSE(session.run(dense).encode_cache_hit);
}

// -- timing-stats family ----------------------------------------------

/** Every KernelStats field, doubles compared exactly. */
void
expectSameStats(const KernelStats &a, const KernelStats &b,
                const std::string &context)
{
    EXPECT_EQ(a.name, b.name) << context;
    EXPECT_EQ(a.mix.hmma, b.mix.hmma) << context;
    EXPECT_EQ(a.mix.ohmma_issued, b.mix.ohmma_issued) << context;
    EXPECT_EQ(a.mix.ohmma_skipped, b.mix.ohmma_skipped) << context;
    EXPECT_EQ(a.mix.bohmma, b.mix.bohmma) << context;
    EXPECT_EQ(a.mix.popc, b.mix.popc) << context;
    EXPECT_EQ(a.warp_tiles, b.warp_tiles) << context;
    EXPECT_EQ(a.warp_tiles_skipped, b.warp_tiles_skipped) << context;
    EXPECT_EQ(a.merge_cycles, b.merge_cycles) << context;
    EXPECT_EQ(a.compute_us, b.compute_us) << context;
    EXPECT_EQ(a.memory_us, b.memory_us) << context;
    EXPECT_EQ(a.dram_bytes, b.dram_bytes) << context;
    EXPECT_EQ(a.launch_us, b.launch_us) << context;
    EXPECT_EQ(a.bound, b.bound) << context;
}

/** One timing-only request per dual-sparse plan kind. */
std::vector<std::pair<std::string, KernelRequest>>
timingOnlyRequests()
{
    ConvShape shape;
    shape.in_c = 32;
    shape.in_h = shape.in_w = 14;
    shape.out_c = 32;
    return {
        {"gemm", KernelRequest::gemm(512, 512, 512, 0.7, 0.8)
                     .withMethod(Method::DualSparse)},
        {"conv", KernelRequest::conv(shape, 0.8, 0.6)
                     .withMethod(Method::DualSparse)},
        {"spmm", KernelRequest::spmm(1024, 32, 1024, 0.95)
                     .withMethod(Method::DualSparse)},
    };
}

TEST(TimingStatsMemoTest, RepeatIsOneHitAndMatchesFreshSession)
{
    for (const auto &[name, req] : timingOnlyRequests()) {
        Session session;
        const KernelReport first = session.run(req);
        EXPECT_FALSE(first.encode_cache_hit) << name;
        // The repeat is served by the stats entry alone: one hit, no
        // operand lookup behind it.
        const EncodingCache::Counters before =
            session.encodingCache().counters();
        const KernelReport second = session.run(req);
        const EncodingCache::Counters after =
            session.encodingCache().counters();
        EXPECT_TRUE(second.encode_cache_hit) << name;
        EXPECT_EQ(after.hits, before.hits + 1) << name;
        EXPECT_EQ(after.misses, before.misses) << name;

        Session fresh;
        const KernelStats want = fresh.run(req).stats;
        expectSameStats(first.stats, want, name + " first");
        expectSameStats(second.stats, want, name + " repeat");
        // Auto's estimate reads the same entry it executes from.
        Session ranked;
        KernelRequest auto_req = req;
        auto_req.method = Method::Auto;
        const KernelReport chosen = ranked.run(auto_req);
        EXPECT_EQ(chosen.planned_us, chosen.stats.timeUs()) << name;
    }
}

TEST(TimingStatsMemoTest, ConfigsSharingOneCacheTimeDifferently)
{
    for (const auto &[name, req] : timingOnlyRequests()) {
        EncodingCache cache;
        SessionOptions opts;
        opts.shared_cache = &cache;
        Session v100(opts);
        opts.config = GpuConfig::futureGpu();
        Session future(opts);
        const KernelStats v100_stats = v100.run(req).stats;
        const KernelStats future_stats = future.run(req).stats;
        EXPECT_NE(v100_stats.timeUs(), future_stats.timeUs()) << name;
        expectSameStats(v100_stats, Session().run(req).stats,
                        name + " v100");
        expectSameStats(future_stats,
                        Session(GpuConfig::futureGpu()).run(req).stats,
                        name + " future");
    }
}

TEST(TimingStatsMemoTest, EveryTimedOptionFieldIsInTheKey)
{
    const KernelRequest base =
        KernelRequest::gemm(512, 512, 512, 0.7, 0.8)
            .withMethod(Method::DualSparse);
    std::vector<std::pair<std::string, KernelRequest>> variants;
    variants.emplace_back("dtype",
                          KernelRequest(base).withDataType(
                              DataType::Int8));
    KernelRequest tile_k = base;
    tile_k.gemm_options.tile_k = 64;
    variants.emplace_back("tile_k", tile_k);
    KernelRequest flat = base;
    flat.gemm_options.two_level = false;
    variants.emplace_back("two_level", flat);
    KernelRequest sparse_d = base;
    sparse_d.gemm_options.sparse_output = true;
    variants.emplace_back("sparse_output", sparse_d);

    for (const auto &[field, variant] : variants) {
        Session session;
        session.run(base);
        // The variant shares the base's profile pair (a hit) but
        // must build its own stats entry (a miss).
        const EncodingCache::Counters before =
            session.encodingCache().counters();
        const KernelStats got = session.run(variant).stats;
        const EncodingCache::Counters after =
            session.encodingCache().counters();
        EXPECT_EQ(after.misses, before.misses + 1) << field;
        EXPECT_EQ(after.hits, before.hits + 1) << field;
        expectSameStats(got, Session().run(variant).stats, field);
    }
}

TEST(TimingStatsMemoTest, BorrowedProfilesAreNeverMemoized)
{
    Rng rng(23);
    const SparsityProfile a =
        SparsityProfile::randomA(256, 256, 32, 0.3, 1.0, rng);
    const SparsityProfile b =
        SparsityProfile::randomA(256, 256, 32, 0.2, 1.0, rng);
    const SparsityProfile strips =
        SparsityProfile::randomA(256, 256, 8, 0.05, 1.0, rng);
    const std::vector<std::pair<std::string, KernelRequest>> borrowed =
        {{"gemm", KernelRequest::gemm(a, b).withMethod(
                      Method::DualSparse)},
         {"spmm", KernelRequest::spmm(strips, 32).withMethod(
                      Method::DualSparse)}};
    for (const auto &[name, req] : borrowed) {
        Session session;
        const KernelReport first = session.run(req);
        const KernelReport second = session.run(req);
        EXPECT_FALSE(first.encode_cache_hit) << name;
        EXPECT_FALSE(second.encode_cache_hit) << name;
        EXPECT_EQ(session.encodingCache().entries(), 0u) << name;
        EXPECT_EQ(session.encodingCache().counters().hits, 0) << name;
        expectSameStats(first.stats, second.stats, name);
    }
}

} // namespace
} // namespace dstc
