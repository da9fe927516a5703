/**
 * @file
 * Shared-cache Session tests: multiple Sessions over different
 * GpuConfigs sharing one EncodingCache (and one worker pool) — the
 * mode a Cluster builds its per-device Sessions in. Encodings must
 * dedup across devices, config-dependent keys must never collide
 * across configs, the LRU/byte bounds must hold under concurrent
 * submission, and each Session must count its own hit rate.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "core/gemm_operands.h"
#include "core/session.h"
#include "core/thread_pool.h"
#include "tensor/reference.h"

namespace dstc {
namespace {

/** Synthetic timing requests over a few repeated operating points. */
std::vector<KernelRequest>
repeatedPoints()
{
    std::vector<KernelRequest> requests;
    for (int round = 0; round < 3; ++round) {
        for (uint64_t seed : {1, 2, 3}) {
            KernelRequest req =
                KernelRequest::gemm(256, 256, 256, 0.7, 0.9);
            req.method = Method::DualSparse;
            req.seed = seed;
            requests.push_back(req);
        }
    }
    return requests;
}

/**
 * Whether @p key is resident in @p cache as a @p T entry. The probe is
 * itself a lookup (a miss leaves an unbuilt slot behind), so callers
 * read the counters before probing.
 */
template <typename T>
bool
resident(EncodingCache &cache, uint64_t key)
{
    bool hit = false;
    try {
        cache.getOrBuild<T>(
            key, []() -> T { throw std::out_of_range("not resident"); },
            &hit);
    } catch (const std::out_of_range &) {
    }
    return hit;
}

TEST(SharedCacheTest, ConcurrentSessionsShareEncodingsAndStayExact)
{
    // Two Sessions, two configs, one cache and one pool; both batch
    // the same requests concurrently. Results must be bitwise
    // identical to private-cache solo Sessions of the same configs,
    // and the shared cache must have built each encoding once.
    EncodingCache cache;
    ThreadPool pool(4);
    SessionOptions v100_opts;
    v100_opts.shared_cache = &cache;
    v100_opts.shared_pool = &pool;
    SessionOptions future_opts = v100_opts;
    future_opts.config = GpuConfig::futureGpu();
    Session v100(v100_opts);
    Session future(future_opts);

    auto v100_futures = v100.submitBatch(repeatedPoints());
    auto future_futures = future.submitBatch(repeatedPoints());

    Session v100_solo;
    Session future_solo(GpuConfig::futureGpu());
    std::vector<KernelRequest> requests = repeatedPoints();
    for (size_t i = 0; i < requests.size(); ++i) {
        KernelReport shared_report = v100_futures[i].get();
        KernelReport solo_report = v100_solo.run(requests[i]);
        EXPECT_DOUBLE_EQ(shared_report.stats.timeUs(),
                         solo_report.stats.timeUs())
            << "v100 req " << i;
        shared_report = future_futures[i].get();
        solo_report = future_solo.run(requests[i]);
        EXPECT_DOUBLE_EQ(shared_report.stats.timeUs(),
                         solo_report.stats.timeUs())
            << "future req " << i;
    }

    // 3 distinct operating points, counted per family. Profile
    // synthesis is config-independent: 3 profile builds across both
    // configs. Timing stats are per (point, config): 6 builds, and
    // the other 12 requests are stats hits. Profiles are looked up
    // only on a stats miss — 6 lookups, 3 of them hits.
    const int64_t profile_builds = 3, stats_builds = 6;
    EncodingCache::Counters counters = cache.counters();
    EXPECT_EQ(counters.misses, profile_builds + stats_builds);
    EXPECT_EQ(counters.hits, 12 + 3);
    EXPECT_EQ(cache.entries(),
              static_cast<size_t>(profile_builds + stats_builds));
    for (uint64_t seed : {1, 2, 3}) {
        KernelRequest req = repeatedPoints()[seed - 1];
        const uint64_t profiles = syntheticGemmProfileKey(req);
        EXPECT_TRUE(resident<GemmProfilePair>(cache, profiles))
            << "seed " << seed;
        EXPECT_TRUE(resident<KernelStats>(
            cache, timingStatsKey(profiles, req.gemm_options,
                                  gpuConfigDigest(GpuConfig::v100()))))
            << "seed " << seed << " on v100";
        EXPECT_TRUE(resident<KernelStats>(
            cache, timingStatsKey(profiles, req.gemm_options,
                                  gpuConfigDigest(GpuConfig::futureGpu()))))
            << "seed " << seed << " on future";
    }

    // Per-device hit accounting: both sessions ran 9 requests, and
    // between them 15 of the 18 were cache-served.
    Session::RequestCounters v100_counters = v100.requestCounters();
    Session::RequestCounters future_counters =
        future.requestCounters();
    EXPECT_EQ(v100_counters.requests, 9);
    EXPECT_EQ(future_counters.requests, 9);
    EXPECT_EQ(v100_counters.encode_cache_hits +
                  future_counters.encode_cache_hits,
              15);
    // Each session repeated its own points twice after first sight,
    // so each saw at least 6 hits itself.
    EXPECT_GE(v100_counters.encode_cache_hits, 6);
    EXPECT_GE(future_counters.encode_cache_hits, 6);
}

TEST(SharedCacheTest, NoCrossConfigKeyCollisions)
{
    // CacheKey::gpuConfig must separate configs: identical payload,
    // different machines, different digests (and v100() must equal
    // itself field for field).
    KernelRequest req = KernelRequest::gemm(128, 128, 128, 0.5, 0.5);
    const uint64_t digest = requestShardKey(req);
    const uint64_t v100_key = CacheKey("probe")
                                  .u64(digest)
                                  .gpuConfig(GpuConfig::v100())
                                  .value();
    const uint64_t v100_again = CacheKey("probe")
                                    .u64(digest)
                                    .gpuConfig(GpuConfig::v100())
                                    .value();
    const uint64_t a100_key = CacheKey("probe")
                                  .u64(digest)
                                  .gpuConfig(GpuConfig::a100Like())
                                  .value();
    const uint64_t future_key = CacheKey("probe")
                                    .u64(digest)
                                    .gpuConfig(GpuConfig::futureGpu())
                                    .value();
    EXPECT_EQ(v100_key, v100_again);
    EXPECT_NE(v100_key, a100_key);
    EXPECT_NE(v100_key, future_key);
    EXPECT_NE(a100_key, future_key);

    // End to end: the same request through two shared-cache Sessions
    // of different configs must time differently — config-correct
    // results prove no config-dependent value was reused across
    // configs.
    EncodingCache cache;
    SessionOptions opts;
    opts.shared_cache = &cache;
    Session v100(opts);
    opts.config = GpuConfig::futureGpu();
    Session future(opts);
    KernelRequest timing =
        KernelRequest::gemm(1024, 1024, 1024, 0.8, 0.8);
    timing.method = Method::DualSparse;
    const double v100_us = v100.run(timing).stats.timeUs();
    const double future_us = future.run(timing).stats.timeUs();
    EXPECT_GT(v100_us, future_us);
    // ... while the (config-independent) profile pair was shared:
    // one profile miss and one profile hit across the two sessions,
    // plus one timing-stats miss per config.
    EXPECT_EQ(cache.counters().misses, 1 + 2);
    EXPECT_EQ(cache.counters().hits, 1);
    const uint64_t profiles = syntheticGemmProfileKey(timing);
    EXPECT_TRUE(resident<GemmProfilePair>(cache, profiles));
    // Each config's stats entry holds that config's time.
    const auto stats_on = [&](const GpuConfig &cfg) {
        return cache
            .getOrBuild<KernelStats>(
                timingStatsKey(profiles, timing.gemm_options,
                               gpuConfigDigest(cfg)),
                [] {
                    ADD_FAILURE() << "stats entry missing";
                    return KernelStats{};
                })
            ->timeUs();
    };
    EXPECT_EQ(stats_on(GpuConfig::v100()), v100_us);
    EXPECT_EQ(stats_on(GpuConfig::futureGpu()), future_us);
}

TEST(SharedCacheTest, LruAndByteBoundsHoldUnderConcurrentBatches)
{
    // A deliberately tiny shared cache under two concurrent batches:
    // the entry bound and byte bound must hold once the batches
    // drain, and evictions must be counted.
    EncodingCache cache(4, 64 * 1024);
    ThreadPool pool(4);
    SessionOptions opts;
    opts.shared_cache = &cache;
    opts.shared_pool = &pool;
    Session a(opts);
    opts.config = GpuConfig::a100Like();
    Session b(opts);

    std::vector<KernelRequest> requests;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        KernelRequest req =
            KernelRequest::gemm(512, 512, 512, 0.6, 0.8);
        req.method = Method::DualSparse;
        req.seed = seed;
        requests.push_back(req);
    }
    auto a_futures = a.submitBatch(requests);
    auto b_futures = b.submitBatch(requests);
    for (auto &f : a_futures)
        f.get();
    for (auto &f : b_futures)
        f.get();

    EXPECT_LE(cache.entries(), 4u);
    EXPECT_LE(cache.totalBytes(), 64u * 1024u);
    EXPECT_GT(cache.counters().evictions, 0);
    EXPECT_EQ(a.requestCounters().requests, 12);
    EXPECT_EQ(b.requestCounters().requests, 12);
}

TEST(SharedCacheTest, SharedPoolIsReusedNotOwned)
{
    // Sessions in shared-pool mode must enqueue on the caller's pool
    // (no private pool spawn) and survive interleaved submits.
    EncodingCache cache;
    ThreadPool pool(2);
    SessionOptions opts;
    opts.shared_pool = &pool;
    opts.shared_cache = &cache;
    opts.num_threads = 99; // must be ignored in shared-pool mode
    Session first(opts);
    Session second(opts);
    std::vector<std::future<KernelReport>> futures;
    for (int i = 0; i < 6; ++i) {
        KernelRequest req = KernelRequest::gemm(128, 128, 128, 0.5,
                                                0.5);
        req.method = Method::DualSparse;
        req.seed = static_cast<uint64_t>(i);
        futures.push_back((i % 2 ? second : first).submit(req));
    }
    for (auto &f : futures)
        EXPECT_GT(f.get().timeUs(), 0.0);
}

} // namespace
} // namespace dstc
