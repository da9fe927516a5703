#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace dstc {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(&pool, 1000, 4, [&](int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

/** Run parallelFor over [0, n) and expect every index exactly once. */
void
expectEveryIndexOnce(ThreadPool *pool, int64_t n, int max_workers)
{
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    parallelFor(pool, n, max_workers, [&](int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
    });
    int64_t wrong = 0;
    for (const auto &h : hits)
        wrong += h.load() != 1;
    EXPECT_EQ(wrong, 0) << "n " << n << ", max_workers " << max_workers;
}

TEST(ThreadPool, ChunkedClaimsCoverEveryIndexOnce)
{
    // Indices are claimed in chunks of n / (8 x participants): sizes
    // around and below that grain (1, 2, 17, 18 = a 3x3 conv's
    // tiles_k, 33) and far above it, serial and pooled, top-level
    // and nested inside a job of the same pool.
    ThreadPool pool(4);
    for (int64_t n : {1, 2, 17, 18, 33, 1000, 100003}) {
        for (int max_workers : {0, 1, 2, 4}) {
            expectEveryIndexOnce(&pool, n, max_workers);
            std::atomic<bool> nested_done{false};
            pool.enqueue([&] {
                expectEveryIndexOnce(&pool, n, max_workers);
                nested_done.store(true);
            });
            while (!nested_done.load())
                std::this_thread::yield();
        }
    }
}

TEST(ThreadPool, ParallelForSerialFallbacks)
{
    // Null pool and max_workers=1 both run the plain serial loop.
    std::vector<int> order;
    parallelFor(nullptr, 5, 8,
                [&](int64_t i) { order.push_back(static_cast<int>(i)); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

    ThreadPool pool(4);
    order.clear();
    parallelFor(&pool, 5, 1,
                [&](int64_t i) { order.push_back(static_cast<int>(i)); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForZeroAndOneItems)
{
    ThreadPool pool(2);
    int calls = 0;
    parallelFor(&pool, 0, 4, [&](int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(&pool, 1, 4, [&](int64_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForNestsInsidePoolJobs)
{
    // A parallelFor issued from inside a job of the same pool must
    // complete even when every worker is busy: the calling thread
    // participates in its own loop.
    ThreadPool pool(2);
    std::atomic<int64_t> total{0};
    std::vector<std::atomic<int>> done(4);
    for (int j = 0; j < 4; ++j) {
        pool.enqueue([&, j] {
            parallelFor(&pool, 100, 2,
                        [&](int64_t i) { total.fetch_add(i); });
            done[static_cast<size_t>(j)].store(1);
        });
    }
    // Outer parallelFor on the same (busy) pool also finishes.
    parallelFor(&pool, 100, 2, [&](int64_t i) { total.fetch_add(i); });
    for (auto &d : done)
        while (!d.load())
            std::this_thread::yield();
    EXPECT_EQ(total.load(), 5 * (99 * 100 / 2));
}

TEST(ThreadPool, ConcurrentParallelForsFromManyThreads)
{
    ThreadPool pool(3);
    std::atomic<int64_t> total{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t)
        callers.emplace_back([&] {
            parallelFor(&pool, 500, 3,
                        [&](int64_t i) { total.fetch_add(i + 1); });
        });
    for (auto &c : callers)
        c.join();
    EXPECT_EQ(total.load(), 4 * (500 * 501 / 2));
}

TEST(ThreadPool, SharedPoolIsSingletonAndSized)
{
    ThreadPool &a = sharedThreadPool();
    ThreadPool &b = sharedThreadPool();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.numThreads(), 1);
}

} // namespace
} // namespace dstc
