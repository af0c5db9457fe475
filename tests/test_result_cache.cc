/**
 * @file
 * Unit tests for the deployment-scoped retained-result cache
 * (core::ResultCache): replay of done results (failures included), an
 * in-flight duplicate joining its original, FIFO eviction over
 * completion order, pass-through for op id 0 and a zero capacity, the
 * hit count, and a randomized comparison against a reference model of
 * the same semantics built from standard containers.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "src/core/result_cache.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace lfs::core {
namespace {

OpResult
result_with(uint64_t tag, Status status = Status::make_ok())
{
    OpResult result;
    result.status = std::move(status);
    result.inode.id = tag;
    result.chain.resize(tag % 4);
    return result;
}

TEST(ResultCache, ReplaysDoneResultsIncludingFailures)
{
    sim::Simulation sim;
    ResultCache cache(sim, 16);
    ASSERT_TRUE(cache.claim(7).execute());
    cache.complete(7, result_with(70));
    ASSERT_TRUE(cache.claim(8).execute());
    cache.complete(8, result_with(80, Status::unavailable("store outage")));

    ResultCache::Claim ok = cache.claim(7);
    ASSERT_NE(ok.retained, nullptr);
    EXPECT_TRUE(ok.retained->status.ok());
    EXPECT_EQ(ok.retained->inode.id, 70u);
    // A retained (even transient) failure is replayed, not re-executed.
    ResultCache::Claim failed = cache.claim(8);
    ASSERT_NE(failed.retained, nullptr);
    EXPECT_EQ(failed.retained->status.code(), Code::kUnavailable);
    EXPECT_EQ(cache.hits(), 2u);
}

sim::Task<void>
co_execute(sim::Simulation& sim, ResultCache& cache, uint64_t op_id,
           int& executions, OpResult& out)
{
    ResultCache::Claim claim = cache.claim(op_id);
    if (claim.execute()) {
        ++executions;
        co_await sim::delay(sim, sim::msec(5));
        out = result_with(op_id * 10);
        cache.complete(op_id, out);
    } else if (claim.in_flight) {
        out = co_await cache.join(op_id);
    } else {
        out = *claim.retained;
    }
}

TEST(ResultCache, InFlightDuplicateJoinsTheOriginal)
{
    sim::Simulation sim;
    ResultCache cache(sim, 16);
    int executions = 0;
    OpResult original;
    OpResult duplicate;
    OpResult second_duplicate;
    sim::spawn(co_execute(sim, cache, 3, executions, original));
    sim.schedule(sim::msec(1), [&] {
        sim::spawn(co_execute(sim, cache, 3, executions, duplicate));
        sim::spawn(co_execute(sim, cache, 3, executions, second_duplicate));
    });
    sim.run();
    EXPECT_EQ(executions, 1);
    EXPECT_EQ(original.inode.id, 30u);
    EXPECT_EQ(duplicate.inode.id, 30u);
    EXPECT_EQ(second_duplicate.inode.id, 30u);
    EXPECT_EQ(sim.now(), sim::msec(5));
    EXPECT_EQ(cache.hits(), 2u);
    // Once done, the result is retained for later resubmissions.
    ASSERT_NE(cache.claim(3).retained, nullptr);
    EXPECT_EQ(cache.hits(), 3u);
}

TEST(ResultCache, EvictsInCompletionOrder)
{
    sim::Simulation sim;
    ResultCache cache(sim, 3);
    for (uint64_t id : {10, 11, 12, 13}) {
        ASSERT_TRUE(cache.claim(id).execute());
    }
    // Completion order, not claim order, is the FIFO order.
    for (uint64_t id : {11, 10, 12, 13}) {
        cache.complete(id, result_with(id));
    }
    EXPECT_TRUE(cache.claim(11).execute());  // oldest completion: evicted
    for (uint64_t id : {10, 12, 13}) {
        ResultCache::Claim claim = cache.claim(id);
        ASSERT_NE(claim.retained, nullptr) << id;
        EXPECT_EQ(claim.retained->inode.id, id);
    }
    // 11 re-executes; its completion evicts 10, the next oldest.
    cache.complete(11, result_with(111));
    EXPECT_TRUE(cache.claim(10).execute());
    ASSERT_NE(cache.claim(11).retained, nullptr);
    EXPECT_EQ(cache.claim(11).retained->inode.id, 111u);
}

TEST(ResultCache, FirstCompletionWins)
{
    sim::Simulation sim;
    ResultCache cache(sim, 4);
    ASSERT_TRUE(cache.claim(5).execute());
    cache.complete(5, result_with(50));
    cache.complete(5, result_with(51, Status::already_exists("dup")));
    ResultCache::Claim claim = cache.claim(5);
    ASSERT_NE(claim.retained, nullptr);
    EXPECT_TRUE(claim.retained->status.ok());
    EXPECT_EQ(claim.retained->inode.id, 50u);
}

TEST(ResultCache, OpIdZeroAndZeroCapacityPassThrough)
{
    sim::Simulation sim;
    ResultCache cache(sim, 8);
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(cache.claim(0).execute());
        cache.complete(0, result_with(1));
    }
    ResultCache off(sim, 0);
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(off.claim(9).execute());
        off.complete(9, result_with(1));
    }
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(off.hits(), 0u);
}

/**
 * The semantics ResultCache must keep, written with standard containers:
 * done results in a map with a completion-order deque for FIFO
 * eviction, and a set of in-flight ids.
 */
class ReferenceCache {
  public:
    explicit ReferenceCache(size_t capacity) : capacity_(capacity) {}

    /** 0 = execute, 1 = in flight, 2 = retained (tag in @p tag). */
    int
    claim(uint64_t op_id, uint64_t& tag)
    {
        auto done = done_.find(op_id);
        if (done != done_.end()) {
            tag = done->second;
            return 2;
        }
        if (!in_flight_.insert(op_id).second) {
            return 1;
        }
        return 0;
    }

    void
    complete(uint64_t op_id, uint64_t tag)
    {
        in_flight_.erase(op_id);
        if (done_.emplace(op_id, tag).second) {
            order_.push_back(op_id);
            while (order_.size() > capacity_) {
                done_.erase(order_.front());
                order_.pop_front();
            }
        }
    }

  private:
    size_t capacity_;
    std::map<uint64_t, uint64_t> done_;
    std::deque<uint64_t> order_;
    std::set<uint64_t> in_flight_;
};

TEST(ResultCache, MatchesTheReferenceModel)
{
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
        sim::Simulation sim;
        sim::Rng rng(seed);
        const size_t capacity = 64;
        ResultCache cache(sim, capacity);
        ReferenceCache model(capacity);
        std::vector<uint64_t> executing;
        uint64_t next_tag = 1;
        for (int step = 0; step < 20000; ++step) {
            if (!executing.empty() && rng.bernoulli(0.5)) {
                // Complete a random in-flight op (any order).
                size_t i = rng.index(executing.size());
                uint64_t id = executing[i];
                executing[i] = executing.back();
                executing.pop_back();
                uint64_t tag = next_tag++;
                cache.complete(id, result_with(tag));
                model.complete(id, tag);
                continue;
            }
            // Client-style ids: a client number in the high bits.
            uint64_t id =
                (static_cast<uint64_t>(rng.uniform_int(1, 4)) << 40) |
                static_cast<uint64_t>(rng.uniform_int(1, 300));
            uint64_t tag = 0;
            int expected = model.claim(id, tag);
            ResultCache::Claim claim = cache.claim(id);
            if (expected == 0) {
                ASSERT_TRUE(claim.execute()) << "seed " << seed;
                executing.push_back(id);
            } else if (expected == 1) {
                ASSERT_TRUE(claim.in_flight) << "seed " << seed;
            } else {
                ASSERT_NE(claim.retained, nullptr) << "seed " << seed;
                ASSERT_EQ(claim.retained->inode.id, tag) << "seed " << seed;
            }
        }
    }
}

}  // namespace
}  // namespace lfs::core
